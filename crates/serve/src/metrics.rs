//! The event loop's plain-text counters and gauges: connections,
//! rejections, reaps, queue depth, in-flight requests, worker
//! utilization.
//!
//! Everything is a relaxed atomic — metrics must never contend with the
//! request path. The output format is Prometheus-flavoured plain text
//! (`name{label="value"} number`, one sample per line) so it is both
//! greppable by the verify smoke gate and scrapable by real tooling.
//! Latency series — per endpoint and per pipeline stage — are not kept
//! here: they live in the one registry, the server's
//! [`webre_obs::stats::StatsRecorder`], whose lines `/metrics` appends.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Shared server metrics. One instance per server, shared by acceptor
/// and workers.
pub struct Metrics {
    started: Instant,
    workers: usize,
    /// Connections accepted (including ones answered 429).
    pub connections: AtomicU64,
    /// Connections rejected with 429 because the queue was full.
    pub rejected: AtomicU64,
    /// Requests that failed to parse (answered 400/413/408).
    pub bad_requests: AtomicU64,
    /// Handler panics caught and answered with 500.
    pub panics: AtomicU64,
    /// Jobs currently queued (incremented on enqueue, decremented on
    /// worker pickup).
    pub queue_depth: AtomicI64,
    /// Total nanoseconds workers spent serving connections.
    pub busy_ns: AtomicU64,
    /// Requests shed by admission control (429 + retry-after).
    pub shed: AtomicU64,
    /// Connections reaped because a partial request outlived the read
    /// budget (slow-loris defense).
    pub reaped_read: AtomicU64,
    /// Keep-alive connections reaped for idling past the idle budget.
    pub reaped_idle: AtomicU64,
    /// Connections reaped because the peer stopped draining responses.
    pub reaped_write: AtomicU64,
    /// Connections currently owned by the event loop.
    pub open_connections: AtomicI64,
    /// Worker-path requests currently executing in a handler. Inline
    /// fast-path requests are excluded on purpose: they run on the
    /// event loop (a stall there stops *everything*, detectable on its
    /// own), and `/metrics` itself is fast-path — counting it would
    /// make every scrape observe itself and the gauge could never read
    /// zero over HTTP.
    pub in_flight: AtomicI64,
}

impl Metrics {
    /// Fresh metrics for a pool of `workers` threads.
    pub fn new(workers: usize) -> Self {
        Metrics {
            started: Instant::now(),
            workers: workers.max(1),
            connections: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            queue_depth: AtomicI64::new(0),
            busy_ns: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            reaped_read: AtomicU64::new(0),
            reaped_idle: AtomicU64::new(0),
            reaped_write: AtomicU64::new(0),
            open_connections: AtomicI64::new(0),
            in_flight: AtomicI64::new(0),
        }
    }

    /// Renders the plain-text exposition. `extra` carries lines owned by
    /// other components: the cache and corpus counters, and the latency
    /// series of the stats recorder.
    pub fn render(&self, extra: &str) -> String {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        // Gauges clamp at zero: increments and decrements race briefly.
        let gauge = |gauge: &AtomicI64| gauge.load(Ordering::Relaxed).max(0);
        let uptime = self.started.elapsed();
        let busy = load(&self.busy_ns) as f64;
        let wall = (uptime.as_nanos() as f64 * self.workers as f64).max(1.0);
        format!(
            "uptime_seconds {:.3}\n\
             connections_accepted_total {}\n\
             requests_rejected_total{{reason=\"queue_full\"}} {}\n\
             requests_bad_total {}\n\
             worker_panics_total {}\n\
             queue_depth {}\n\
             worker_utilization_ratio {:.4}\n\
             workers {}\n\
             requests_rejected_total{{reason=\"deadline\"}} {}\n\
             connections_reaped_total{{reason=\"read_timeout\"}} {}\n\
             connections_reaped_total{{reason=\"idle_timeout\"}} {}\n\
             connections_reaped_total{{reason=\"write_timeout\"}} {}\n\
             connections_open {}\n\
             requests_in_flight {}\n\
             {extra}",
            uptime.as_secs_f64(),
            load(&self.connections),
            load(&self.rejected),
            load(&self.bad_requests),
            load(&self.panics),
            gauge(&self.queue_depth),
            (busy / wall).min(1.0),
            self.workers,
            load(&self.shed),
            load(&self.reaped_read),
            load(&self.reaped_idle),
            load(&self.reaped_write),
            gauge(&self.open_connections),
            gauge(&self.in_flight),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_appends_extra_lines_and_core_gauges() {
        let metrics = Metrics::new(4);
        metrics.rejected.fetch_add(3, Ordering::Relaxed);
        metrics.queue_depth.store(5, Ordering::Relaxed);
        let text = metrics.render("cache_hits_total 7\n");
        assert!(text.contains("requests_rejected_total{reason=\"queue_full\"} 3"), "{text}");
        assert!(text.contains("queue_depth 5"), "{text}");
        assert!(text.contains("workers 4"), "{text}");
        assert!(text.contains("cache_hits_total 7"), "{text}");
        assert!(text.contains("worker_utilization_ratio"), "{text}");
    }

    #[test]
    fn readiness_core_counters_render_with_reason_labels() {
        let metrics = Metrics::new(2);
        metrics.shed.fetch_add(9, Ordering::Relaxed);
        metrics.reaped_read.fetch_add(4, Ordering::Relaxed);
        metrics.reaped_idle.fetch_add(2, Ordering::Relaxed);
        metrics.reaped_write.fetch_add(1, Ordering::Relaxed);
        metrics.open_connections.store(12, Ordering::Relaxed);
        metrics.in_flight.store(-1, Ordering::Relaxed); // transient skew
        let text = metrics.render("");
        assert!(text.contains("requests_rejected_total{reason=\"deadline\"} 9"), "{text}");
        assert!(text.contains("connections_reaped_total{reason=\"read_timeout\"} 4"), "{text}");
        assert!(text.contains("connections_reaped_total{reason=\"idle_timeout\"} 2"), "{text}");
        assert!(text.contains("connections_reaped_total{reason=\"write_timeout\"} 1"), "{text}");
        assert!(text.contains("connections_open 12"), "{text}");
        assert!(text.contains("requests_in_flight 0"), "gauges clamp at zero: {text}");
    }
}
