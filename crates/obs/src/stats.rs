//! The one metrics registry behind the serving layer's `/metrics`: a
//! latency [`Series`] per served endpoint and per pipeline stage, plus
//! global counter totals, all lock-free.
//!
//! Span ids pack the stage index into the top byte and the start
//! timestamp into the low 56 bits, so `span_end` needs no lookup table
//! and the recorder takes no locks on the hot path. Spans are counted
//! at `span_end`, which gives the serve consistency test an exact
//! invariant: a `/metrics` request that is *in flight* appears in
//! neither its own `pipeline_spans_total{stage="request"}` line nor
//! `requests_total` (both are recorded after the response is built).

use crate::clock::Clock;
use crate::hist::Series;
use crate::{counter, stage, Recorder, SpanId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const START_MASK: u64 = (1 << 56) - 1;

/// Lock-free aggregates: one request series per endpoint label the
/// caller names, one span series per catalogued stage, one total per
/// catalogued counter.
pub struct StatsRecorder {
    clock: Box<dyn Clock>,
    endpoints: &'static [&'static str],
    requests: Vec<Series>,
    stages: Vec<Series>,
    counters: Vec<AtomicU64>,
}

impl StatsRecorder {
    /// A recorder reading time from `clock`, with no request series.
    pub fn new(clock: Box<dyn Clock>) -> Self {
        StatsRecorder::with_endpoints(clock, &[])
    }

    /// A recorder that also keeps one request series per label in
    /// `endpoints`, fed by [`StatsRecorder::record_request`].
    pub fn with_endpoints(clock: Box<dyn Clock>, endpoints: &'static [&'static str]) -> Self {
        StatsRecorder {
            clock,
            endpoints,
            requests: endpoints.iter().map(|_| Series::default()).collect(),
            stages: stage::ALL.iter().map(|_| Series::default()).collect(),
            counters: counter::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one served request under `endpoints[endpoint]`; an index
    /// past the labels is ignored.
    pub fn record_request(&self, endpoint: usize, elapsed: Duration) {
        if let Some(series) = self.requests.get(endpoint) {
            series.record(elapsed.as_micros().min(u64::MAX as u128) as u64);
        }
    }

    /// Requests recorded across every endpoint.
    pub fn requests_total(&self) -> u64 {
        self.requests.iter().map(Series::count).sum()
    }

    /// Completed-span count for `name`, if it is a catalogued stage.
    pub fn spans_total(&self, name: &str) -> Option<u64> {
        stage::index_of(name).map(|i| self.stages[i].count())
    }

    /// Total for `name`, if it is a catalogued counter.
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        counter::index_of(name).map(|i| self.counters[i].load(Ordering::Relaxed))
    }

    /// Prometheus-text lines for `/metrics`: every request series (idle
    /// endpoints print their zero count), then the stages and counters
    /// that fired.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, series) in self.endpoints.iter().zip(&self.requests) {
            let label = format!("endpoint=\"{label}\"");
            series.write(&mut out, "requests_total", "latency_us", &label);
        }
        for (name, series) in stage::ALL.iter().zip(&self.stages) {
            if series.count() > 0 {
                let label = format!("stage=\"{name}\"");
                series.write(&mut out, "pipeline_spans_total", "pipeline_span_us", &label);
            }
        }
        for (name, total) in counter::ALL.iter().zip(&self.counters) {
            let n = total.load(Ordering::Relaxed);
            if n > 0 {
                out.push_str(&format!("pipeline_counter_total{{counter=\"{name}\"}} {n}\n"));
            }
        }
        out
    }
}

impl Recorder for StatsRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &'static str, _parent: SpanId) -> SpanId {
        let Some(idx) = stage::index_of(name) else {
            return SpanId::NONE;
        };
        let start = self.clock.now_ns() & START_MASK;
        SpanId(((idx as u64) << 56) | start)
    }

    fn span_end(&self, id: SpanId) {
        if id.is_none() {
            return;
        }
        let idx = (id.0 >> 56) as usize;
        let Some(series) = self.stages.get(idx) else {
            return;
        };
        let start = id.0 & START_MASK;
        let elapsed_ns = (self.clock.now_ns() & START_MASK).saturating_sub(start);
        series.record(elapsed_ns / 1_000);
    }

    fn count(&self, _span: SpanId, name: &'static str, n: u64) {
        if let Some(idx) = counter::index_of(name) {
            self.counters[idx].fetch_add(n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;
    use crate::{count, scoped, span, Ctx};

    #[test]
    fn aggregates_span_counts_times_and_counters() {
        // Tick of 3µs per clock reading: each span lasts exactly 3µs.
        let rec = StatsRecorder::new(Box::new(FakeClock::new(3_000)));
        scoped(Ctx::new(&rec), || {
            for _ in 0..4 {
                span(stage::CONVERT, || count(counter::TOKENS_SPLIT, 5));
            }
        });
        assert_eq!(rec.spans_total(stage::CONVERT), Some(4));
        assert_eq!(rec.counter_total(counter::TOKENS_SPLIT), Some(20));
        let text = rec.render();
        assert!(text.contains("pipeline_spans_total{stage=\"convert\"} 4"));
        assert!(text.contains("pipeline_span_us_sum{stage=\"convert\"} 12"));
        assert!(text.contains("pipeline_span_us_bucket{stage=\"convert\",le=\"4\"} 4"));
        assert!(text.contains("pipeline_span_us_bucket{stage=\"convert\",le=\"+Inf\"} 4"));
        assert!(text.contains("pipeline_counter_total{counter=\"tokens_split\"} 20"));
    }

    #[test]
    fn silent_stages_and_counters_are_elided() {
        let rec = StatsRecorder::new(Box::new(FakeClock::new(1_000)));
        scoped(Ctx::new(&rec), || span(stage::MINE, || {}));
        let text = rec.render();
        assert!(text.contains("stage=\"mine-frequent-paths\""));
        assert!(!text.contains("stage=\"convert\""));
        assert!(!text.contains("pipeline_counter_total"));
    }

    #[test]
    fn open_spans_are_not_counted_until_ended() {
        let rec = StatsRecorder::new(Box::new(FakeClock::new(1_000)));
        scoped(Ctx::new(&rec), || {
            span(stage::REQUEST, || {
                assert_eq!(rec.spans_total(stage::REQUEST), Some(0));
            })
        });
        assert_eq!(rec.spans_total(stage::REQUEST), Some(1));
    }

    const ENDPOINTS: &[&str] = &["convert", "map", "healthz"];

    #[test]
    fn record_fills_the_right_bucket() {
        let rec = StatsRecorder::with_endpoints(Box::new(FakeClock::new(1_000)), ENDPOINTS);
        rec.record_request(0, Duration::from_micros(3));
        rec.record_request(0, Duration::from_micros(100));
        rec.record_request(2, Duration::from_micros(0));
        rec.record_request(ENDPOINTS.len(), Duration::from_micros(1));
        assert_eq!(rec.requests_total(), 3);
        let text = rec.render();
        assert!(text.contains("requests_total{endpoint=\"convert\"} 2"), "{text}");
        assert!(text.contains("requests_total{endpoint=\"healthz\"} 1"), "{text}");
        // Idle endpoints print their zero count and nothing else.
        assert!(text.contains("requests_total{endpoint=\"map\"} 0"), "{text}");
        assert!(!text.contains("latency_us_sum{endpoint=\"map\"}"), "{text}");
        assert!(text.contains("latency_us_sum{endpoint=\"convert\"} 103"), "{text}");
        // 3µs lands in the ≤4µs bucket; 100µs in ≤128µs.
        assert!(text.contains("latency_us_bucket{endpoint=\"convert\",le=\"4\"} 1"), "{text}");
        assert!(text.contains("latency_us_bucket{endpoint=\"convert\",le=\"128\"} 2"), "{text}");
        assert!(text.contains("latency_us_bucket{endpoint=\"convert\",le=\"+Inf\"} 2"), "{text}");
    }

    #[test]
    fn overflow_samples_write_one_inf_line_per_series() {
        // 600 s is past the last finite bound (2^29 µs, about 9 minutes):
        // a request and a span both land in the open-ended bucket.
        let rec = StatsRecorder::with_endpoints(Box::new(FakeClock::new(600_000_000_000)), ENDPOINTS);
        rec.record_request(1, Duration::from_secs(600));
        scoped(Ctx::new(&rec), || span(stage::MAP, || {}));
        let text = rec.render();
        let inf: Vec<&str> = text.lines().filter(|l| l.contains("le=\"+Inf\"")).collect();
        assert_eq!(
            inf,
            [
                "latency_us_bucket{endpoint=\"map\",le=\"+Inf\"} 1",
                "pipeline_span_us_bucket{stage=\"map-to-dtd\",le=\"+Inf\"} 1",
            ],
            "{text}"
        );
    }

    #[test]
    fn uncatalogued_stage_is_ignored() {
        let rec = StatsRecorder::new(Box::new(FakeClock::new(1_000)));
        let id = rec.span_start("not-a-stage", SpanId::NONE);
        assert!(id.is_none());
        rec.span_end(id);
        assert_eq!(rec.render(), "");
    }
}
