//! The aggregating recorder behind the serving layer's extended
//! `/metrics`: lock-free per-stage span counts, total time, and
//! power-of-two latency histograms, plus global counter totals.
//!
//! Span ids pack the stage index into the top byte and the start
//! timestamp into the low 56 bits, so `span_end` needs no lookup table
//! and the recorder takes no locks on the hot path. Spans are counted
//! at `span_end`, which gives the serve consistency test an exact
//! invariant: a `/metrics` request that is *in flight* appears in
//! neither its own `pipeline_spans_total{stage="request"}` line nor
//! `requests_total` (both are bumped after the response is built).

use crate::clock::Clock;
use crate::hist::{upper_bound, PowHistogram};
use crate::{counter, stage, Recorder, SpanId};
use std::sync::atomic::{AtomicU64, Ordering};

const START_MASK: u64 = (1 << 56) - 1;

#[derive(Default)]
struct StageAgg {
    spans: AtomicU64,
    total_us: AtomicU64,
    hist: PowHistogram,
}

/// Lock-free per-stage aggregates over the closed stage catalogue.
pub struct StatsRecorder {
    clock: Box<dyn Clock>,
    stages: Vec<StageAgg>,
    counters: Vec<AtomicU64>,
}

impl StatsRecorder {
    /// A recorder reading time from `clock`.
    pub fn new(clock: Box<dyn Clock>) -> Self {
        StatsRecorder {
            clock,
            stages: stage::ALL.iter().map(|_| StageAgg::default()).collect(),
            counters: counter::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Completed-span count for `name`, if it is a catalogued stage.
    pub fn spans_total(&self, name: &str) -> Option<u64> {
        stage::index_of(name).map(|i| self.stages[i].spans.load(Ordering::Relaxed))
    }

    /// Total for `name`, if it is a catalogued counter.
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        counter::index_of(name).map(|i| self.counters[i].load(Ordering::Relaxed))
    }

    /// Prometheus-text lines for the extended `/metrics`. Stages and
    /// counters that never fired are elided; histogram buckets render
    /// cumulatively with empty prefixes skipped and `+Inf` always
    /// present, matching the per-endpoint latency series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, name) in stage::ALL.iter().enumerate() {
            let agg = &self.stages[i];
            let spans = agg.spans.load(Ordering::Relaxed);
            if spans == 0 {
                continue;
            }
            out.push_str(&format!("pipeline_spans_total{{stage=\"{name}\"}} {spans}\n"));
            out.push_str(&format!(
                "pipeline_span_us_sum{{stage=\"{name}\"}} {}\n",
                agg.total_us.load(Ordering::Relaxed)
            ));
            let counts = agg.hist.counts();
            let mut cumulative = 0u64;
            for (b, n) in counts.iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                cumulative += n;
                if let Some(le) = upper_bound(b) {
                    out.push_str(&format!(
                        "pipeline_span_us_bucket{{stage=\"{name}\",le=\"{le}\"}} {cumulative}\n"
                    ));
                }
            }
            out.push_str(&format!(
                "pipeline_span_us_bucket{{stage=\"{name}\",le=\"+Inf\"}} {cumulative}\n"
            ));
        }
        for (i, name) in counter::ALL.iter().enumerate() {
            let n = self.counters[i].load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            out.push_str(&format!("pipeline_counter_total{{counter=\"{name}\"}} {n}\n"));
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
        let Some(agg) = self.stages.get(idx) else {
            return;
        };
        let start = id.0 & START_MASK;
        let elapsed_ns = (self.clock.now_ns() & START_MASK).saturating_sub(start);
        let us = elapsed_ns / 1_000;
        agg.spans.fetch_add(1, Ordering::Relaxed);
        agg.total_us.fetch_add(us, Ordering::Relaxed);
        agg.hist.record(us);
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

    #[test]
    fn uncatalogued_stage_is_ignored() {
        let rec = StatsRecorder::new(Box::new(FakeClock::new(1_000)));
        let id = rec.span_start("not-a-stage", SpanId::NONE);
        assert!(id.is_none());
        rec.span_end(id);
        assert_eq!(rec.render(), "");
    }
}
