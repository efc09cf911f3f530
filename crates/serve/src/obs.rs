//! The serving layer's observability wiring.
//!
//! Every server carries an [`ObsLayer`]: a [`StatsRecorder`] feeding the
//! extended `/metrics` (per-stage span counts, latency histograms, rule
//! counters), optionally teed into a [`TraceRecorder`] when the server
//! was started with `--trace-out`. Workers open one `request` span per
//! served request; the pipeline stages called by the handlers nest under
//! it.

use std::sync::Arc;
use webre_obs::clock::MonotonicClock;
use webre_obs::stats::StatsRecorder;
use webre_obs::trace::TraceRecorder;
use webre_obs::{Recorder, TeeRecorder};

/// The recorders a running server records into.
pub struct ObsLayer {
    stats: Arc<StatsRecorder>,
    trace: Option<Arc<TraceRecorder>>,
    recorder: Arc<dyn Recorder>,
}

impl ObsLayer {
    /// A layer aggregating into `/metrics`, additionally teeing every
    /// span into `trace` when given.
    pub fn new(trace: Option<Arc<TraceRecorder>>) -> Self {
        let stats = Arc::new(StatsRecorder::new(Box::new(MonotonicClock::new())));
        let recorder: Arc<dyn Recorder> = match &trace {
            None => Arc::clone(&stats) as Arc<dyn Recorder>,
            Some(t) => Arc::new(TeeRecorder::new(
                Arc::clone(&stats) as Arc<dyn Recorder>,
                Arc::clone(t) as Arc<dyn Recorder>,
            )),
        };
        ObsLayer {
            stats,
            trace,
            recorder,
        }
    }

    /// The recorder request handling records into.
    pub fn recorder(&self) -> &dyn Recorder {
        self.recorder.as_ref()
    }

    /// The `/metrics` aggregates.
    pub fn stats(&self) -> &StatsRecorder {
        &self.stats
    }

    /// The trace recorder, when the server is tracing.
    pub fn trace(&self) -> Option<&Arc<TraceRecorder>> {
        self.trace.as_ref()
    }
}

impl Default for ObsLayer {
    fn default() -> Self {
        ObsLayer::new(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_obs::{scoped, span, stage, Ctx};

    #[test]
    fn layer_without_trace_records_into_stats() {
        let layer = ObsLayer::new(None);
        scoped(Ctx::new(layer.recorder()), || span(stage::REQUEST, || {}));
        assert_eq!(layer.stats().spans_total(stage::REQUEST), Some(1));
        assert!(layer.trace().is_none());
    }

    #[test]
    fn layer_with_trace_tees_into_both() {
        use webre_obs::clock::FakeClock;
        let trace = Arc::new(TraceRecorder::new(Box::new(FakeClock::new(1_000))));
        let layer = ObsLayer::new(Some(Arc::clone(&trace)));
        scoped(Ctx::new(layer.recorder()), || span(stage::REQUEST, || {}));
        assert_eq!(layer.stats().spans_total(stage::REQUEST), Some(1));
        assert_eq!(trace.spans().len(), 1);
        assert_eq!(trace.spans()[0].name, stage::REQUEST);
    }
}
