//! Structured observability for the webre pipeline: hierarchical spans,
//! per-stage counters, power-of-two latency histograms and a
//! chrome://tracing-compatible export.
//!
//! # Design
//!
//! Instrumentation points never talk to a concrete backend, and no
//! pipeline function takes an observability argument. The recorder is
//! **ambient**: [`scoped`] installs a [`Ctx`] — a `(recorder, parent
//! span)` pair — in a thread-local for the duration of a closure, and
//! the pipeline records through the free functions [`span`] and
//! [`count`], which read that thread-local. Each pipeline operation
//! therefore has exactly one function, instrumented or not depending on
//! what its caller installed:
//!
//! * nothing installed (the default): each [`span`] / [`count`] call is
//!   one thread-local read and records nothing; the instrumented code
//!   paths stay byte-identical to the uninstrumented ones — a contract
//!   the `trace-noop` differential oracle in `webre-check` holds over
//!   fuzzed corpora.
//! * [`trace::TraceRecorder`]: records every span with timestamps from an
//!   injectable [`clock::Clock`], exportable as chrome://tracing JSON
//!   (`webre run --trace-out`), a deterministic span-tree (the golden
//!   trace test uses a [`clock::FakeClock`]), or a per-stage summary
//!   (`webre stats`).
//! * [`stats::StatsRecorder`]: lock-free per-stage aggregates (span
//!   counts, total time, power-of-two histograms) for the serving
//!   layer's extended `/metrics`.
//! * [`TeeRecorder`]: fans out to two recorders, so `webre serve
//!   --trace-out` can feed `/metrics` aggregates *and* a trace file.
//!
//! The context is per thread. Code that fans work out to scoped threads
//! passes the caller's context along with [`with_current`] and
//! re-installs it in each worker with [`scoped`], so the workers' spans
//! nest under the caller's span.
//!
//! Time never comes from the instrumented crates themselves: the pure
//! pipeline crates (`convert`, `schema`, …) stay free of
//! `Instant`/`SystemTime` (the `no-wall-clock` lint rule enforces this,
//! and covers this crate too) — the clock is injected into the recorder
//! at construction.
//!
//! # Stage and counter catalogue
//!
//! Span names come from [`stage`] and counter names from [`counter`];
//! both are closed catalogues (`ALL` arrays) so exports can be validated
//! against them — the verify-script trace smoke gate cross-checks every
//! span name in a `--trace-out` file against [`stage::ALL`].

use std::cell::Cell;

pub mod clock;
pub mod hist;
pub mod stats;
pub mod trace;

/// Span names: one per pipeline stage. Instrumentation must use these
/// constants (never ad-hoc strings) so traces stay machine-checkable.
pub mod stage {
    /// Whole-document conversion (parent of the four rule spans).
    pub const CONVERT: &str = "convert";
    /// The HTML-Tidy-like cleanup pass.
    pub const TIDY: &str = "tidy";
    /// Restructuring rule 1: delimiter tokenization.
    pub const TOKENIZATION: &str = "tokenization-rule";
    /// Restructuring rule 2: concept instance identification.
    pub const CONCEPT_INSTANCE: &str = "concept-instance-rule";
    /// Restructuring rule 3: grouping.
    pub const GROUPING: &str = "grouping-rule";
    /// Restructuring rule 4: consolidation.
    pub const CONSOLIDATION: &str = "consolidation-rule";
    /// Label-path extraction over a converted corpus.
    pub const EXTRACT_PATHS: &str = "extract-paths";
    /// Anti-monotone frequent-path mining.
    pub const MINE: &str = "mine-frequent-paths";
    /// DTD derivation (ordering + repetition rules).
    pub const DERIVE_DTD: &str = "derive-dtd";
    /// Mapping one document onto the derived DTD.
    pub const MAP: &str = "map-to-dtd";
    /// The admissible lower-bound filter tier of a planned mapping
    /// (profiles + histogram/structural bounds, no dynamic program).
    pub const MAP_FILTER: &str = "map-filter";
    /// The exact Zhang–Shasha tier of a planned mapping (edit-script DP).
    pub const MAP_EXACT: &str = "map-exact";
    /// One served HTTP request (root span in the serving layer).
    pub const REQUEST: &str = "request";

    /// The closed catalogue, in pipeline order.
    pub const ALL: &[&str] = &[
        CONVERT,
        TIDY,
        TOKENIZATION,
        CONCEPT_INSTANCE,
        GROUPING,
        CONSOLIDATION,
        EXTRACT_PATHS,
        MINE,
        DERIVE_DTD,
        MAP,
        MAP_FILTER,
        MAP_EXACT,
        REQUEST,
    ];

    /// Index of `name` in [`ALL`], if it is a catalogued stage.
    pub fn index_of(name: &str) -> Option<usize> {
        ALL.iter().position(|s| *s == name)
    }
}

/// Counter names: one per rule-firing statistic.
pub mod counter {
    /// Tokens produced by the tokenization rule.
    pub const TOKENS_SPLIT: &str = "tokens_split";
    /// Concept nodes created by the concept instance rule.
    pub const CONCEPTS_MATCHED: &str = "concepts_matched";
    /// GROUP nodes sunk by the grouping rule.
    pub const GROUPS_SUNK: &str = "groups_sunk";
    /// Structural (HTML/GROUP) nodes eliminated by consolidation.
    pub const NODES_CONSOLIDATED: &str = "nodes_consolidated";
    /// Candidate paths tested by the miner.
    pub const PATHS_EXPLORED: &str = "paths_explored";
    /// Candidate paths accepted as frequent.
    pub const PATHS_ACCEPTED: &str = "paths_accepted";
    /// Candidates cut by anti-monotone support pruning (not extended).
    pub const PATHS_PRUNED: &str = "paths_pruned";
    /// Planned mappings resolved by the conformant fast path (label-tree
    /// equality after transform; no dynamic program).
    pub const MAP_CONFORMANT: &str = "map_conformant";
    /// Planned mappings rejected because the admissible lower bound (or
    /// the exact cost, with the filter off) exceeded the budget.
    pub const MAP_REJECTED: &str = "map_rejected";
    /// Planned mappings that ran the exact Zhang–Shasha tier.
    pub const MAP_EXACT: &str = "map_exact";

    /// The closed catalogue, in pipeline order.
    pub const ALL: &[&str] = &[
        TOKENS_SPLIT,
        CONCEPTS_MATCHED,
        GROUPS_SUNK,
        NODES_CONSOLIDATED,
        PATHS_EXPLORED,
        PATHS_ACCEPTED,
        PATHS_PRUNED,
        MAP_CONFORMANT,
        MAP_REJECTED,
        MAP_EXACT,
    ];

    /// Index of `name` in [`ALL`], if it is a catalogued counter.
    pub fn index_of(name: &str) -> Option<usize> {
        ALL.iter().position(|s| *s == name)
    }
}

/// An opaque span handle. Meaning is recorder-private (the trace recorder
/// uses indices, the stats recorder packs stage + start time); `NONE`
/// marks "no span": the parent of a root span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (root contexts, uncatalogued stages).
    pub const NONE: SpanId = SpanId(u64::MAX);

    /// Whether this is the absent span.
    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }
}

/// The recorder interface. Object-safe on purpose: [`scoped`] installs a
/// `&dyn Recorder` chosen by the caller, so the pipeline crates never
/// name a concrete backend.
pub trait Recorder: Send + Sync {
    /// `false` means every other method is a no-op; a context built over
    /// such a recorder records nothing (see [`Ctx::new`]).
    fn enabled(&self) -> bool;
    /// Opens a span named `name` (a [`stage`] constant) under `parent`.
    fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId;
    /// Closes a span returned by [`Recorder::span_start`].
    fn span_end(&self, id: SpanId);
    /// Adds `n` to the counter `name` (a [`counter`] constant),
    /// attributed to `span` where the recorder keeps per-span counters.
    fn count(&self, span: SpanId, name: &'static str, n: u64);
}

/// An instrumentation context: the recorder plus the span new spans nest
/// under. `Copy`, three words. Build one with [`Ctx::new`] and install
/// it with [`scoped`].
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    /// `None` records nothing.
    recorder: Option<&'a dyn Recorder>,
    parent: SpanId,
}

impl<'a> Ctx<'a> {
    /// A root context over `recorder`; one over a disabled recorder
    /// records nothing.
    pub fn new(recorder: &'a dyn Recorder) -> Ctx<'a> {
        Ctx {
            recorder: recorder.enabled().then_some(recorder),
            parent: SpanId::NONE,
        }
    }
}

/// The context of a thread nothing has been installed on.
const NOTHING: Ctx<'static> = Ctx {
    recorder: None,
    parent: SpanId::NONE,
};

thread_local! {
    /// The innermost context installed on this thread. Its recorder
    /// borrow really lives only as long as the [`scoped`] call that
    /// installed it.
    static CURRENT: Cell<Ctx<'static>> = const { Cell::new(NOTHING) };
}

/// Puts back the context a [`scoped`] call replaced.
struct Restore(Ctx<'static>);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT.with(|current| current.set(self.0));
    }
}

/// Runs `f` with `ctx` as this thread's current context. The previous
/// context comes back when `f` returns or unwinds.
pub fn scoped<R>(ctx: Ctx<'_>, f: impl FnOnce() -> R) -> R {
    // SAFETY: only the lifetime changes. The erased borrow is never used
    // after it ends, because no context outlives the `scoped` call that
    // installed it:
    // - `_restore` takes `ctx` out of `CURRENT` when this call returns
    //   or unwinds, inside the borrow `ctx` carries;
    // - contexts installed inside `f` (by `span` or a nested `scoped`)
    //   are taken out before `f` returns, so installs nest LIFO;
    // - `span` and `count` use the context they read only within their
    //   own call, and `with_current` lends it to a closure generic over
    //   its lifetime, so no copy of it escapes.
    let ctx = unsafe { std::mem::transmute::<Ctx<'_>, Ctx<'static>>(ctx) };
    let _restore = Restore(CURRENT.with(|current| current.replace(ctx)));
    f()
}

/// Runs `f` under a child span `name` (a [`stage`] constant) of the
/// current context; spans opened inside `f` nest under it. The span
/// ends when `f` returns or unwinds. With nothing installed this is one
/// thread-local read.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let current = CURRENT.with(Cell::get);
    let Some(recorder) = current.recorder else {
        return f();
    };
    let id = recorder.span_start(name, current.parent);
    let _end = EndSpan { recorder, id };
    let child = Ctx {
        recorder: Some(recorder),
        parent: id,
    };
    scoped(child, f)
}

/// Ends a span [`span`] opened.
struct EndSpan {
    recorder: &'static dyn Recorder,
    id: SpanId,
}

impl Drop for EndSpan {
    fn drop(&mut self) {
        self.recorder.span_end(self.id);
    }
}

/// Adds `n` to counter `name` (a [`counter`] constant), attributed to
/// the current span. With nothing installed this is one thread-local
/// read.
pub fn count(name: &'static str, n: u64) {
    let current = CURRENT.with(Cell::get);
    if let Some(recorder) = current.recorder {
        recorder.count(current.parent, name, n);
    }
}

/// Lends `f` the current context, so it can re-install it with
/// [`scoped`] on the threads it spawns and joins (`std::thread::scope`):
/// their spans then nest under the current span.
pub fn with_current<R>(f: impl FnOnce(Ctx<'_>) -> R) -> R {
    f(CURRENT.with(Cell::get))
}

/// Fans every call out to two recorders (aggregates + trace, for
/// `webre serve --trace-out`). Span ids are indices into a pair table;
/// the table is mutex-guarded, which is acceptable because the tee only
/// runs in explicit tracing mode.
pub struct TeeRecorder {
    a: std::sync::Arc<dyn Recorder>,
    b: std::sync::Arc<dyn Recorder>,
    pairs: std::sync::Mutex<Vec<(SpanId, SpanId)>>,
}

impl TeeRecorder {
    /// Tees `a` and `b`.
    pub fn new(a: std::sync::Arc<dyn Recorder>, b: std::sync::Arc<dyn Recorder>) -> Self {
        TeeRecorder {
            a,
            b,
            pairs: std::sync::Mutex::new(Vec::new()),
        }
    }

    fn pairs(&self) -> std::sync::MutexGuard<'_, Vec<(SpanId, SpanId)>> {
        self.pairs.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Recorder for TeeRecorder {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId {
        let (pa, pb) = if parent.is_none() {
            (SpanId::NONE, SpanId::NONE)
        } else {
            self.pairs()
                .get(parent.0 as usize)
                .copied()
                .unwrap_or((SpanId::NONE, SpanId::NONE))
        };
        let ida = self.a.span_start(name, pa);
        let idb = self.b.span_start(name, pb);
        let mut pairs = self.pairs();
        pairs.push((ida, idb));
        SpanId(pairs.len() as u64 - 1)
    }

    fn span_end(&self, id: SpanId) {
        if id.is_none() {
            return;
        }
        let Some((ida, idb)) = self.pairs().get(id.0 as usize).copied() else {
            return;
        };
        self.a.span_end(ida);
        self.b.span_end(idb);
    }

    fn count(&self, span: SpanId, name: &'static str, n: u64) {
        let (sa, sb) = if span.is_none() {
            (SpanId::NONE, SpanId::NONE)
        } else {
            self.pairs()
                .get(span.0 as usize)
                .copied()
                .unwrap_or((SpanId::NONE, SpanId::NONE))
        };
        self.a.count(sa, name, n);
        self.b.count(sb, name, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;
    use crate::trace::TraceRecorder;

    #[test]
    fn catalogues_are_duplicate_free_and_indexable() {
        for list in [stage::ALL, counter::ALL] {
            let mut names = list.to_vec();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), list.len());
        }
        for (i, name) in stage::ALL.iter().enumerate() {
            assert_eq!(stage::index_of(name), Some(i));
        }
        for (i, name) in counter::ALL.iter().enumerate() {
            assert_eq!(counter::index_of(name), Some(i));
        }
        assert_eq!(stage::index_of("no-such-stage"), None);
        assert_eq!(counter::index_of("no_such_counter"), None);
    }

    #[test]
    fn disabled_ctx_records_nothing_and_costs_no_spans() {
        // Nothing installed: spans still run their closure, nothing is
        // recorded anywhere, and no context leaks out.
        let value = span(stage::CONVERT, || {
            count(counter::TOKENS_SPLIT, 3);
            7
        });
        assert_eq!(value, 7);
        assert!(CURRENT.with(Cell::get).recorder.is_none());
        // A disabled recorder installs nothing either.
        struct Off;
        impl Recorder for Off {
            fn enabled(&self) -> bool {
                false
            }
            fn span_start(&self, _: &'static str, _: SpanId) -> SpanId {
                panic!("disabled recorder asked to open a span")
            }
            fn span_end(&self, _: SpanId) {}
            fn count(&self, _: SpanId, _: &'static str, _: u64) {
                panic!("disabled recorder asked to count")
            }
        }
        scoped(Ctx::new(&Off), || {
            span(stage::MINE, || count(counter::PATHS_EXPLORED, 1));
        });
    }

    #[test]
    fn scope_nesting_threads_parents() {
        let recorder = TraceRecorder::new(Box::new(FakeClock::new(1_000)));
        scoped(Ctx::new(&recorder), || {
            span(stage::CONVERT, || {
                span(stage::TOKENIZATION, || count(counter::TOKENS_SPLIT, 2));
            });
        });
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, stage::CONVERT);
        assert_eq!(spans[1].name, stage::TOKENIZATION);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].counters, vec![(counter::TOKENS_SPLIT, 2)]);
        assert!(spans.iter().all(|s| s.end_ns.is_some()));
    }

    #[test]
    fn unwinding_restores_the_context() {
        // A serve worker after a handler panic: the panic unwinds out of
        // `scoped(a, …)` and is caught inside `scoped(b, …)`.
        let a = TraceRecorder::new(Box::new(FakeClock::new(1_000)));
        let b = TraceRecorder::new(Box::new(FakeClock::new(1_000)));
        scoped(Ctx::new(&b), || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scoped(Ctx::new(&a), || span(stage::REQUEST, || panic!("handler panicked")))
            }));
            assert!(caught.is_err());
            span(stage::MINE, || count(counter::PATHS_EXPLORED, 1));
        });
        span(stage::DERIVE_DTD, || count(counter::PATHS_ACCEPTED, 1));
        assert!(CURRENT.with(Cell::get).recorder.is_none());
        let in_a = a.spans();
        assert_eq!(in_a.len(), 1);
        assert_eq!(in_a[0].name, stage::REQUEST);
        assert!(in_a[0].end_ns.is_some(), "unwinding ends the span");
        let in_b = b.spans();
        assert_eq!(in_b.len(), 1);
        assert_eq!(in_b[0].name, stage::MINE);
        assert_eq!(in_b[0].parent, None);
        assert_eq!(in_b[0].counters, vec![(counter::PATHS_EXPLORED, 1)]);
    }

    #[test]
    fn tee_mirrors_spans_and_counters_into_both_recorders() {
        use std::sync::Arc;
        let a = Arc::new(TraceRecorder::new(Box::new(FakeClock::new(1_000))));
        let b = Arc::new(TraceRecorder::new(Box::new(FakeClock::new(5))));
        let tee = TeeRecorder::new(
            Arc::clone(&a) as Arc<dyn Recorder>,
            Arc::clone(&b) as Arc<dyn Recorder>,
        );
        scoped(Ctx::new(&tee), || {
            span(stage::MINE, || {
                count(counter::PATHS_EXPLORED, 7);
                span(stage::DERIVE_DTD, || {});
            })
        });
        for rec in [&a, &b] {
            let spans = rec.spans();
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[0].name, stage::MINE);
            assert_eq!(spans[0].counters, vec![(counter::PATHS_EXPLORED, 7)]);
            assert_eq!(spans[1].parent, Some(0));
            assert!(spans.iter().all(|s| s.end_ns.is_some()));
        }
    }
}
