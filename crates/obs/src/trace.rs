//! The tracing recorder: every span is kept with its parent link,
//! timestamps from the injected clock, and any counters attributed to
//! it. Exports:
//!
//! * [`TraceRecorder::to_chrome_json`] — the chrome://tracing "trace
//!   event" format (`{"traceEvents": [{"ph": "X", ...}]}`), loadable in
//!   `chrome://tracing` or Perfetto; written by `--trace-out`.
//! * [`TraceRecorder::span_tree_json`] — a nested, deterministic span
//!   tree (stable under a fake clock) used by the golden trace test.

use crate::clock::Clock;
use crate::{counter, Recorder, SpanId};
use std::sync::Mutex;
use webre_substrate::json::Json;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Stage name (a `stage::*` constant).
    pub name: &'static str,
    /// Index of the parent span in the recorder's span list.
    pub parent: Option<usize>,
    /// Start timestamp (clock nanoseconds).
    pub start_ns: u64,
    /// End timestamp; `None` while the span is still open.
    pub end_ns: Option<u64>,
    /// Counters attributed to this span, in first-touch order.
    pub counters: Vec<(&'static str, u64)>,
}

/// Records every span and counter; see the module docs for exports.
pub struct TraceRecorder {
    clock: Box<dyn Clock>,
    inner: Mutex<Vec<SpanRec>>,
}

impl TraceRecorder {
    /// A recorder reading time from `clock`.
    pub fn new(clock: Box<dyn Clock>) -> Self {
        TraceRecorder {
            clock,
            inner: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A snapshot of all recorded spans, in start order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().clone()
    }

    /// chrome://tracing trace-event JSON. Each span becomes a complete
    /// (`"ph": "X"`) event; `tid` groups spans by root ancestor so
    /// concurrent span trees (e.g. served requests) land on separate
    /// tracks, numbered from 1 in root start order.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.lock();
        // A parent always starts before its children, so one pass in
        // start order sees every parent's track before its children.
        let mut tracks: Vec<usize> = Vec::with_capacity(spans.len());
        let mut roots = 0;
        for s in spans.iter() {
            let track = match s.parent {
                Some(p) => tracks[p],
                None => {
                    roots += 1;
                    roots
                }
            };
            tracks.push(track);
        }
        let events: Vec<Json> = spans
            .iter()
            .zip(&tracks)
            .map(|(s, &track)| {
                let end = s.end_ns.unwrap_or(s.start_ns);
                let args = Json::obj(
                    s.counters
                        .iter()
                        .map(|(name, n)| (*name, Json::Num(*n as f64))),
                );
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(s.start_ns as f64 / 1_000.0)),
                    ("dur", Json::Num(end.saturating_sub(s.start_ns) as f64 / 1_000.0)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(track as f64)),
                    ("args", args),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))]).to_string_pretty()
    }

    /// A nested span-tree JSON document: each node carries `name`,
    /// `start_us`, `dur_us`, `counters`, `children`. Deterministic when
    /// the recorder runs under a fake clock, which is what the golden
    /// trace test commits.
    pub fn span_tree_json(&self) -> String {
        let spans = self.lock();
        fn node(spans: &[SpanRec], children: &[Vec<usize>], i: usize) -> Json {
            let s = &spans[i];
            let end = s.end_ns.unwrap_or(s.start_ns);
            let kids: Vec<Json> = children[i].iter().map(|&c| node(spans, children, c)).collect();
            Json::obj([
                ("name", Json::Str(s.name.to_string())),
                ("start_us", Json::Num(s.start_ns as f64 / 1_000.0)),
                ("dur_us", Json::Num(end.saturating_sub(s.start_ns) as f64 / 1_000.0)),
                (
                    "counters",
                    Json::obj(
                        s.counters
                            .iter()
                            .map(|(name, n)| (*name, Json::Num(*n as f64))),
                    ),
                ),
                ("children", Json::Arr(kids)),
            ])
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let roots: Vec<Json> = roots.iter().map(|&i| node(&spans, &children, i)).collect();
        Json::obj([("spans", Json::Arr(roots))]).to_string_pretty()
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId {
        let start_ns = self.clock.now_ns();
        let mut spans = self.lock();
        spans.push(SpanRec {
            name,
            parent: if parent.is_none() {
                None
            } else {
                Some(parent.0 as usize)
            },
            start_ns,
            end_ns: None,
            counters: Vec::new(),
        });
        SpanId(spans.len() as u64 - 1)
    }

    fn span_end(&self, id: SpanId) {
        if id.is_none() {
            return;
        }
        let end_ns = self.clock.now_ns();
        let mut spans = self.lock();
        if let Some(span) = spans.get_mut(id.0 as usize) {
            span.end_ns = Some(end_ns);
        }
    }

    fn count(&self, span: SpanId, name: &'static str, n: u64) {
        debug_assert!(counter::index_of(name).is_some(), "uncatalogued counter {name}");
        let mut spans = self.lock();
        let Some(rec) = (if span.is_none() {
            None
        } else {
            spans.get_mut(span.0 as usize)
        }) else {
            return;
        };
        if let Some(entry) = rec.counters.iter_mut().find(|(k, _)| *k == name) {
            entry.1 += n;
        } else {
            rec.counters.push((name, n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;
    use crate::{count, scoped, span, stage, Ctx};

    fn sample() -> TraceRecorder {
        let rec = TraceRecorder::new(Box::new(FakeClock::new(1_000)));
        scoped(Ctx::new(&rec), || {
            span(stage::CONVERT, || {
                span(stage::TOKENIZATION, || {
                    count(counter::TOKENS_SPLIT, 4);
                    count(counter::TOKENS_SPLIT, 2);
                });
                // A second root, opened while the first is still open.
                scoped(Ctx::new(&rec), || span(stage::MINE, || {}));
            })
        });
        rec
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let rec = sample();
        let doc = Json::parse(&rec.to_chrome_json()).expect("chrome export parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        for ev in events {
            assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
            assert_eq!(ev.get("pid").and_then(Json::as_f64), Some(1.0));
            let name = ev.get("name").and_then(Json::as_str).unwrap();
            assert!(stage::index_of(name).is_some(), "uncatalogued stage {name}");
        }
        // Both roots get distinct tracks; the child shares its parent's.
        let tids: Vec<f64> = events
            .iter()
            .map(|e| e.get("tid").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(tids, vec![1.0, 1.0, 2.0]);

        // Two root trees whose spans interleave in start order (two
        // workers): every span takes its own root's track, and tracks
        // number the roots in start order.
        let rec = TraceRecorder::new(Box::new(FakeClock::new(1_000)));
        let a = rec.span_start(stage::REQUEST, SpanId::NONE);
        let b = rec.span_start(stage::REQUEST, SpanId::NONE);
        let b_convert = rec.span_start(stage::CONVERT, b);
        let a_convert = rec.span_start(stage::CONVERT, a);
        rec.span_start(stage::TIDY, b_convert);
        rec.span_start(stage::TIDY, a_convert);
        let c = rec.span_start(stage::REQUEST, SpanId::NONE);
        rec.span_start(stage::TOKENIZATION, b_convert);
        rec.span_start(stage::CONVERT, c);
        let doc = Json::parse(&rec.to_chrome_json()).unwrap();
        let tids: Vec<f64> = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| e.get("tid").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(tids, vec![1.0, 2.0, 2.0, 1.0, 2.0, 1.0, 3.0, 2.0, 3.0]);
    }

    #[test]
    fn counters_merge_per_span_and_survive_export() {
        let rec = sample();
        let spans = rec.spans();
        assert_eq!(spans[1].counters, vec![(counter::TOKENS_SPLIT, 6)]);
        let doc = Json::parse(&rec.to_chrome_json()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let tok = &events[1];
        assert_eq!(
            tok.get("args")
                .and_then(|a| a.get(counter::TOKENS_SPLIT))
                .and_then(Json::as_f64),
            Some(6.0)
        );
    }

    #[test]
    fn span_tree_nests_children_under_parents_deterministically() {
        let a = sample().span_tree_json();
        let b = sample().span_tree_json();
        assert_eq!(a, b, "fake-clock traces must be byte-identical");
        let doc = Json::parse(&a).unwrap();
        let roots = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].get("name").and_then(Json::as_str), Some(stage::CONVERT));
        let children = roots[0].get("children").and_then(Json::as_arr).unwrap();
        assert_eq!(children.len(), 1);
        assert_eq!(
            children[0].get("name").and_then(Json::as_str),
            Some(stage::TOKENIZATION)
        );
    }

    #[test]
    fn fake_clock_timestamps_are_exact() {
        let rec = sample();
        let spans = rec.spans();
        // Clock readings in order: convert start, tok start, tok end,
        // mine start, mine end, convert end — 1µs apart.
        assert_eq!(spans[0].start_ns, 0);
        assert_eq!(spans[1].start_ns, 1_000);
        assert_eq!(spans[1].end_ns, Some(2_000));
        assert_eq!(spans[2].start_ns, 3_000);
        assert_eq!(spans[2].end_ns, Some(4_000));
        assert_eq!(spans[0].end_ns, Some(5_000));
    }
}
