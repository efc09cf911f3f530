//! Golden trace test: the `resume_clean` fixture is converted under a
//! trace recorder driven by a deterministic fake clock, and the resulting
//! span tree is compared byte-for-byte against a committed expectation.
//!
//! Because the fake clock ticks a fixed 1µs per reading and the pipeline
//! is deterministic, the exported tree — span names, nesting, counter
//! values, and every timestamp — is exactly reproducible. Any change to
//! the rule order, the spans a stage opens, or the counters it reports
//! shows up as a diff in `tests/fixtures/resume_clean.trace.json`.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! WEBRE_UPDATE_GOLDEN=1 cargo test -q --test golden_trace
//! ```

use std::fs;
use std::path::PathBuf;

use webre::obs::clock::FakeClock;
use webre::obs::trace::TraceRecorder;
use webre::obs::{scoped, stage, Ctx};
use webre::Pipeline;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn update_golden() -> bool {
    std::env::var_os("WEBRE_UPDATE_GOLDEN").is_some_and(|v| !v.is_empty())
}

fn assert_golden(name: &str, actual: &str) {
    let path = fixture_dir().join(name);
    if update_golden() {
        fs::write(&path, actual).unwrap_or_else(|e| panic!("cannot write {name}: {e}"));
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {name} ({e}); run WEBRE_UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        actual, expected,
        "golden mismatch for {name}; if intentional, regenerate with \
         WEBRE_UPDATE_GOLDEN=1 cargo test --test golden_trace"
    );
}

/// Converts the `resume_clean` fixture under a fake-clock trace recorder
/// and returns the recorder for inspection.
fn traced_conversion() -> TraceRecorder {
    let html = fs::read_to_string(fixture_dir().join("resume_clean.html"))
        .expect("resume_clean fixture exists");
    let recorder = TraceRecorder::new(Box::new(FakeClock::new(1_000)));
    let pipeline = Pipeline::resume_domain();
    scoped(Ctx::new(&recorder), || pipeline.convert_html(&html));
    recorder
}

#[test]
fn resume_clean_span_tree_matches_golden() {
    assert_golden("resume_clean.trace.json", &traced_conversion().span_tree_json());
}

#[test]
fn resume_clean_trace_is_reproducible_and_well_formed() {
    let (a, b) = (traced_conversion(), traced_conversion());
    assert_eq!(
        a.span_tree_json(),
        b.span_tree_json(),
        "fake-clock traces must be byte-identical across runs"
    );
    let spans = a.spans();
    // One conversion: a single root span with tidy and the four
    // restructuring rules nested directly under it, in rule order.
    assert_eq!(spans[0].name, stage::CONVERT);
    assert!(spans[0].parent.is_none());
    let children: Vec<&str> = spans
        .iter()
        .filter(|s| s.parent == Some(0))
        .map(|s| s.name)
        .collect();
    assert_eq!(
        children,
        vec![
            stage::TIDY,
            stage::TOKENIZATION,
            stage::CONCEPT_INSTANCE,
            stage::GROUPING,
            stage::CONSOLIDATION,
        ]
    );
    for span in &spans {
        assert!(span.end_ns.is_some(), "unclosed span {}", span.name);
        assert!(
            stage::index_of(span.name).is_some(),
            "uncatalogued stage {}",
            span.name
        );
    }
}
