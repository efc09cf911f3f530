//! Golden-file integration tests: four fixture HTML resumes are pushed
//! end-to-end through [`webre::Pipeline`] and the produced XML plus the
//! discovered frequent-path set are compared byte-for-byte against
//! committed expectations.
//!
//! To regenerate the expectations after an intentional behavior change:
//!
//! ```text
//! WEBRE_UPDATE_GOLDEN=1 cargo test -q --test golden_fixtures
//! ```
//!
//! then review the diff under `tests/fixtures/` before committing.

use std::fs;
use std::path::PathBuf;

use webre::Pipeline;

const FIXTURES: &[&str] = &["resume_clean", "resume_table", "resume_soup", "resume_nested"];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn update_golden() -> bool {
    std::env::var_os("WEBRE_UPDATE_GOLDEN").is_some_and(|v| !v.is_empty())
}

/// Compares (or rewrites, under `WEBRE_UPDATE_GOLDEN`) one expectation file.
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
         WEBRE_UPDATE_GOLDEN=1 cargo test --test golden_fixtures"
    );
}

fn convert_fixtures() -> Vec<webre::xml::XmlDocument> {
    let pipeline = Pipeline::resume_domain();
    FIXTURES
        .iter()
        .map(|stem| {
            let html = fs::read_to_string(fixture_dir().join(format!("{stem}.html")))
                .unwrap_or_else(|e| panic!("missing fixture {stem}.html: {e}"));
            pipeline.convert_html(&html).0
        })
        .collect()
}

#[test]
fn fixture_conversions_match_golden_xml() {
    for (stem, doc) in FIXTURES.iter().zip(convert_fixtures()) {
        assert!(doc.tree.check_integrity().is_ok());
        assert_eq!(doc.root_name(), "resume");
        assert_golden(
            &format!("{stem}.expected.xml"),
            &webre::xml::to_xml_pretty(&doc),
        );
    }
}

#[test]
fn fixture_corpus_frequent_paths_match_golden() {
    let docs = convert_fixtures();
    let pipeline = Pipeline::resume_domain();
    let discovery = pipeline
        .discover_schema(&docs)
        .expect("four documents discover a schema");

    // Render the frequent-path set one slash-joined path per line, sorted,
    // so the expectation file is diff-friendly and order-independent.
    let mut lines: Vec<String> = discovery
        .schema
        .paths()
        .iter()
        .map(|p| p.join("/"))
        .collect();
    lines.sort();
    let mut rendered = lines.join("\n");
    rendered.push('\n');
    assert_golden("frequent_paths.expected.txt", &rendered);

    // The discovered schema must admit the resume-domain constraints and
    // every frequent path must actually occur in some converted document.
    let constraints = pipeline.constraints().expect("resume domain constrains");
    for path in discovery.schema.paths() {
        let as_refs: Vec<&str> = path.iter().map(String::as_str).collect();
        assert!(
            constraints.admits_path(&as_refs),
            "schema contains inadmissible path {path:?}"
        );
        assert!(
            discovery.paths.iter().any(|d| d.contains(&path)),
            "frequent path {path:?} occurs in no document"
        );
    }
}

#[test]
fn fixture_documents_conform_to_discovered_dtd() {
    let docs = convert_fixtures();
    let pipeline = Pipeline::resume_domain();
    let discovery = pipeline.discover_schema(&docs).expect("schema discovered");
    // Mapping each fixture onto the discovered DTD must succeed and yield a
    // valid document (the end-to-end contract of Section 3.4).
    let planner = webre::map::MapPlanner::default();
    for (stem, doc) in FIXTURES.iter().zip(&docs) {
        let outcome = pipeline.plan_document(doc, &discovery, &planner);
        let errors = webre::xml::validate::validate(&outcome.document, &discovery.dtd);
        assert!(
            errors.is_empty(),
            "{stem} does not conform after mapping: {errors:?}"
        );
    }
}
