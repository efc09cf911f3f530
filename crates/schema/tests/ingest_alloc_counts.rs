//! Allocation-count regression tests for `/corpus/xml` ingest: path
//! extraction, record encoding and the index push, per document.
//!
//! A counting `#[global_allocator]` (thread-local counters, so parallel
//! test threads do not pollute each other) pins, for one single-resume
//! and one multi-resume fixture:
//!
//! 1. the allocations (alloc + realloc) of `extract_paths` +
//!    `doc_to_record` + `CorpusIndex::push` for one document, pushed into
//!    an index that has already seen the same document — the steady state
//!    of a live corpus, where every path key is known; and
//! 2. the heap bytes one extracted document keeps live — what the index
//!    retains for each distinct shape it interns.
//!
//! Both are ceilings at 1.25× the measured value, so the headroom covers
//! allocator-pattern drift, not a path cloned into a second map again.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use webre_concepts::resume;
use webre_convert::Converter;
use webre_schema::{doc_to_record, extract_paths, CorpusIndex};
use webre_xml::{parse_xml, XmlDocument};

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        add_live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        add_live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made and bytes left live by `f` on this thread.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let calls = ALLOC_CALLS.with(Cell::get);
    let live = LIVE_BYTES.with(Cell::get);
    let out = f();
    (
        out,
        ALLOC_CALLS.with(Cell::get) - calls,
        LIVE_BYTES.with(Cell::get) - live,
    )
}

const CLEAN: &str = include_str!("../../../tests/fixtures/resume_clean.html");
const NESTED: &str = include_str!("../../../tests/fixtures/resume_nested.html");
const SOUP: &str = include_str!("../../../tests/fixtures/resume_soup.html");
const TABLE: &str = include_str!("../../../tests/fixtures/resume_table.html");

/// The markup between `<body>` and `</body>`.
fn body_of(html: &str) -> &str {
    let start = html.find("<body>").map_or(0, |p| p + "<body>".len());
    let end = html.rfind("</body>").unwrap_or(html.len());
    &html[start..end]
}

struct Fixture {
    name: &'static str,
    /// The converted document, as `/corpus/xml` parses it from its body.
    xml: XmlDocument,
    /// Exact element and distinct-path counts of the document.
    elements: usize,
    paths: usize,
    /// Ceiling on allocations for extract + encode + push.
    max_ingest_allocs: u64,
    /// Ceiling on heap bytes one extracted document keeps live.
    max_shape_bytes: i64,
}

/// The converted document of `html`, serialized and parsed back.
fn converted(html: &str) -> XmlDocument {
    let (doc, _) = Converter::new(resume::concepts()).convert_str(html);
    parse_xml(&webre_xml::to_xml(&doc)).expect("converted XML parses")
}

fn fixtures() -> Vec<Fixture> {
    // Seven copies of the four golden bodies on one ~25 KiB page: the
    // multi-resume size class of crawled listing pages.
    let mut multi = String::from("<html><head><title>Resumes</title></head><body>\n");
    for _ in 0..7 {
        for fixture in [CLEAN, NESTED, SOUP, TABLE] {
            multi.push_str(body_of(fixture));
        }
    }
    multi.push_str("</body></html>\n");
    vec![
        Fixture {
            name: "single",
            xml: converted(CLEAN),
            elements: 22,
            paths: 19,
            max_ingest_allocs: 165,
            max_shape_bytes: 5_640,
        },
        Fixture {
            name: "multi",
            xml: converted(&multi),
            elements: 617,
            paths: 51,
            max_ingest_allocs: 760,
            max_shape_bytes: 26_140,
        },
    ]
}

#[test]
fn fixture_shapes_are_pinned() {
    for f in fixtures() {
        let doc = extract_paths(&f.xml);
        assert_eq!(doc.node_count, f.elements, "{}: element count", f.name);
        assert_eq!(doc.paths().count(), f.paths, "{}: distinct paths", f.name);
    }
}

#[test]
fn ingest_allocations_stay_under_ceiling() {
    for f in fixtures() {
        let mut index = CorpusIndex::new();
        index.push(extract_paths(&f.xml));
        let (_, allocs, _) = measure(|| {
            let doc = extract_paths(&f.xml);
            let record = doc_to_record(&doc);
            index.push(doc);
            record
        });
        assert!(
            allocs <= f.max_ingest_allocs,
            "{}: extract + encode + push now makes {allocs} allocations (ceiling {})",
            f.name,
            f.max_ingest_allocs
        );
    }
}

#[test]
fn retained_shape_bytes_stay_under_ceiling() {
    for f in fixtures() {
        let (doc, _, bytes) = measure(|| extract_paths(&f.xml));
        assert!(
            bytes <= f.max_shape_bytes,
            "{}: one extracted document now keeps {bytes} heap bytes (ceiling {})",
            f.name,
            f.max_shape_bytes
        );
        drop(doc);
    }
}
