//! Allocation-count regression tests for the conversion fast path.
//!
//! A counting `#[global_allocator]` (thread-local counters, so parallel
//! test threads do not pollute each other) pins, per golden fixture and
//! for one large page combining them:
//!
//! 1. the owned conversion path allocates strictly less than the
//!    borrow-and-clone path — the clone duplicated every attribute
//!    vector of every element per conversion, which is exactly the
//!    latent bug `convert_owned` fixed; and
//! 2. absolute allocation counts, for conversion alone and for the whole
//!    parse + convert + serialize pipeline, stay under pinned ceilings,
//!    so a reintroduced per-token `String` or per-node clone shows up as
//!    a test failure rather than a silent throughput regression.
//!
//! Node counts (HTML in, XML out) are pinned exactly; allocation counts
//! are pinned as ceilings because the allocator call pattern may shift
//! slightly across rustc/std versions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use webre_concepts::resume;
use webre_convert::convert::Converter;
use webre_html::parse;
use webre_xml::to_xml_pretty;

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Number of heap allocations (alloc + realloc) made by `f` on this
/// thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.with(Cell::get);
    f();
    ALLOC_CALLS.with(Cell::get) - before
}

struct Fixture {
    name: &'static str,
    html: String,
    /// Exact node count of the parsed HTML tree (including the root).
    html_nodes: usize,
    /// Exact element count of the converted XML document.
    xml_elements: usize,
    /// Ceiling on heap allocations for one owned-path conversion of an
    /// already-parsed document: 1.25x the measured count, so the headroom
    /// covers allocator-pattern drift, not algorithmic regressions.
    max_allocs: u64,
    /// Ceiling on heap allocations for parse + convert + serialize, the
    /// whole cold `/convert` pipeline; also 1.25x the measured count.
    max_pipeline_allocs: u64,
}

const CLEAN: &str = include_str!("../../../tests/fixtures/resume_clean.html");
const NESTED: &str = include_str!("../../../tests/fixtures/resume_nested.html");
const SOUP: &str = include_str!("../../../tests/fixtures/resume_soup.html");
const TABLE: &str = include_str!("../../../tests/fixtures/resume_table.html");

/// Copies of the four golden bodies in the combined page.
const COMBINED_COPIES: usize = 7;

/// Allocations the combined page cost for parse + convert + serialize
/// before the conversion path was made allocation-lean (interned tags,
/// streaming lexer, reusable rule scratch). Its ceiling must stay at or
/// below a third of this.
const COMBINED_SEED_PIPELINE_ALLOCS: u64 = 20_857;

/// The markup between `<body>` and `</body>`.
fn body_of(html: &str) -> &str {
    let start = html.find("<body>").map_or(0, |p| p + "<body>".len());
    let end = html.rfind("</body>").unwrap_or(html.len());
    &html[start..end]
}

/// A large multi-resume page (~25 KiB): the four golden fixtures' bodies,
/// repeated, inside one `<body>` — the size class that dominates
/// conversion time on crawled pages.
fn combined_page() -> String {
    let mut html = String::from("<html><head><title>Combined Resume</title></head><body>\n");
    for _ in 0..COMBINED_COPIES {
        for fixture in [CLEAN, NESTED, SOUP, TABLE] {
            html.push_str(body_of(fixture));
        }
    }
    html.push_str("</body></html>\n");
    html
}

fn fixtures() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "resume_clean",
            html: CLEAN.to_owned(),
            html_nodes: 63,
            xml_elements: 22,
            max_allocs: 222,
            max_pipeline_allocs: 288,
        },
        Fixture {
            name: "resume_nested",
            html: NESTED.to_owned(),
            html_nodes: 147,
            xml_elements: 28,
            max_allocs: 295,
            max_pipeline_allocs: 428,
        },
        Fixture {
            name: "resume_soup",
            html: SOUP.to_owned(),
            html_nodes: 60,
            xml_elements: 21,
            max_allocs: 219,
            max_pipeline_allocs: 277,
        },
        Fixture {
            name: "resume_table",
            html: TABLE.to_owned(),
            html_nodes: 97,
            xml_elements: 21,
            max_allocs: 225,
            max_pipeline_allocs: 313,
        },
        Fixture {
            name: "combined",
            html: combined_page(),
            html_nodes: 2353,
            xml_elements: 617,
            max_allocs: 4_309,
            max_pipeline_allocs: 6_120,
        },
    ]
}

#[test]
fn combined_page_is_a_large_page() {
    let html = combined_page();
    assert!(
        html.len() >= 16 * 1024,
        "combined page is {} bytes",
        html.len()
    );
    let combined = fixtures()
        .into_iter()
        .find(|f| f.name == "combined")
        .expect("combined fixture");
    assert!(
        combined.max_pipeline_allocs * 3 <= COMBINED_SEED_PIPELINE_ALLOCS,
        "the combined page's ceiling must stay within a third of the seed's allocations"
    );
}

#[test]
fn node_counts_are_pinned() {
    let converter = Converter::new(resume::concepts());
    for fixture in fixtures() {
        let html = parse(&fixture.html);
        let nodes = html.tree.descendants(html.tree.root()).count();
        let (xml, _) = converter.convert_owned(html);
        assert_eq!(
            nodes, fixture.html_nodes,
            "{}: parsed HTML node count changed",
            fixture.name
        );
        assert_eq!(
            xml.element_count(),
            fixture.xml_elements,
            "{}: converted XML element count changed",
            fixture.name
        );
    }
}

#[test]
fn owned_path_allocates_less_than_clone_path() {
    let converter = Converter::new(resume::concepts());
    for fixture in fixtures() {
        let html = parse(&fixture.html);
        // Warm up so lazily initialized state is excluded from both sides.
        let _ = converter.convert(&html);

        // Borrowing path: clones the whole document (attribute vectors
        // included) before converting.
        let clone_allocs = count_allocs(|| {
            let _ = converter.convert(&html);
        });
        // Owned path: the clone happens outside the measured region, so
        // this measures conversion alone — what `convert_str` pays.
        let owned_doc = html.clone();
        let owned_allocs = count_allocs(|| {
            let _ = converter.convert_owned(owned_doc);
        });

        assert!(
            owned_allocs < clone_allocs,
            "{}: owned path ({owned_allocs} allocs) should beat clone path ({clone_allocs})",
            fixture.name
        );
        assert!(
            owned_allocs > 0,
            "{}: counter not wired up",
            fixture.name
        );
        assert!(
            owned_allocs <= fixture.max_allocs,
            "{}: owned conversion now makes {owned_allocs} allocations \
             (ceiling {}); a per-token or per-node copy has probably crept \
             back into the pipeline",
            fixture.name,
            fixture.max_allocs
        );
    }
}

#[test]
fn pipeline_allocations_stay_under_ceiling() {
    let converter = Converter::new(resume::concepts());
    for fixture in fixtures() {
        // Warm up so one-time costs stay out of the count.
        let _ = to_xml_pretty(&converter.convert_owned(parse(&fixture.html)).0);
        let allocs = count_allocs(|| {
            let (xml, _) = converter.convert_owned(parse(&fixture.html));
            let _ = to_xml_pretty(&xml);
        });
        assert!(
            allocs <= fixture.max_pipeline_allocs,
            "{}: parse + convert + serialize now makes {allocs} allocations \
             (ceiling {}); a per-node copy has probably crept back in",
            fixture.name,
            fixture.max_pipeline_allocs
        );
    }
}
