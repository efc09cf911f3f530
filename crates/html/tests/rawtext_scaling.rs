//! Raw-text elements must lex in time linear in the input.
//!
//! Finding the end of a `<title>` (or `<script>`, `<style>`, ...) once
//! copied and lowercased the entire rest of the document, so a page of
//! many raw-text elements parsed in quadratic time. Quadrupling such a
//! page must now cost at most about four times as much; the quadratic
//! scan cost about sixteen times as much.

use std::time::{Duration, Instant};

/// A page of `bytes` bytes made of `<title>` elements.
fn title_soup(bytes: usize) -> String {
    let unit = "<title>x</title>";
    unit.repeat(bytes / unit.len())
}

/// Fastest of several parses of `page`, to keep scheduler noise out.
fn best_parse_time(page: &str) -> Duration {
    (0..5)
        .map(|_| {
            let started = Instant::now();
            let doc = webre_html::parse(std::hint::black_box(page));
            let elapsed = started.elapsed();
            assert!(doc.element_count() > 0);
            elapsed
        })
        .min()
        .expect("five runs")
}

#[test]
fn raw_text_lexing_scales_linearly() {
    let small = title_soup(64 * 1024);
    let large = title_soup(256 * 1024);
    let t_small = best_parse_time(&small);
    let t_large = best_parse_time(&large);
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64().max(1e-9);
    assert!(
        ratio <= 8.0,
        "4x the raw-text input cost {ratio:.1}x the time ({t_small:?} -> {t_large:?})"
    );
}
