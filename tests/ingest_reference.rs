//! The `/corpus/xml` ingest path against `webre-check`'s references:
//! the one-walk [`extract_paths`] must record exactly what the per-node
//! rescanning walk records, and the direct record writer must emit the
//! bytes the `Json`-tree encoder prints — over generated resumes,
//! multi-resume pages, tag soup and random label trees. Equal bytes keep
//! every existing WAL, snapshot and seeded data directory readable.

use webre_check::gen::{mutate, soup_document};
use webre_check::reference::{ref_doc_to_record, ref_extract_paths, RefDocPaths};
use webre_concepts::resume;
use webre_convert::Converter;
use webre_corpus::CorpusGenerator;
use webre_schema::{doc_from_record, doc_to_record, extract_paths};
use webre_substrate::rand::rngs::StdRng;
use webre_substrate::rand::{Rng, SeedableRng};
use webre_xml::{parse_xml, to_xml, XmlDocument};

/// Checks one document: extraction, record bytes and decoding.
fn check(what: &str, doc: &XmlDocument) {
    let paths = extract_paths(doc);
    let reference = ref_extract_paths(doc);
    assert!(
        RefDocPaths::of(&paths) == reference,
        "{what}: extraction differs from the reference walk\n  {}",
        to_xml(doc)
    );
    let record = doc_to_record(&paths);
    assert!(
        record == ref_doc_to_record(&reference),
        "{what}: record bytes differ from the Json-tree encoder\n  ours: {}\n  reference: {}",
        String::from_utf8_lossy(&record),
        String::from_utf8_lossy(&ref_doc_to_record(&reference))
    );
    assert_eq!(doc_from_record(&record).unwrap(), paths, "{what}: decode");
}

/// Checks a converted page both as converted and as `/corpus/xml`
/// receives it: serialized, then parsed back. Returns the element count.
fn check_page(what: &str, converter: &Converter, html: &str) -> usize {
    let (doc, _) = converter.convert_str(html);
    check(what, &doc);
    let reparsed = parse_xml(&to_xml(&doc)).expect("converted XML parses");
    check(what, &reparsed);
    doc.element_count()
}

/// The markup between `<body>` and `</body>`.
fn body_of(html: &str) -> &str {
    let start = html.find("<body>").map_or(0, |p| p + "<body>".len());
    let end = html.rfind("</body>").unwrap_or(html.len());
    &html[start..end.max(start)]
}

#[test]
fn generated_resumes_match_the_reference() {
    let converter = Converter::new(resume::concepts());
    let generator = CorpusGenerator::new(7);
    for i in 0..60 {
        check_page(
            &format!("resume {i}"),
            &converter,
            &generator.generate_one(i).html,
        );
    }
}

#[test]
fn multi_resume_pages_match_the_reference() {
    let converter = Converter::new(resume::concepts());
    let generator = CorpusGenerator::new(0x6D6D);
    for page in 0..6usize {
        // 16–32 KiB of concatenated resumes, as crawled listing pages are.
        let target = 16 * 1024 + page * 3 * 1024;
        let mut html = String::from("<html><head><title>Resumes</title></head><body>\n");
        let mut j = 0;
        while html.len() < target {
            html.push_str(body_of(&generator.generate_one(page * 64 + j).html));
            html.push_str("<hr>\n");
            j += 1;
        }
        html.push_str("</body></html>\n");
        let elements = check_page(&format!("multi-resume page {page}"), &converter, &html);
        assert!(
            elements >= 300,
            "page {page} converts to only {elements} elements"
        );
    }
}

#[test]
fn tag_soup_matches_the_reference() {
    let converter = Converter::new(resume::concepts());
    let mut rng = StdRng::seed_from_u64(20);
    for i in 0..120 {
        let mut html = soup_document(&mut rng);
        if i % 2 == 1 {
            html = mutate(&html, &mut rng);
        }
        check_page(&format!("soup {i}"), &converter, &html);
    }
}

/// A random element: few labels, so siblings repeat; text runs between
/// siblings; occasionally a long sibling run.
fn random_element(rng: &mut StdRng, label: &str, depth: u32, out: &mut String) {
    const LABELS: &[&str] = &["a", "b", "c", "d"];
    out.push('<');
    out.push_str(label);
    out.push('>');
    if depth > 0 {
        let arity = match rng.gen_range(0..10u32) {
            0 => rng.gen_range(10..=40u32),
            1..=3 => 0,
            _ => rng.gen_range(1..=5u32),
        };
        for _ in 0..arity {
            if rng.gen_bool(0.3) {
                out.push_str("text");
            }
            let child = LABELS[rng.gen_range(0..LABELS.len())];
            random_element(rng, child, depth - 1, out);
        }
        if rng.gen_bool(0.3) {
            out.push_str("tail");
        }
    }
    out.push_str("</");
    out.push_str(label);
    out.push('>');
}

#[test]
fn random_trees_match_the_reference() {
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xml = String::new();
        let depth = rng.gen_range(1..=4u32);
        random_element(&mut rng, "r", depth, &mut xml);
        check(&format!("seed {seed}"), &parse_xml(&xml).unwrap());
    }
}

#[test]
fn deep_and_wide_trees_match_the_reference() {
    // A 200-deep chain of alternating labels.
    let labels = ["a", "b"];
    let mut xml = String::from("<r>");
    for i in 0..200 {
        xml.push_str(&format!("<{}>", labels[i % 2]));
    }
    for i in (0..200).rev() {
        xml.push_str(&format!("</{}>", labels[i % 2]));
    }
    xml.push_str("</r>");
    check("chain", &parse_xml(&xml).unwrap());
    // 500 siblings, interleaved labels and text.
    let mut xml = String::from("<r>");
    for i in 0..500 {
        xml.push_str(&format!("<{}><x/></{}>t", labels[i % 2], labels[i % 2]));
    }
    xml.push_str("</r>");
    check("wide", &parse_xml(&xml).unwrap());
}
