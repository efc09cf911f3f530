//! The `/corpus/xml` ingest and WAL replay paths against
//! `webre-check`'s references: the one-walk [`extract_paths`] must record
//! exactly what the per-node rescanning walk records, the direct record
//! writer must emit the bytes the `Json`-tree encoder prints, and the
//! pull-reader [`doc_from_record`] must decode what the `Json`-tree
//! decoder decodes — over generated resumes, multi-resume pages, tag
//! soup and random label trees, and, for the decoder, over mutations of
//! those records. Equal bytes keep every existing WAL, snapshot and
//! seeded data directory readable.
//!
//! The form a `CorpusIndex` stores each distinct document in is held to
//! the same references over the same documents and every mutant record
//! that decodes: it rebuilds its document exactly, it encodes to the
//! reference encoder's bytes, and two stored documents compare equal
//! exactly when their documents do — the equality shape interning
//! relies on.

use webre_check::gen::{mutate, soup_document};
use webre_check::reference::{
    ref_doc_from_record, ref_doc_to_record, ref_extract_paths, RefDocPaths,
};
use webre_concepts::resume;
use webre_convert::Converter;
use webre_corpus::CorpusGenerator;
use webre_schema::{
    doc_from_record, doc_to_record, encode, extract_paths, CorpusIndex, DocPaths, StoredDoc,
};
use webre_substrate::json::{write_number, Json};
use webre_substrate::rand::rngs::StdRng;
use webre_substrate::rand::seq::SliceRandom;
use webre_substrate::rand::{Rng, SeedableRng};
use webre_xml::{parse_xml, to_xml, XmlDocument};

/// Checks the stored form of each of `docs` — pushed, in order, into
/// one index — against its document and the reference encoder, and
/// compares every two stored documents at most `window` apart.
fn check_stored(what: &str, docs: &[DocPaths], window: usize) {
    let index = CorpusIndex::from_docs(docs);
    let stored: Vec<StoredDoc> = index.stored_docs().collect();
    assert_eq!(stored.len(), docs.len());
    for (i, (doc, s)) in docs.iter().zip(&stored).enumerate() {
        assert!(
            s.to_doc_paths() == *doc,
            "{what} {i}: the stored form rebuilds a different document"
        );
        let record = encode(*s);
        let reference = ref_doc_to_record(&RefDocPaths::of(doc));
        assert!(
            record == reference,
            "{what} {i}: stored record bytes differ from the Json-tree encoder\n  ours: {}\n  reference: {}",
            String::from_utf8_lossy(&record),
            String::from_utf8_lossy(&reference)
        );
        for j in i.saturating_sub(window)..i {
            assert_eq!(
                *s == stored[j],
                *doc == docs[j],
                "{what}: stored {i} == stored {j} disagrees with the documents"
            );
        }
    }
}

/// Checks one document: extraction, record bytes and decoding. Returns
/// the extracted document.
fn check(what: &str, doc: &XmlDocument) -> DocPaths {
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
    assert_eq!(
        ref_doc_from_record(&record).unwrap(),
        paths,
        "{what}: reference decode"
    );
    paths
}

/// Checks a converted page both as converted and as `/corpus/xml`
/// receives it: serialized, then parsed back, adding both extractions to
/// `docs`. Returns the element count.
fn check_page(what: &str, converter: &Converter, html: &str, docs: &mut Vec<DocPaths>) -> usize {
    let (doc, _) = converter.convert_str(html);
    docs.push(check(what, &doc));
    let reparsed = parse_xml(&to_xml(&doc)).expect("converted XML parses");
    docs.push(check(what, &reparsed));
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
    let mut docs = Vec::new();
    for i in 0..60 {
        check_page(
            &format!("resume {i}"),
            &converter,
            &generator.generate_one(i).html,
            &mut docs,
        );
    }
    check_stored("resume", &docs, 16);
}

#[test]
fn multi_resume_pages_match_the_reference() {
    let converter = Converter::new(resume::concepts());
    let generator = CorpusGenerator::new(0x6D6D);
    let mut docs = Vec::new();
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
        let elements = check_page(
            &format!("multi-resume page {page}"),
            &converter,
            &html,
            &mut docs,
        );
        assert!(
            elements >= 300,
            "page {page} converts to only {elements} elements"
        );
    }
    check_stored("multi-resume page", &docs, 16);
}

#[test]
fn tag_soup_matches_the_reference() {
    let converter = Converter::new(resume::concepts());
    let mut rng = StdRng::seed_from_u64(20);
    let mut docs = Vec::new();
    for i in 0..120 {
        let mut html = soup_document(&mut rng);
        if i % 2 == 1 {
            html = mutate(&html, &mut rng);
        }
        check_page(&format!("soup {i}"), &converter, &html, &mut docs);
    }
    check_stored("soup", &docs, 16);
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
    let mut docs = Vec::new();
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xml = String::new();
        let depth = rng.gen_range(1..=4u32);
        random_element(&mut rng, "r", depth, &mut xml);
        docs.push(check(&format!("seed {seed}"), &parse_xml(&xml).unwrap()));
    }
    check_stored("random tree", &docs, 16);
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
    let chain = check("chain", &parse_xml(&xml).unwrap());
    // 500 siblings, interleaved labels and text.
    let mut xml = String::from("<r>");
    for i in 0..500 {
        xml.push_str(&format!("<{}><x/></{}>t", labels[i % 2], labels[i % 2]));
    }
    xml.push_str("</r>");
    let wide = check("wide", &parse_xml(&xml).unwrap());
    check_stored("deep and wide", &[chain, wide], 1);
}

/// Decodes `record` with the pull reader and with the `Json`-tree
/// reference; they must agree on Ok/Err and, when Ok, on the value.
/// Returns the document, if the record decoded.
fn decoders_agree(what: &str, record: &[u8]) -> Option<DocPaths> {
    let ours = doc_from_record(record);
    let reference = ref_doc_from_record(record);
    match (&ours, &reference) {
        (Ok(a), Ok(b)) => assert!(a == b, "{what}: decoders disagree on the value"),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "{what}: decoders disagree: ours {:?}, reference {:?}\n  {}",
            ours.as_ref().map(|_| "ok"),
            reference.as_ref().map(|_| "ok"),
            String::from_utf8_lossy(record)
        ),
    }
    ours.ok()
}

/// A small random JSON value; one in ten is an array nest 240–300
/// deep, straddling the reader's nesting limit.
fn random_value(rng: &mut StdRng) -> Json {
    match rng.gen_range(0..10u32) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(rng.gen_range(-5..=5i32) as f64 / 2.0),
        3 => Json::Str(["a", "r", "", "x y"][rng.gen_range(0..4usize)].to_owned()),
        4 => Json::Arr(vec![Json::Str("a".to_owned()); rng.gen_range(0..3usize)]),
        5 => Json::obj([("p", Json::Arr(vec![]))]),
        6..=8 => Json::Arr(vec![Json::Arr(vec![Json::Str("a".to_owned())])]),
        _ => {
            let mut value = Json::Arr(vec![]);
            for _ in 0..rng.gen_range(240..=300u32) {
                value = Json::Arr(vec![value]);
            }
            value
        }
    }
}

/// Structural mutations of a parsed record: members shuffled, unknown
/// keys inserted, keys duplicated with another value before or after
/// the original, arrays shuffled, values replaced.
fn mutate_tree(rng: &mut StdRng, value: &mut Json) {
    match value {
        Json::Obj(members) => {
            if rng.gen_bool(0.3) {
                members.shuffle(rng);
            }
            if rng.gen_bool(0.15) {
                let at = rng.gen_range(0..=members.len());
                members.insert(at, ("zz".to_owned(), random_value(rng)));
            }
            if !members.is_empty() && rng.gen_bool(0.1) {
                let i = rng.gen_range(0..members.len());
                let key = members[i].0.clone();
                let at = if rng.gen_bool(0.5) { i } else { i + 1 };
                members.insert(at, (key, random_value(rng)));
            }
            for (_, member) in members.iter_mut() {
                mutate_tree(rng, member);
            }
        }
        Json::Arr(items) => {
            if items.len() > 1 && rng.gen_bool(0.05) {
                items.shuffle(rng);
            }
            for item in items.iter_mut() {
                mutate_tree(rng, item);
            }
        }
        _ if rng.gen_bool(0.005) => *value = random_value(rng),
        _ => {}
    }
}

/// Prints `value` as JSON, writing some ASCII characters of strings and
/// keys as `\u00XX` escapes.
fn print_escaped(rng: &mut StdRng, value: &Json, out: &mut String) {
    let string = |rng: &mut StdRng, s: &str, out: &mut String| {
        out.push('"');
        for c in s.chars() {
            if c.is_ascii() && (c < ' ' || c == '"' || c == '\\' || rng.gen_bool(0.1)) {
                out.push_str(&format!("\\u{:04x}", c as u32));
            } else {
                out.push(c);
            }
        }
        out.push('"');
    };
    match value {
        Json::Str(s) => string(rng, s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_escaped(rng, item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                string(rng, key, out);
                out.push(':');
                print_escaped(rng, member, out);
            }
            out.push('}');
        }
        other => {
            if let Json::Num(n) = other {
                write_number(out, *n).unwrap();
            } else {
                out.push_str(&other.to_string());
            }
        }
    }
}

/// Byte-level mutations: digits and letters swapped for others of their
/// kind (the record usually stays well-formed), bit flips,
/// JSON-significant bytes written over others, truncations, deleted
/// ranges and ranges spliced in from another record.
fn mutate_bytes(rng: &mut StdRng, record: &mut Vec<u8>, donor: &[u8]) {
    const SIGNIFICANT: &[u8] = b"{}[],:\"\\0123456789-.eEtnfu ";
    let benign = rng.gen_bool(0.5);
    for _ in 0..rng.gen_range(1..=3u32) {
        if record.is_empty() {
            return;
        }
        let at = rng.gen_range(0..record.len());
        if benign {
            match record[at] {
                b'0'..=b'9' => record[at] = b'0' + rng.gen_range(0..10u8),
                b'a'..=b'z' => record[at] = b'a' + rng.gen_range(0..26u8),
                _ => {}
            }
            continue;
        }
        match rng.gen_range(0..5u32) {
            0 => record[at] ^= 1 << rng.gen_range(0..8u32),
            1 => record[at] = SIGNIFICANT[rng.gen_range(0..SIGNIFICANT.len())],
            2 => record.truncate(at),
            3 => {
                let end = (at + rng.gen_range(1..=16usize)).min(record.len());
                record.drain(at..end);
            }
            _ => {
                let from = rng.gen_range(0..donor.len());
                let to = (from + rng.gen_range(1..=64usize)).min(donor.len());
                let end = (at + rng.gen_range(0..=16usize)).min(record.len());
                record.splice(at..end, donor[from..to].iter().copied());
            }
        }
    }
}

#[test]
fn mutated_records_decode_like_the_reference() {
    let converter = Converter::new(resume::concepts());
    let generator = CorpusGenerator::new(21);
    let mut rng = StdRng::seed_from_u64(21);
    let mut records: Vec<Vec<u8>> = (0..16)
        .map(|i| {
            let (doc, _) = converter.convert_str(&generator.generate_one(i).html);
            doc_to_record(&extract_paths(&doc))
        })
        .collect();
    for _ in 0..16 {
        let mut xml = String::new();
        let depth = rng.gen_range(1..=4u32);
        random_element(&mut rng, "r", depth, &mut xml);
        records.push(doc_to_record(&extract_paths(&parse_xml(&xml).unwrap())));
    }
    let (mut structural_ok, mut byte_ok, mut total) = (0, 0, 0);
    // Decoded mutants whose path set lacks a prefix of one of its paths.
    let mut unlisted = 0;
    for (i, record) in records.iter().enumerate() {
        let original = decoders_agree(&format!("record {i}"), record).expect("records decode");
        // The record's decoded mutants, with the original twice among
        // them, for the stored form.
        let mut family = vec![original.clone()];
        let donor = &records[(i + 1) % records.len()];
        let tree = Json::parse(std::str::from_utf8(record).unwrap()).unwrap();
        for j in 0..40 {
            let what = format!("record {i} mutant {j}");
            let mut mutant = tree.clone();
            mutate_tree(&mut rng, &mut mutant);
            let mut text = String::new();
            print_escaped(&mut rng, &mutant, &mut text);
            if let Some(doc) = decoders_agree(&what, text.as_bytes()) {
                structural_ok += 1;
                family.push(doc);
            }
            let mut bytes = if rng.gen_bool(0.5) { text.into_bytes() } else { record.clone() };
            mutate_bytes(&mut rng, &mut bytes, donor);
            if let Some(doc) = decoders_agree(&what, &bytes) {
                byte_ok += 1;
                family.push(doc);
            }
            total += 1;
            if j == 20 {
                family.push(original.clone());
            }
        }
        unlisted += family
            .iter()
            .filter(|doc| doc.paths().any(|p| !doc.contains(&p[..p.len() - 1])))
            .count();
        check_stored(&format!("record {i} mutants"), &family, family.len());
    }
    // Both kinds must reach the decoder's accepting paths, not only its
    // error paths.
    assert!(structural_ok * 5 >= total, "{structural_ok} of {total} structural mutants decode");
    assert!(byte_ok * 10 >= total, "{byte_ok} of {total} byte mutants decode");
    assert!(unlisted > 0, "no decoded mutant lacks a path prefix");
}
