//! Benchmark: one `/corpus/xml` ingest without the server — parse the
//! XML body, extract its label paths, encode the WAL record and push the
//! document into a corpus index — for single-resume documents and for
//! multi-resume pages (16–32 KiB of concatenated resumes, ~550 elements);
//! and its WAL replay (`corpus_replay`): decode the record bytes and push
//! the document.
//!
//! Each iteration ingests or replays the next of 32 distinct documents of
//! its class into an index that has already seen all of them, the steady
//! state of a live corpus where every path key is known.

use webre_concepts::resume;
use webre_convert::Converter;
use webre_corpus::CorpusGenerator;
use webre_schema::{doc_from_record, doc_to_record, extract_paths, CorpusIndex};
use webre_substrate::bench::{criterion_group, criterion_main, Criterion};

/// Distinct documents per class.
const DOCS: usize = 32;

/// The markup between `<body>` and `</body>`.
fn body_of(html: &str) -> &str {
    let start = html.find("<body>").map_or(0, |p| p + "<body>".len());
    let end = html.rfind("</body>").unwrap_or(html.len());
    &html[start..end.max(start)]
}

/// Resumes concatenated into one page of 16–32 KiB.
fn multi_page(gen: &CorpusGenerator, i: usize) -> String {
    let target = 16 * 1024 + (i * 997) % (16 * 1024);
    let mut html = String::from("<html><head><title>Resumes</title></head><body>\n");
    let mut j = 0;
    while html.len() < target {
        html.push_str(body_of(&gen.generate_one(i * 64 + j).html));
        html.push_str("<hr>\n");
        j += 1;
    }
    html.push_str("</body></html>\n");
    html
}

/// One `/corpus/xml` body: the document as XML text.
fn ingest(index: &mut CorpusIndex, xml: &str) -> Vec<u8> {
    let doc = webre_xml::parse_xml(xml).expect("converted XML parses");
    let paths = extract_paths(&doc);
    let record = doc_to_record(&paths);
    index.push(&paths);
    record
}

fn bench_ingest(c: &mut Criterion) {
    let converter = Converter::new(resume::concepts());
    let gen = CorpusGenerator::new(13);
    let xml = |html: &str| webre_xml::to_xml(&converter.convert_str(html).0);
    let classes: [(&str, Vec<String>); 2] = [
        (
            "single",
            (0..DOCS).map(|i| xml(&gen.generate_one(i).html)).collect(),
        ),
        (
            "multi",
            (0..DOCS).map(|i| xml(&multi_page(&gen, i))).collect(),
        ),
    ];
    let mut records: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut group = c.benchmark_group("corpus_ingest");
    for (class, docs) in &classes {
        let mut index = CorpusIndex::new();
        records.push(docs.iter().map(|doc| ingest(&mut index, doc)).collect());
        let mut next = 0;
        group.bench_function(*class, |b| {
            b.iter(|| {
                next = (next + 1) % docs.len();
                std::hint::black_box(ingest(&mut index, &docs[next]))
            })
        });
    }
    group.finish();
    let mut group = c.benchmark_group("corpus_replay");
    for ((class, _), records) in classes.iter().zip(&records) {
        let mut index = CorpusIndex::new();
        for record in records {
            index.push(&doc_from_record(record).expect("records decode"));
        }
        let mut next = 0;
        group.bench_function(*class, |b| {
            b.iter(|| {
                next = (next + 1) % records.len();
                let doc = doc_from_record(&records[next]).expect("records decode");
                index.push(&doc);
                std::hint::black_box(index.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
