//! Benchmark: DTD conformance checking (Brzozowski derivatives) and the
//! full document mapper (the default, unbudgeted planner).

use webre_substrate::bench::{criterion_group, criterion_main, Criterion};
use webre_bench::harness::{corpus_html, paper_pipeline};
use webre_map::MapPlanner;

fn bench_validate(c: &mut Criterion) {
    let pipeline = paper_pipeline();
    let htmls = corpus_html(21, 60);
    let docs = pipeline.convert_corpus(&htmls);
    let discovery = pipeline.discover_schema(&docs).expect("non-empty");

    c.bench_function("dtd/validate_corpus", |b| {
        b.iter(|| {
            for d in &docs {
                std::hint::black_box(webre_xml::validate::validate(d, &discovery.dtd));
            }
        })
    });
    let planner = MapPlanner::default();
    c.bench_function("dtd/map_document", |b| {
        b.iter(|| std::hint::black_box(planner.plan(&docs[0], &discovery.schema, &discovery.dtd)))
    });
}

criterion_group!(benches, bench_validate);
criterion_main!(benches);
