//! Benchmark: the Zhang–Shasha edit script (`webre_map::edit_script`) on
//! document-sized label trees — the exact tier of the mapping planner.

use webre_substrate::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use webre_bench::harness::paper_pipeline;
use webre_corpus::CorpusGenerator;
use webre_map::edit_script;
use webre_map::planner::label_tree;

fn bench_tree_edit(c: &mut Criterion) {
    let gen = CorpusGenerator::new(17);
    let pipeline = paper_pipeline();
    let docs: Vec<webre_xml::XmlDocument> = (0..6)
        .map(|i| pipeline.convert_html(&gen.generate_one(i).html).0)
        .collect();
    let trees: Vec<_> = docs.iter().map(label_tree).collect();

    let mut group = c.benchmark_group("tree_edit");
    for (i, j) in [(0usize, 1usize), (2, 3), (4, 5)] {
        let name = format!(
            "{}x{}",
            docs[i].element_count(),
            docs[j].element_count()
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(i, j),
            |b, &(i, j)| b.iter(|| std::hint::black_box(edit_script(&trees[i], &trees[j]))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_tree_edit);
criterion_main!(benches);
