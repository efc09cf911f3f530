//! Benchmark: one live `/schema` recompute — mine the majority schema
//! and derive its DTD — over a sharded live corpus at two sizes.
//!
//! Both steps read per-path aggregates kept at push time, so the cost
//! should track the schema and the distinct paths, not the document
//! count; `tests/regression_guard.rs` holds the 4000/1000 median ratio.

use webre_concepts::resume;
use webre_convert::Converter;
use webre_corpus::CorpusGenerator;
use webre_schema::{derive_dtd_from, extract_paths, DtdConfig, FrequentPathMiner, ShardedCorpus};
use webre_substrate::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Shards of the live corpus, as `webre serve --shards 4` runs it.
const SHARDS: usize = 4;

/// A live corpus of `n` generated resumes, routed by content hash.
fn live_corpus(n: usize) -> ShardedCorpus {
    let gen = CorpusGenerator::new(11);
    let converter = Converter::new(resume::concepts());
    let mut corpus = ShardedCorpus::new(SHARDS);
    for i in 0..n {
        let (doc, _) = converter.convert_str(&gen.generate_one(i).html);
        let hash = webre_substrate::wal::checksum(webre_xml::to_xml(&doc).as_bytes());
        corpus.push(hash, extract_paths(&doc));
    }
    corpus
}

fn bench_snapshot(c: &mut Criterion) {
    // The serving engine's resume-domain settings.
    let miner = FrequentPathMiner {
        constraints: Some(resume::constraints()),
        ..FrequentPathMiner::default()
    };
    let config = DtdConfig::default();
    let mut group = c.benchmark_group("schema_snapshot");
    for n in [1000usize, 4000] {
        let corpus = live_corpus(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &corpus, |b, corpus| {
            b.iter(|| {
                let outcome = miner
                    .mine_view(corpus)
                    .expect("resume corpus mines a schema");
                std::hint::black_box(derive_dtd_from(
                    &outcome.schema,
                    corpus,
                    || corpus.docs(),
                    &config,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
