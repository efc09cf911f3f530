//! Experiment A4: document mapping to DTD conformance (the Quixote
//! Document Mapping Component, Section 5 / [13]).
//!
//! Measures, over a converted corpus: how many documents conform to the
//! majority DTD as-extracted, how many the tree-edit mapper brings into
//! conformance, and the distribution of edit costs.
//!
//! Run with: `cargo run --release -p webre-bench --bin mapping_conformance`

use webre::map::MapPlanner;
use webre::Pipeline;
use webre_corpus::CorpusGenerator;
use webre_schema::FrequentPathMiner;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);
    let corpus = CorpusGenerator::new(73).generate(n);
    let htmls: Vec<String> = corpus.iter().map(|d| d.html.clone()).collect();
    let pipeline = Pipeline::resume_domain().with_miner(FrequentPathMiner {
        sup_threshold: 0.5,
        ratio_threshold: 0.3,
        constraints: Some(webre::concepts::resume::constraints()),
        max_len: None,
    });

    let docs = pipeline.convert_corpus(&htmls);
    let discovery = pipeline.discover_schema(&docs).expect("non-empty corpus");

    let mut already = 0usize;
    let mut fixed = 0usize;
    let mut failed = 0usize;
    let mut costs: Vec<u32> = Vec::new();
    let mut demoted = 0u64;
    let mut wrapped = 0u64;
    let mut inserted = 0u64;
    let mut merged = 0u64;
    let mut reordered = 0u64;

    let planner = MapPlanner::default();
    for doc in &docs {
        if webre::xml::validate::conforms(doc, &discovery.dtd) {
            already += 1;
            continue;
        }
        let outcome = pipeline.plan_document(doc, &discovery, &planner);
        if outcome.conforms {
            fixed += 1;
            costs.push(outcome.cost.expect("an unbudgeted plan always has a cost"));
            demoted += u64::from(outcome.demoted);
            wrapped += u64::from(outcome.wrapped);
            inserted += u64::from(outcome.inserted);
            merged += u64::from(outcome.merged);
            reordered += u64::from(outcome.reordered);
        } else {
            failed += 1;
        }
    }

    println!("A4 — document mapping over {n} documents");
    println!();
    println!("  DTD: {} elements", discovery.dtd.len());
    println!("  conforming as-extracted:  {already}");
    println!("  mapped to conformance:    {fixed}");
    println!("  still non-conforming:     {failed}");
    if !costs.is_empty() {
        costs.sort_unstable();
        let total: u64 = costs.iter().map(|c| u64::from(*c)).sum();
        println!();
        println!("  edit cost of successful mappings:");
        println!("    mean   {:.1}", total as f64 / costs.len() as f64);
        println!("    median {}", costs[costs.len() / 2]);
        println!("    max    {}", costs.last().expect("non-empty"));
        println!();
        println!("  edit mix: {demoted} demoted, {wrapped} wrapped, {inserted} inserted, {merged} merged, {reordered} reordered");
    }
}
