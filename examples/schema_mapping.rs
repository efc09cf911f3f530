//! Map non-conforming documents onto a discovered DTD with the tree-edit
//! based Document Mapping Component.
//!
//! Run with: `cargo run --example schema_mapping`

use webre::map::MapPlanner;
use webre::Pipeline;
use webre_corpus::CorpusGenerator;
use webre_schema::FrequentPathMiner;

fn main() {
    let corpus = CorpusGenerator::new(11).generate(60);
    let htmls: Vec<String> = corpus.iter().map(|d| d.html.clone()).collect();
    let pipeline = Pipeline::resume_domain().with_miner(FrequentPathMiner {
        sup_threshold: 0.5,
        ratio_threshold: 0.3,
        constraints: Some(webre::concepts::resume::constraints()),
        max_len: None,
    });

    let docs = pipeline.convert_corpus(&htmls);
    let discovery = pipeline.discover_schema(&docs).expect("non-empty corpus");
    println!("derived DTD:\n{}", discovery.dtd.to_dtd_string());

    let mut already = 0usize;
    let mut fixed = 0usize;
    let mut failed = 0usize;
    let mut total_distance = 0u64;
    let mut example_shown = false;

    let planner = MapPlanner::default();
    for doc in &docs {
        if webre::xml::validate::conforms(doc, &discovery.dtd) {
            already += 1;
            continue;
        }
        let outcome = pipeline.plan_document(doc, &discovery, &planner);
        if outcome.conforms {
            let distance = outcome.cost.expect("an unbudgeted plan always has a cost");
            fixed += 1;
            total_distance += u64::from(distance);
            if !example_shown {
                example_shown = true;
                println!("== example mapping ==");
                println!("before:\n{}", webre::xml::to_xml_pretty(doc));
                println!("after:\n{}", webre::xml::to_xml_pretty(&outcome.document));
                println!(
                    "edits: {} demoted, {} wrapped, {} inserted, {} merged, {} reordered \
                     (tree-edit distance {})",
                    outcome.demoted,
                    outcome.wrapped,
                    outcome.inserted,
                    outcome.merged,
                    outcome.reordered,
                    distance
                );
                println!();
            }
        } else {
            failed += 1;
        }
    }

    println!("== mapping summary over {} documents ==", docs.len());
    println!("conforming as-extracted: {already}");
    println!("mapped to conformance:   {fixed}");
    println!("still non-conforming:    {failed}");
    if fixed > 0 {
        println!(
            "average tree-edit distance of successful mappings: {:.1}",
            total_distance as f64 / fixed as f64
        );
    }
}
