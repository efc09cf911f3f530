//! Experiment A3: majority schema vs DataGuide vs lower-bound schema.
//!
//! Section 1 of the paper argues the majority schema sits usefully between
//! the DataGuide (upper bound — every path anywhere) and the lower bound
//! (paths in every document), and that document mapping "is only
//! reasonable by using a majority schema". This harness quantifies all
//! three on one corpus: schema size, path-level conformance, and the edit
//! cost of mapping documents onto each schema's DTD.
//!
//! Run with: `cargo run --release -p webre-bench --bin baseline_schemas`

use webre::Pipeline;
use webre_corpus::CorpusGenerator;
use webre_map::MapPlanner;
use webre_schema::baselines::{dataguide, lower_bound, path_conformance};
use webre_schema::{derive_dtd, extract_paths, DtdConfig, FrequentPathMiner, MajoritySchema};

fn report(
    label: &str,
    schema: &MajoritySchema,
    paths: &[webre_schema::DocPaths],
    docs: &[webre::xml::XmlDocument],
) {
    let dtd = derive_dtd(schema, paths, &DtdConfig::default());
    let conformance = path_conformance(schema, paths);
    let mut mapped_ok = 0usize;
    let mut total_cost = 0u64;
    let mut info_lost = 0u64; // demotions drop structure into vals
    let planner = MapPlanner::default();
    for doc in docs {
        let outcome = planner.plan(doc, schema, &dtd);
        if outcome.conforms {
            mapped_ok += 1;
            total_cost += u64::from(outcome.cost.expect("an unbudgeted plan always has a cost"));
            info_lost += u64::from(outcome.demoted);
        }
    }
    println!(
        "  {label:<12} {:>6} paths {:>8} dtd-elems {:>10.0}% conform {:>7}/{} mapped  avg cost {:>5.1}  demotions {:>4}",
        schema.len(),
        dtd.len(),
        conformance * 100.0,
        mapped_ok,
        docs.len(),
        if mapped_ok > 0 { total_cost as f64 / mapped_ok as f64 } else { 0.0 },
        info_lost,
    );
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(120);
    let corpus = CorpusGenerator::new(51).generate(n);
    let htmls: Vec<String> = corpus.iter().map(|d| d.html.clone()).collect();
    let pipeline = Pipeline::resume_domain();
    let docs = pipeline.convert_corpus(&htmls);
    let paths: Vec<_> = docs.iter().map(extract_paths).collect();

    println!("A3 — schema family comparison over {n} converted documents");
    println!();

    let lb = lower_bound(&paths).expect("non-empty corpus");
    report("lower bound", &lb, &paths, &docs);

    let majority = FrequentPathMiner {
        sup_threshold: 0.5,
        ratio_threshold: 0.3,
        constraints: Some(webre::concepts::resume::constraints()),
        max_len: None,
    }
    .mine(&paths)
    .expect("non-empty corpus")
    .schema;
    report("majority", &majority, &paths, &docs);

    let dg = dataguide(&paths).expect("non-empty corpus");
    report("dataguide", &dg, &paths, &docs);

    println!();
    println!(
        "  reading: the lower bound forces heavy demotion (structure collapses into vals);\n\
         \x20 the DataGuide conforms trivially but its DTD memorizes noise paths;\n\
         \x20 the majority schema keeps the DTD small while mapping cost stays low —\n\
         \x20 the paper's argument for majority schemas, quantified."
    );
}
