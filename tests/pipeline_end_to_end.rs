//! End-to-end integration: generator → crawler → conversion → schema
//! discovery → DTD → document mapping, across crate boundaries.

use webre::Pipeline;
use webre_corpus::crawler::{crawl, PageKind, WebGraph};
use webre_corpus::CorpusGenerator;
use webre_schema::FrequentPathMiner;

fn paper_pipeline() -> Pipeline {
    Pipeline::resume_domain().with_miner(FrequentPathMiner {
        sup_threshold: 0.5,
        ratio_threshold: 0.3,
        constraints: Some(webre::concepts::resume::constraints()),
        max_len: None,
    })
}

#[test]
fn corpus_to_dtd_to_conformance() {
    let corpus = CorpusGenerator::new(7).generate(40);
    let htmls: Vec<String> = corpus.iter().map(|d| d.html.clone()).collect();
    let pipeline = paper_pipeline();
    let (discovery, mapped) = pipeline.run(&htmls).unwrap();

    // The schema must recover the headline resume structure.
    assert_eq!(discovery.schema.root_label(), "resume");
    for path in [
        vec!["resume".to_owned(), "education".to_owned()],
        vec![
            "resume".to_owned(),
            "education".to_owned(),
            "institution".to_owned(),
        ],
        vec!["resume".to_owned(), "experience".to_owned()],
        vec![
            "resume".to_owned(),
            "experience".to_owned(),
            "employer".to_owned(),
        ],
        vec!["resume".to_owned(), "skills".to_owned()],
    ] {
        assert!(
            discovery.schema.contains(&path),
            "missing {path:?} in\n{}",
            discovery.schema.render()
        );
    }

    // Every mapped document must conform to the derived DTD.
    let conforming = mapped.iter().filter(|m| m.conforms).count();
    assert!(
        conforming as f64 >= mapped.len() as f64 * 0.95,
        "only {conforming}/{} mapped documents conform\n{}",
        mapped.len(),
        discovery.dtd.to_dtd_string()
    );
}

#[test]
fn discovered_dtd_round_trips_through_text() {
    let corpus = CorpusGenerator::new(13).generate(25);
    let htmls: Vec<String> = corpus.iter().map(|d| d.html.clone()).collect();
    let pipeline = paper_pipeline();
    let docs = pipeline.convert_corpus(&htmls);
    let discovery = pipeline.discover_schema(&docs).unwrap();
    let text = discovery.dtd.to_dtd_string();
    let reparsed = webre::xml::dtd::parse_dtd(&text).unwrap();
    assert_eq!(discovery.dtd, reparsed);
}

#[test]
fn converted_documents_survive_xml_round_trip() {
    let corpus = CorpusGenerator::new(21).generate(10);
    let pipeline = paper_pipeline();
    for doc in &corpus {
        let (xml, _) = pipeline.convert_html(&doc.html);
        let serialized = webre::xml::to_xml(&xml);
        let reparsed = webre::xml::parse_xml(&serialized)
            .unwrap_or_else(|e| panic!("unparseable output: {e}\n{serialized}"));
        assert!(xml
            .tree
            .subtree_eq(xml.root(), &reparsed.tree, reparsed.root()));
    }
}

#[test]
fn crawler_harvest_feeds_pipeline() {
    let graph = WebGraph::build(5, 32, 40);
    let report = crawl(&graph, &webre::concepts::resume::concepts(), 5, 1);
    assert!(report.recall >= 0.9);
    let htmls: Vec<String> = report
        .harvested
        .iter()
        .filter(|id| graph.pages[**id].kind == PageKind::Resume)
        .map(|id| graph.pages[*id].html.clone())
        .collect();
    let pipeline = paper_pipeline();
    let docs = pipeline.convert_corpus(&htmls);
    let discovery = pipeline.discover_schema(&docs).unwrap();
    assert!(discovery.dtd.len() >= 8, "{}", discovery.dtd.to_dtd_string());
}

#[test]
fn schema_sizes_nest_between_bounds() {
    // lower bound ⊆ majority ⊆ DataGuide on a real heterogeneous corpus.
    let corpus = CorpusGenerator::new(33).generate(30);
    let htmls: Vec<String> = corpus.iter().map(|d| d.html.clone()).collect();
    let pipeline = paper_pipeline();
    let docs = pipeline.convert_corpus(&htmls);
    let paths: Vec<_> = docs.iter().map(webre::schema::extract_paths).collect();
    let dg = webre::schema::baselines::dataguide(&paths).unwrap();
    let lb = webre::schema::baselines::lower_bound(&paths).unwrap();
    let majority = pipeline.discover_schema(&docs).unwrap().schema;
    assert!(lb.len() < majority.len(), "lb {} vs majority {}", lb.len(), majority.len());
    assert!(
        majority.len() < dg.len(),
        "majority {} vs dataguide {}",
        majority.len(),
        dg.len()
    );
    // Every lower-bound path is in the majority schema; every majority path
    // is in the DataGuide.
    for p in lb.paths() {
        assert!(majority.contains(&p), "{p:?} missing from majority");
    }
    for p in majority.paths() {
        assert!(dg.contains(&p), "{p:?} missing from dataguide");
    }
}

#[test]
fn mapping_is_idempotent() {
    let corpus = CorpusGenerator::new(44).generate(20);
    let htmls: Vec<String> = corpus.iter().map(|d| d.html.clone()).collect();
    let pipeline = paper_pipeline();
    let docs = pipeline.convert_corpus(&htmls);
    let discovery = pipeline.discover_schema(&docs).unwrap();
    let planner = webre::map::MapPlanner::default();
    for doc in docs.iter().take(5) {
        let once = pipeline.plan_document(doc, &discovery, &planner);
        if !once.conforms {
            continue;
        }
        let twice = pipeline.plan_document(&once.document, &discovery, &planner);
        assert_eq!(twice.tier, webre::map::MapTier::Conformant);
        assert_eq!(twice.cost, Some(0), "second mapping changed the doc");
        assert!(twice.conforms);
    }
}
