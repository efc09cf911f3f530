//! `webre` — Reverse Engineering for Web Data: from visual to semantic
//! structures.
//!
//! A faithful, from-scratch reproduction of Chung, Gertz & Sundaresan
//! (ICDE 2002): topic-specific HTML documents are converted into
//! concept-tagged XML via document restructuring rules, a *majority schema*
//! is discovered from the resulting documents as frequent label paths, a
//! DTD with ordering and repetition information is derived, and
//! non-conforming documents are mapped onto the DTD with a tree-edit
//! algorithm.
//!
//! # Quickstart
//!
//! ```
//! use webre::Pipeline;
//!
//! let pipeline = Pipeline::resume_domain();
//! let (xml, _stats) = pipeline.convert_html(
//!     "<h2>Education</h2><ul><li>Stanford University, M.S., June 1996</li></ul>",
//! );
//! assert_eq!(xml.root_name(), "resume");
//! assert!(webre_xml::to_xml(&xml).contains("institution"));
//! ```
//!
//! # Crate map
//!
//! | Stage | Crate |
//! |---|---|
//! | ordered arena tree | [`webre_tree`] |
//! | HTML lexing/parsing/tidy | [`webre_html`] |
//! | XML model, DTD, validation | [`webre_xml`] |
//! | tokenization, Bayes classifier | [`webre_text`] |
//! | concepts, instances, constraints | [`webre_concepts`] |
//! | restructuring rules (conversion) | [`webre_convert`] |
//! | frequent paths, majority schema, DTD | [`webre_schema`] |
//! | tree edit distance, document mapping | [`webre_map`] |
//! | synthetic corpus + crawler substrate | [`webre_corpus`] |
//! | spans, stage counters, trace export | [`webre_obs`] |

pub use webre_concepts as concepts;
pub use webre_convert as convert;
pub use webre_corpus as corpus;
pub use webre_html as html;
pub use webre_map as map;
pub use webre_obs as obs;
pub use webre_schema as schema;
pub use webre_serve as serve;
pub use webre_text as text;
pub use webre_tree as tree;
pub use webre_xml as xml;

use webre_concepts::{ConceptSet, ConstraintSet};
use webre_convert::{ConvertConfig, ConvertStats, Converter};
use webre_map::MapOutcome;
use webre_schema::{extract_paths, DocPaths, DtdConfig, FrequentPathMiner, MajoritySchema};
use webre_xml::{Dtd, XmlDocument};

/// End-to-end pipeline: HTML documents in, majority schema + DTD +
/// conforming XML documents out.
#[derive(Clone, Debug)]
pub struct Pipeline {
    converter: Converter,
    miner: FrequentPathMiner,
    dtd_config: DtdConfig,
}

/// The result of running schema discovery over a converted corpus.
#[derive(Clone, Debug)]
pub struct DiscoveryResult {
    /// The discovered majority schema.
    pub schema: MajoritySchema,
    /// The derived DTD (ordering + repetition applied).
    pub dtd: Dtd,
    /// Per-document path views (reusable for further analysis).
    pub paths: Vec<DocPaths>,
    /// Candidate paths explored during mining.
    pub nodes_explored: usize,
}

impl Pipeline {
    /// Builds a pipeline over an arbitrary concept set.
    pub fn new(concepts: ConceptSet) -> Self {
        Pipeline {
            converter: Converter::new(concepts),
            miner: FrequentPathMiner::default(),
            dtd_config: DtdConfig::default(),
        }
    }

    /// The paper's experimental setup: the resume domain (24 concepts, 233
    /// instances) with its Section 4.2 constraints wired into the miner.
    pub fn resume_domain() -> Self {
        let concepts = webre_concepts::resume::concepts();
        let constraints = webre_concepts::resume::constraints();
        Pipeline {
            converter: Converter::new(concepts),
            miner: FrequentPathMiner {
                constraints: Some(constraints),
                ..FrequentPathMiner::default()
            },
            dtd_config: DtdConfig::default(),
        }
    }

    /// Replaces the conversion configuration.
    pub fn with_convert_config(mut self, config: ConvertConfig) -> Self {
        self.converter = Converter::with_config(self.converter.concepts().clone(), config);
        self
    }

    /// Replaces the mining thresholds/constraints.
    pub fn with_miner(mut self, miner: FrequentPathMiner) -> Self {
        self.miner = miner;
        self
    }

    /// Replaces the DTD-derivation thresholds.
    pub fn with_dtd_config(mut self, config: DtdConfig) -> Self {
        self.dtd_config = config;
        self
    }

    /// The converter in use.
    pub fn converter(&self) -> &Converter {
        &self.converter
    }

    /// The miner in use.
    pub fn miner(&self) -> &FrequentPathMiner {
        &self.miner
    }

    /// The constraint set wired into the miner, if any.
    pub fn constraints(&self) -> Option<&ConstraintSet> {
        self.miner.constraints.as_ref()
    }

    /// The DTD-derivation configuration in use.
    pub fn dtd_config(&self) -> &DtdConfig {
        &self.dtd_config
    }

    /// A [`serve::Engine`] sharing this pipeline's exact configuration,
    /// so `webre serve` answers byte-identically to the batch commands.
    pub fn serve_engine(&self) -> serve::Engine {
        serve::Engine {
            converter: self.converter.clone(),
            miner: self.miner.clone(),
            dtd_config: self.dtd_config.clone(),
        }
    }

    /// Converts one HTML document (text) into a concept-tagged XML
    /// document.
    pub fn convert_html(&self, html: &str) -> (XmlDocument, ConvertStats) {
        self.converter.convert_str(html)
    }

    /// Converts a corpus of HTML documents.
    pub fn convert_corpus(&self, htmls: &[String]) -> Vec<XmlDocument> {
        self.converter.convert_corpus(htmls)
    }

    /// Converts a corpus in parallel across `threads` workers.
    ///
    /// Document conversion is embarrassingly parallel (each document is
    /// independent); results are returned in input order and are identical
    /// to [`Pipeline::convert_corpus`]. The implementation lives on
    /// [`Converter::convert_corpus_parallel`] so the `webre-check`
    /// differential oracles can exercise it without depending on this
    /// facade crate.
    pub fn convert_corpus_parallel(&self, htmls: &[String], threads: usize) -> Vec<XmlDocument> {
        self.converter.convert_corpus_parallel(htmls, threads)
    }

    /// Discovers the majority schema and DTD for a set of XML documents.
    /// Path extraction, mining, and DTD derivation each run under their
    /// own span.
    ///
    /// Returns `None` for an empty corpus.
    pub fn discover_schema(&self, docs: &[XmlDocument]) -> Option<DiscoveryResult> {
        let paths: Vec<DocPaths> = obs::span(obs::stage::EXTRACT_PATHS, || {
            docs.iter().map(extract_paths).collect()
        });
        let outcome = self.miner.mine_view(paths.as_slice())?;
        let dtd = schema::derive_dtd(&outcome.schema, &paths, &self.dtd_config);
        Some(DiscoveryResult {
            schema: outcome.schema,
            dtd,
            paths,
            nodes_explored: outcome.nodes_explored,
        })
    }

    /// Maps a (possibly non-conforming) document onto a discovered DTD,
    /// under a `map-to-dtd` span.
    pub fn map_document(
        &self,
        doc: &XmlDocument,
        discovery: &DiscoveryResult,
    ) -> MapOutcome {
        obs::span(obs::stage::MAP, || {
            webre_map::map_to_dtd(doc, &discovery.schema, &discovery.dtd)
        })
    }

    /// Maps `doc` through the tiered planner (conformant / rejected /
    /// exact) instead of the always-exact [`Pipeline::map_document`] —
    /// the batch twin of `POST /map`.
    pub fn plan_document(
        &self,
        doc: &XmlDocument,
        discovery: &DiscoveryResult,
        planner: &webre_map::MapPlanner,
    ) -> webre_map::PlannedMap {
        planner.plan(doc, &discovery.schema, &discovery.dtd)
    }

    /// Full run: convert every HTML document, discover the schema, and map
    /// every document onto the derived DTD.
    pub fn run(&self, htmls: &[String]) -> Option<(DiscoveryResult, Vec<MapOutcome>)> {
        let docs: Vec<XmlDocument> = htmls.iter().map(|h| self.convert_html(h).0).collect();
        let discovery = self.discover_schema(&docs)?;
        let mapped = docs
            .iter()
            .map(|d| self.map_document(d, &discovery))
            .collect();
        Some((discovery, mapped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_corpus::CorpusGenerator;

    #[test]
    fn quickstart_converts() {
        let pipeline = Pipeline::resume_domain();
        let (xml, stats) = pipeline.convert_html(
            "<h2>Education</h2><ul><li>Stanford University, M.S., June 1996</li></ul>",
        );
        assert_eq!(xml.root_name(), "resume");
        assert!(stats.tokens_identified > 0);
    }

    #[test]
    fn end_to_end_pipeline_on_generated_corpus() {
        let corpus = CorpusGenerator::new(42).generate(12);
        let htmls: Vec<String> = corpus.iter().map(|d| d.html.clone()).collect();
        let pipeline = Pipeline::resume_domain().with_miner(FrequentPathMiner {
            sup_threshold: 0.5,
            ratio_threshold: 0.3,
            constraints: Some(webre_concepts::resume::constraints()),
            max_len: None,
        });
        let (discovery, mapped) = pipeline.run(&htmls).unwrap();
        assert_eq!(discovery.schema.root_label(), "resume");
        assert!(discovery.schema.len() > 3, "{}", discovery.schema.render());
        assert!(discovery.dtd.len() > 3);
        assert_eq!(mapped.len(), 12);
        // Mapping must achieve conformance for every document.
        let conforming = mapped.iter().filter(|m| m.conforms).count();
        assert!(
            conforming >= 11,
            "only {conforming}/12 conform: {}",
            discovery.dtd.to_dtd_string()
        );
    }

    #[test]
    fn discovery_on_empty_corpus_is_none() {
        let pipeline = Pipeline::resume_domain();
        assert!(pipeline.discover_schema(&[]).is_none());
    }

    #[test]
    fn builder_methods_apply() {
        let pipeline = Pipeline::resume_domain()
            .with_dtd_config(DtdConfig {
                rep_threshold: 2,
                ..DtdConfig::default()
            })
            .with_miner(FrequentPathMiner {
                sup_threshold: 0.4,
                ..FrequentPathMiner::default()
            });
        assert_eq!(pipeline.miner().sup_threshold, 0.4);
        assert!(pipeline.constraints().is_none());
    }
}
