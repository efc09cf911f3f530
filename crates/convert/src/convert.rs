//! The conversion pipeline: configuration, statistics, and the
//! [`Converter`] that wires the four restructuring rules together.

use crate::node::{finalize, ingest_owned};
use crate::structure_rules::{consolidation_rule_with, grouping_rule};
use crate::text_rules::{concept_instance_rule, tokenization_rule};
use webre_concepts::{ConceptMatcher, ConceptSet, ConstraintSet};
use webre_obs::{scoped, span, stage, with_current};
use webre_html::HtmlDocument;
use webre_text::tokenize::Delimiters;
use webre_text::BayesClassifier;
use webre_xml::XmlDocument;

/// How the concept instance rule identifies concepts in tokens
/// (Section 2.3.1 offers synonym matching and a Bayes classifier).
#[derive(Clone, Debug, Default)]
pub enum ClassifierMode {
    /// Synonym (concept instance) matching only.
    #[default]
    SynonymsOnly,
    /// Bayes classifier only; tokens classified as `unknown_label` (or
    /// below the margin) stay unidentified.
    BayesOnly {
        model: BayesClassifier,
        margin: f64,
        unknown_label: String,
    },
    /// Synonyms first; the classifier handles tokens synonyms miss.
    Both {
        model: BayesClassifier,
        margin: f64,
        unknown_label: String,
    },
}

impl ClassifierMode {
    /// Classifies a token via the Bayes model, if one is configured.
    /// Returns `None` for unidentified (including the unknown class).
    pub fn classify(&self, text: &str) -> Option<&str> {
        match self {
            ClassifierMode::SynonymsOnly => None,
            ClassifierMode::BayesOnly {
                model,
                margin,
                unknown_label,
            }
            | ClassifierMode::Both {
                model,
                margin,
                unknown_label,
            } => model
                .classify_with_margin(text, *margin)
                .filter(|l| l != unknown_label),
        }
    }
}

/// Configuration of the conversion pipeline.
#[derive(Clone, Debug)]
pub struct ConvertConfig {
    /// Tokenization delimiters (the paper uses `; , :`).
    pub delimiters: Delimiters,
    /// Concept used as the XML document root (e.g. `resume`).
    pub root_concept: String,
    /// Concept identification mode.
    pub classifier: ClassifierMode,
    /// Run the HTML-Tidy-like cleanup first (the paper reports it improves
    /// accuracy; Section 2.4).
    pub tidy: bool,
    /// Apply the grouping rule (disable for the rule-ablation experiment).
    pub grouping: bool,
    /// Apply the consolidation rule (disable for the rule-ablation
    /// experiment).
    pub consolidation: bool,
    /// Optional concept constraints; when present, negated sibling
    /// constraints guide multi-instance token decomposition (Section
    /// 2.3.1: "concept constraints describing typical sibling
    /// relationships can be employed in order to determine a proper
    /// decomposition").
    pub constraints: Option<ConstraintSet>,
}

impl Default for ConvertConfig {
    fn default() -> Self {
        ConvertConfig {
            delimiters: Delimiters::default(),
            root_concept: "resume".into(),
            classifier: ClassifierMode::SynonymsOnly,
            tidy: true,
            grouping: true,
            consolidation: true,
            constraints: None,
        }
    }
}

/// Counters reported by one conversion run.
///
/// The ratio of identified to unidentifiable tokens is the user feedback
/// signal the paper describes: a low ratio tells the user to add concept
/// instances or classifier training data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConvertStats {
    /// Tokens produced by the tokenization rule.
    pub tokens_total: u64,
    /// Tokens related to at least one concept.
    pub tokens_identified: u64,
    /// Tokens identified by the Bayes classifier (subset of identified).
    pub tokens_via_classifier: u64,
    /// Tokens whose text was passed to the parent `val`.
    pub tokens_unidentified: u64,
    /// Tokens containing more than one concept instance (decomposed).
    pub tokens_decomposed: u64,
}

impl ConvertStats {
    /// Fraction of tokens identified, or `None` with no tokens.
    pub fn identification_ratio(&self) -> Option<f64> {
        (self.tokens_total > 0)
            .then(|| self.tokens_identified as f64 / self.tokens_total as f64)
    }

    /// Accumulates another document's counters into this one, so callers
    /// converting a stream of documents (the CLI batch commands, the
    /// serving subsystem's live corpus) can report corpus-level totals
    /// without holding per-document stats.
    pub fn merge(&mut self, other: &ConvertStats) {
        self.tokens_total += other.tokens_total;
        self.tokens_identified += other.tokens_identified;
        self.tokens_via_classifier += other.tokens_via_classifier;
        self.tokens_unidentified += other.tokens_unidentified;
        self.tokens_decomposed += other.tokens_decomposed;
    }
}

impl std::ops::AddAssign<&ConvertStats> for ConvertStats {
    fn add_assign(&mut self, other: &ConvertStats) {
        self.merge(other);
    }
}

/// Converts topic-specific HTML documents into concept-tagged XML.
///
/// Construction compiles the concept catalogue into an Aho–Corasick
/// [`ConceptMatcher`] once; every subsequent conversion reuses it, so the
/// per-document cost of concept matching no longer scales with catalogue
/// size.
#[derive(Clone, Debug)]
pub struct Converter {
    concepts: ConceptSet,
    config: ConvertConfig,
    matcher: ConceptMatcher,
}

impl Converter {
    /// Creates a converter over the given topic concepts with default
    /// configuration.
    pub fn new(concepts: ConceptSet) -> Self {
        Self::with_config(concepts, ConvertConfig::default())
    }

    /// Creates a converter with explicit configuration.
    pub fn with_config(concepts: ConceptSet, config: ConvertConfig) -> Self {
        let matcher = ConceptMatcher::new(&concepts);
        Converter {
            concepts,
            config,
            matcher,
        }
    }

    /// The concept set in use.
    pub fn concepts(&self) -> &ConceptSet {
        &self.concepts
    }

    /// The precompiled concept-matching automaton.
    pub fn matcher(&self) -> &ConceptMatcher {
        &self.matcher
    }

    /// The configuration in use.
    pub fn config(&self) -> &ConvertConfig {
        &self.config
    }

    /// Converts one parsed HTML document, returning the XML document and
    /// the conversion statistics.
    ///
    /// Borrows the input, so the document is cloned before the (mutating)
    /// tidy pass. Callers that can give up the document should prefer
    /// [`Converter::convert_owned`] — the clone duplicated every
    /// element's attribute vector on each conversion, which is exactly the
    /// overhead the owned path removes.
    pub fn convert(&self, html: &HtmlDocument) -> (XmlDocument, ConvertStats) {
        self.convert_owned(html.clone())
    }

    /// Converts one parsed HTML document, consuming it: names and text
    /// move into the conversion arena instead of being copied.
    ///
    /// The conversion runs under a `convert` span with one child span per
    /// pipeline stage (tidy plus the four restructuring rules), and the
    /// rules feed their firing counters. Output is byte-identical whether
    /// or not anything records — the `trace-noop` oracle in `webre-check`
    /// holds this over fuzzed corpora.
    pub fn convert_owned(&self, mut html: HtmlDocument) -> (XmlDocument, ConvertStats) {
        span(stage::CONVERT, || {
            if self.config.tidy {
                span(stage::TIDY, || webre_html::tidy(&mut html));
            }
            let mut conv = ingest_owned(html);
            let mut stats = ConvertStats::default();
            tokenization_rule(&mut conv, &self.config.delimiters);
            concept_instance_rule(
                &mut conv,
                &self.matcher,
                &self.config.classifier,
                self.config.constraints.as_ref(),
                &mut stats,
            );
            if self.config.grouping {
                grouping_rule(&mut conv.tree);
            }
            if self.config.consolidation {
                consolidation_rule_with(&mut conv.tree, self.config.constraints.as_ref());
            }
            (finalize(&conv, &self.config.root_concept), stats)
        })
    }

    /// Convenience: parse and convert HTML text. The parsed document is
    /// fed straight into the owned path — no clone.
    pub fn convert_str(&self, html: &str) -> (XmlDocument, ConvertStats) {
        self.convert_owned(webre_html::parse(html))
    }

    /// Converts a corpus of HTML documents sequentially.
    pub fn convert_corpus(&self, htmls: &[String]) -> Vec<XmlDocument> {
        htmls.iter().map(|h| self.convert_str(h).0).collect()
    }

    /// Converts a corpus in parallel across `threads` workers.
    ///
    /// Document conversion is embarrassingly parallel (each document is
    /// independent); results are returned in input order and are identical
    /// to [`Converter::convert_corpus`] — the `webre-check` differential
    /// oracle holds this equivalence over randomized tag-soup corpora.
    /// Each worker records through the caller's context, so the
    /// per-document `convert` spans nest under the caller's span.
    pub fn convert_corpus_parallel(&self, htmls: &[String], threads: usize) -> Vec<XmlDocument> {
        let threads = threads.max(1).min(htmls.len().max(1));
        if threads <= 1 || htmls.len() < 2 {
            return self.convert_corpus(htmls);
        }
        let mut results: Vec<Option<XmlDocument>> = Vec::new();
        results.resize_with(htmls.len(), || None);
        let chunk = htmls.len().div_ceil(threads);
        with_current(|ctx| {
            std::thread::scope(|scope| {
                for (inputs, outputs) in htmls.chunks(chunk).zip(results.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        scoped(ctx, || {
                            for (html, slot) in inputs.iter().zip(outputs.iter_mut()) {
                                *slot = Some(self.convert_str(html).0);
                            }
                        })
                    });
                }
            })
        });
        results
            .into_iter()
            .map(|d| d.expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_concepts::resume;
    use webre_xml::to_xml;

    fn converter() -> Converter {
        Converter::new(resume::concepts())
    }

    #[test]
    fn converts_heading_list_resume_fragment() {
        let html = "\
            <h2>Education</h2>\
            <ul>\
              <li>University of California at Davis, B.S., June 1996</li>\
              <li>Foothill College, A.A., June 1994</li>\
            </ul>";
        let (doc, stats) = converter().convert_str(html);
        let xml = to_xml(&doc);
        assert_eq!(doc.root_name(), "resume");
        // Education heads the section; each list item nests under its first
        // concept (the institution).
        assert!(xml.contains("<education"), "{xml}");
        assert!(xml.contains("institution"), "{xml}");
        assert!(xml.contains("degree"), "{xml}");
        assert!(xml.contains("date"), "{xml}");
        assert!(stats.identification_ratio().unwrap() > 0.8, "{stats:?}");
    }

    #[test]
    fn stats_track_unidentified_tokens() {
        let (_, stats) = converter().convert_str("<p>zorp blorp, qux flux</p>");
        assert_eq!(stats.tokens_total, 2);
        assert_eq!(stats.tokens_unidentified, 2);
        assert_eq!(stats.identification_ratio(), Some(0.0));
    }

    #[test]
    fn empty_document_yields_bare_root() {
        let (doc, stats) = converter().convert_str("");
        assert_eq!(to_xml(&doc), "<resume/>");
        assert_eq!(stats.tokens_total, 0);
        assert_eq!(stats.identification_ratio(), None);
    }

    #[test]
    fn page_title_merges_into_root() {
        let (doc, _) = converter().convert_str(
            "<html><head><title>Resume</title></head><body><h2>Objective</h2>\
             <p>A great job</p></body></html>",
        );
        assert_eq!(doc.root_name(), "resume");
        let xml = to_xml(&doc);
        // The unidentified paragraph and page-title text stay attached to
        // the surviving section concept via the val-flow rules rather than
        // being dropped.
        assert!(xml.starts_with("<resume>"), "{xml}");
        assert!(xml.contains(r#"<objective val="Objective A great job"#), "{xml}");
        assert!(doc.all_text().contains("Resume"), "title text kept: {xml}");
    }

    #[test]
    fn ablation_switches_change_output_shape() {
        let html = "<h2>Education</h2><ul><li>Stanford University, M.S., 1998</li></ul>";
        let full = converter().convert_str(html).0;
        let mut config = ConvertConfig {
            grouping: false,
            ..ConvertConfig::default()
        };
        let no_grouping =
            Converter::with_config(resume::concepts(), config.clone()).convert_str(html).0;
        config.grouping = true;
        config.consolidation = false;
        let no_consolidation =
            Converter::with_config(resume::concepts(), config).convert_str(html).0;
        let full_xml = to_xml(&full);
        let ng_xml = to_xml(&no_grouping);
        let nc_xml = to_xml(&no_consolidation);
        // Without grouping, education does not adopt the list contents.
        assert_ne!(full_xml, ng_xml);
        // Without consolidation the html scaffolding never goes away, so
        // the concepts end up flattened differently.
        assert_ne!(full_xml, nc_xml);
    }

    #[test]
    fn table_resume_converts() {
        let html = "\
            <table>\
              <tr><td>Experience</td></tr>\
              <tr><td>NehaNet Corp</td><td>Software Engineer</td><td>1999 - present</td></tr>\
            </table>";
        let (doc, _) = converter().convert_str(html);
        let xml = to_xml(&doc);
        assert!(xml.contains("experience"), "{xml}");
        assert!(xml.contains("employer") || xml.contains("position"), "{xml}");
    }

    #[test]
    fn stats_merge_sums_counters() {
        let c = converter();
        let (_, a) = c.convert_str("<p>zorp blorp, qux flux</p>");
        let (_, b) = c.convert_str("<h2>Education</h2><p>Stanford University</p>");
        let mut total = ConvertStats::default();
        total.merge(&a);
        total += &b;
        assert_eq!(total.tokens_total, a.tokens_total + b.tokens_total);
        assert_eq!(
            total.tokens_identified,
            a.tokens_identified + b.tokens_identified
        );
        assert_eq!(
            total.tokens_unidentified,
            a.tokens_unidentified + b.tokens_unidentified
        );
    }

    #[test]
    fn parallel_conversion_nests_under_the_callers_span() {
        use webre_obs::clock::FakeClock;
        use webre_obs::trace::TraceRecorder;
        use webre_obs::Ctx;
        let htmls: Vec<String> = (0..9)
            .map(|i| {
                format!(
                    "<h2>Education</h2><ul><li>Stanford University, M.S., {}</li></ul>\
                     <h2>Skills</h2><p>C++, Java, tool{i}</p>",
                    1990 + i
                )
            })
            .collect();
        let c = converter();
        let recorder = TraceRecorder::new(Box::new(FakeClock::new(1_000)));
        let parallel = scoped(Ctx::new(&recorder), || {
            span(stage::REQUEST, || c.convert_corpus_parallel(&htmls, 4))
        });
        let xml = |docs: &[XmlDocument]| docs.iter().map(to_xml).collect::<Vec<_>>();
        assert_eq!(xml(&parallel), xml(&c.convert_corpus(&htmls)));
        let spans = recorder.spans();
        assert_eq!(spans[0].name, stage::REQUEST);
        let converts: Vec<_> = spans.iter().filter(|s| s.name == stage::CONVERT).collect();
        assert_eq!(converts.len(), htmls.len());
        assert!(converts.iter().all(|s| s.parent == Some(0)), "{spans:?}");
        assert!(spans.iter().all(|s| s.end_ns.is_some()));
    }

    #[test]
    fn conversion_is_deterministic() {
        let html = "<h2>Skills</h2><p>C++, Java, Perl</p>";
        let a = to_xml(&converter().convert_str(html).0);
        let b = to_xml(&converter().convert_str(html).0);
        assert_eq!(a, b);
    }
}
