//! Common workload setup shared by benches and experiment binaries.

use webre::Pipeline;
use webre_corpus::CorpusGenerator;
use webre_schema::FrequentPathMiner;

/// The experiment pipeline: resume domain, paper-style thresholds.
pub fn paper_pipeline() -> Pipeline {
    Pipeline::resume_domain().with_miner(FrequentPathMiner {
        sup_threshold: 0.5,
        ratio_threshold: 0.3,
        constraints: Some(webre_concepts::resume::constraints()),
        max_len: None,
    })
}

/// Generates the HTML side of a corpus.
pub fn corpus_html(seed: u64, n: usize) -> Vec<String> {
    CorpusGenerator::new(seed)
        .generate(n)
        .into_iter()
        .map(|d| d.html)
        .collect()
}

/// Tokens of a page, extracted per text node (crossing element boundaries
/// would merge unrelated topic sentences), labeled via synonym matching
/// against `concepts` with `"unknown"` for unmatched tokens.
pub fn labeled_tokens(
    html: &str,
    concepts: &webre_concepts::ConceptSet,
) -> Vec<(String, String)> {
    use webre_text::tokenize::{split_tokens, Delimiters};
    let doc = webre_html::parse(html);
    let delims = Delimiters::default();
    let mut out = Vec::new();
    for id in doc.tree.descendants(doc.tree.root()) {
        if let webre_html::HtmlNode::Text(text) = doc.tree.value(id) {
            for token in split_tokens(text, &delims) {
                let label = webre_concepts::matcher::find_matches(concepts, &token)
                    .first()
                    .map(|m| m.concept.to_owned())
                    .unwrap_or_else(|| "unknown".to_owned());
                out.push((label, token));
            }
        }
    }
    out
}
