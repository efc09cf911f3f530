//! The text rules: tokenization and concept instance identification
//! (Section 2.3.1).
//!
//! Both rules work on the [`ConvTree`] arena: token text is read through
//! spans borrowed from the tree's text buffers (a split borrow — `texts`
//! immutably, `tree` mutably), so neither rule clones token strings while
//! restructuring. Concept identification goes through the precompiled
//! [`ConceptMatcher`] automaton, one pass per token regardless of
//! catalogue size; the `matcher-vs-naive` oracle in `webre-check` pins its
//! equivalence to the naive reference scanner.

use std::sync::Arc;

use crate::convert::{ClassifierMode, ConvertStats};
use crate::node::{span_text, ConvNode, ConvTree};
use webre_concepts::{ConceptMatch, ConceptMatcher, ConstraintSet, MatchScratch};
use webre_obs::{counter, Ctx};
use webre_text::tokenize::{split_token_spans_into, Delimiters};
use webre_tree::NodeId;

/// Applies the tokenization rule to the whole tree, top-down: every text
/// node is replaced by `n ≥ 1` token nodes split on the delimiter set.
///
/// Text nodes containing no token content (delimiters/whitespace only)
/// simply disappear. Tokens are sub-spans of their text run's buffer — no
/// text is copied.
pub fn tokenization_rule(conv: &mut ConvTree, delimiters: &Delimiters) {
    tokenization_rule_obs(conv, delimiters, Ctx::disabled());
}

/// [`tokenization_rule`] with observability: produced tokens feed the
/// `tokens_split` counter. The tree transformation is identical.
pub fn tokenization_rule_obs(conv: &mut ConvTree, delimiters: &Delimiters, ctx: Ctx<'_>) {
    let ConvTree { tree, texts } = conv;
    let ids: Vec<NodeId> = tree.descendants(tree.root()).collect();
    let mut pieces: Vec<(usize, usize)> = Vec::new();
    for id in ids {
        let ConvNode::Text(span) = *tree.value(id) else {
            continue;
        };
        split_token_spans_into(span_text(span, texts), delimiters, &mut pieces);
        if !pieces.is_empty() {
            ctx.count(counter::TOKENS_SPLIT, pieces.len() as u64);
        }
        let mut anchor = id;
        for &(start, end) in &pieces {
            let node = tree.orphan(ConvNode::Token(span.sub(start, end)));
            tree.insert_after(anchor, node);
            anchor = node;
        }
        tree.detach(id);
    }
}

/// The concept names one rule run has handed out: concept nodes of the
/// same concept share one allocation instead of copying the name per node.
#[derive(Default)]
struct ConceptNames(Vec<Arc<str>>);

impl ConceptNames {
    fn get(&mut self, name: &str) -> Arc<str> {
        if let Some(known) = self.0.iter().find(|known| ***known == *name) {
            return Arc::clone(known);
        }
        let fresh: Arc<str> = Arc::from(name);
        self.0.push(Arc::clone(&fresh));
        fresh
    }
}

/// Number of distinct concepts among `matches`, capped at 2 — the rule
/// only distinguishes none, one, and several.
fn distinct_concepts(matches: &[ConceptMatch<'_>]) -> usize {
    match matches.first() {
        None => 0,
        Some(first) if matches.iter().all(|m| m.concept == first.concept) => 1,
        Some(_) => 2,
    }
}

/// Applies the concept instance rule to every token node, top-down.
///
/// * one concept identified → the token becomes `<C val="token text"/>`;
/// * several concepts identified → the token is decomposed at the instance
///   positions; text before the first instance goes to the parent's `val`;
/// * nothing identified (synonyms and, if configured, the Bayes classifier
///   both fail) → the token is deleted and its text passed to the parent's
///   `val`, so no information is lost.
pub fn concept_instance_rule(
    conv: &mut ConvTree,
    matcher: &ConceptMatcher,
    classifier: &ClassifierMode,
    constraints: Option<&ConstraintSet>,
    stats: &mut ConvertStats,
) {
    concept_instance_rule_obs(conv, matcher, classifier, constraints, stats, Ctx::disabled());
}

/// [`concept_instance_rule`] with observability: every concept node the
/// rule creates feeds the `concepts_matched` counter. The tree
/// transformation and statistics are identical.
pub fn concept_instance_rule_obs(
    conv: &mut ConvTree,
    matcher: &ConceptMatcher,
    classifier: &ClassifierMode,
    constraints: Option<&ConstraintSet>,
    stats: &mut ConvertStats,
    ctx: Ctx<'_>,
) {
    let ConvTree { tree, texts } = conv;
    let mut concepts_matched = 0u64;
    let mut names = ConceptNames::default();
    let mut scratch = MatchScratch::default();
    let mut matches: Vec<ConceptMatch<'_>> = Vec::new();
    let mut accepted: Vec<&str> = Vec::new();
    let ids: Vec<NodeId> = tree.descendants(tree.root()).collect();
    for id in ids {
        let ConvNode::Token(span) = *tree.value(id) else {
            continue;
        };
        let text = span_text(span, texts);
        stats.tokens_total += 1;
        match classifier {
            ClassifierMode::BayesOnly { .. } => matches.clear(),
            _ => matcher.find_matches_with(text, &mut scratch, &mut matches),
        }
        // Constraint-guided decomposition: a match whose concept is
        // forbidden as a sibling of an earlier accepted match is dropped
        // (its text then flows into the preceding concept's segment).
        if let Some(cs) = constraints {
            accepted.clear();
            matches.retain(|m| {
                let ok = accepted.iter().all(|a| cs.admits_siblings(a, m.concept));
                if ok {
                    accepted.push(m.concept);
                }
                ok
            });
        }
        match distinct_concepts(&matches) {
            0 => {
                // Synonyms failed; give the classifier a chance.
                if let Some(label) = classifier.classify(text) {
                    stats.tokens_identified += 1;
                    stats.tokens_via_classifier += 1;
                    concepts_matched += 1;
                    *tree.value_mut(id) = ConvNode::Concept {
                        name: names.get(label),
                        val: text.to_owned(),
                    };
                } else {
                    stats.tokens_unidentified += 1;
                    let parent = tree.parent(id).expect("token is never the root");
                    tree.value_mut(parent).push_val(text);
                    tree.detach(id);
                }
            }
            1 => {
                stats.tokens_identified += 1;
                concepts_matched += 1;
                *tree.value_mut(id) = ConvNode::Concept {
                    name: names.get(matches[0].concept),
                    val: text.to_owned(),
                };
            }
            _ => {
                // Decompose: each identified instance takes the text from
                // its own start up to the next instance's start; the text
                // before the first instance goes to the parent.
                stats.tokens_identified += 1;
                stats.tokens_decomposed += 1;
                concepts_matched += matches.len() as u64;
                let parent = tree.parent(id).expect("token is never the root");
                let first_start = matches[0].start;
                if first_start > 0 {
                    let prefix = text[..first_start].trim();
                    if !prefix.is_empty() {
                        tree.value_mut(parent).push_val(prefix);
                    }
                }
                let mut anchor = id;
                for (i, m) in matches.iter().enumerate() {
                    let end = matches.get(i + 1).map_or(text.len(), |n| n.start);
                    let segment = text[m.start..end].trim();
                    let node = tree.orphan(ConvNode::Concept {
                        name: names.get(m.concept),
                        val: segment.to_owned(),
                    });
                    tree.insert_after(anchor, node);
                    anchor = node;
                }
                tree.detach(id);
            }
        }
    }
    if concepts_matched > 0 {
        ctx.count(counter::CONCEPTS_MATCHED, concepts_matched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ingest;
    use webre_concepts::{resume, ConceptSet};
    use webre_html::parse;

    fn resume_matcher() -> ConceptMatcher {
        ConceptMatcher::new(&resume::concepts())
    }

    fn tokens_of(conv: &ConvTree) -> Vec<String> {
        conv.tree
            .descendants(conv.tree.root())
            .filter_map(|n| match conv.tree.value(n) {
                ConvNode::Token(span) => Some(conv.text(*span).to_owned()),
                _ => None,
            })
            .collect()
    }

    fn concepts_of(conv: &ConvTree) -> Vec<(String, String)> {
        conv.tree
            .descendants(conv.tree.root())
            .filter_map(|n| match conv.tree.value(n) {
                ConvNode::Concept { name, val } => Some((name.to_string(), val.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn tokenization_splits_topic_sentence() {
        let html = parse("<li>UC Davis, B.S., June 1996</li>");
        let mut conv = ingest(&html);
        tokenization_rule(&mut conv, &Delimiters::default());
        assert_eq!(tokens_of(&conv), ["UC Davis", "B.S.", "June 1996"]);
    }

    #[test]
    fn tokenization_drops_empty_text() {
        let html = parse("<p>;;;</p>");
        let mut conv = ingest(&html);
        tokenization_rule(&mut conv, &Delimiters::default());
        assert!(tokens_of(&conv).is_empty());
    }

    #[test]
    fn tokenization_allocates_no_token_strings() {
        // The whole point of the span representation: tokenizing adds
        // nodes but never new text buffers.
        let html = parse("<li>UC Davis, B.S., June 1996</li><p>Skills: C++; Perl</p>");
        let mut conv = ingest(&html);
        let buffers_before = conv.buffer_count();
        tokenization_rule(&mut conv, &Delimiters::default());
        assert_eq!(conv.buffer_count(), buffers_before);
        assert_eq!(tokens_of(&conv).len(), 6);
    }

    #[test]
    fn instance_rule_paper_example() {
        // The paper's running example (Section 2.3.1, case 1).
        let html = parse(
            "<p>University of California at Davis, B.S.(Computer Science), June 1996, GPA 3.8/4.0</p>",
        );
        let mut conv = ingest(&html);
        tokenization_rule(&mut conv, &Delimiters::default());
        let mut stats = ConvertStats::default();
        concept_instance_rule(
            &mut conv,
            &resume_matcher(),
            &ClassifierMode::SynonymsOnly,
            None,
            &mut stats,
        );
        let found = concepts_of(&conv);
        assert_eq!(found.len(), 4, "{found:?}");
        assert_eq!(found[0].0, "institution");
        assert_eq!(found[0].1, "University of California at Davis");
        assert_eq!(found[1].0, "degree");
        assert_eq!(found[2].0, "date");
        assert_eq!(found[3].0, "gpa");
        assert_eq!(stats.tokens_total, 4);
        assert_eq!(stats.tokens_identified, 4);
    }

    #[test]
    fn unidentified_token_passes_text_to_parent() {
        let html = parse("<p>completely unrecognizable zorp</p>");
        let mut conv = ingest(&html);
        tokenization_rule(&mut conv, &Delimiters::default());
        let mut stats = ConvertStats::default();
        concept_instance_rule(
            &mut conv,
            &resume_matcher(),
            &ClassifierMode::SynonymsOnly,
            None,
            &mut stats,
        );
        assert!(concepts_of(&conv).is_empty());
        assert_eq!(stats.tokens_unidentified, 1);
        // The <p> keeps the text in its val.
        let p = conv.tree.first_child(conv.tree.root()).unwrap();
        assert_eq!(
            conv.tree.value(p).val(),
            Some("completely unrecognizable zorp")
        );
    }

    #[test]
    fn multi_instance_token_is_decomposed() {
        // No delimiters at all: one token holding two concepts plus a
        // leading unidentified fragment.
        let html = parse("<p>worked hard B.S. Computer Science June 1996</p>");
        let mut conv = ingest(&html);
        tokenization_rule(&mut conv, &Delimiters::default());
        let mut stats = ConvertStats::default();
        concept_instance_rule(
            &mut conv,
            &resume_matcher(),
            &ClassifierMode::SynonymsOnly,
            None,
            &mut stats,
        );
        let found = concepts_of(&conv);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(found[0].0, "degree");
        assert_eq!(found[0].1, "B.S. Computer Science");
        assert_eq!(found[1].0, "date");
        assert_eq!(found[1].1, "June 1996");
        let p = conv.tree.first_child(conv.tree.root()).unwrap();
        assert_eq!(conv.tree.value(p).val(), Some("worked hard"));
        assert_eq!(stats.tokens_decomposed, 1);
    }

    #[test]
    fn negated_sibling_constraint_guides_decomposition() {
        use webre_concepts::Constraint;
        let html = parse("<p>worked hard B.S. Computer Science June 1996</p>");
        // Without constraints this token decomposes into degree + date
        // (see multi_instance_token_is_decomposed). A negated sibling
        // constraint between degree and date keeps the whole token with
        // the first (degree) match.
        let constraints: webre_concepts::ConstraintSet =
            [Constraint::sibling("degree", "date").negate()]
                .into_iter()
                .collect();
        let mut conv = ingest(&html);
        tokenization_rule(&mut conv, &Delimiters::default());
        let mut stats = ConvertStats::default();
        concept_instance_rule(
            &mut conv,
            &resume_matcher(),
            &ClassifierMode::SynonymsOnly,
            Some(&constraints),
            &mut stats,
        );
        let found = concepts_of(&conv);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].0, "degree");
        assert!(found[0].1.contains("June 1996"), "{found:?}");
        assert_eq!(stats.tokens_decomposed, 0);
    }

    #[test]
    fn bayes_classifier_rescues_unmatched_tokens() {
        use webre_text::BayesTrainer;
        let mut t = BayesTrainer::new();
        t.add("position", "software engineer intern");
        t.add("position", "senior developer");
        t.add("unknown", "lorem ipsum");
        let model = t.build().unwrap();
        let mode = ClassifierMode::Both {
            model,
            margin: 0.0,
            unknown_label: "unknown".into(),
        };
        let html = parse("<p>staff engineer</p>");
        let mut conv = ingest(&html);
        tokenization_rule(&mut conv, &Delimiters::default());
        let mut stats = ConvertStats::default();
        // Use an empty concept set so synonyms cannot match.
        let empty = ConceptMatcher::new(&ConceptSet::new());
        concept_instance_rule(&mut conv, &empty, &mode, None, &mut stats);
        let found = concepts_of(&conv);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, "position");
        assert_eq!(stats.tokens_via_classifier, 1);
    }

    #[test]
    fn bayes_unknown_label_means_unidentified() {
        use webre_text::BayesTrainer;
        let mut t = BayesTrainer::new();
        t.add("position", "software engineer");
        t.add("unknown", "random filler words");
        let model = t.build().unwrap();
        let mode = ClassifierMode::Both {
            model,
            margin: 0.0,
            unknown_label: "unknown".into(),
        };
        let html = parse("<p>random filler words</p>");
        let mut conv = ingest(&html);
        tokenization_rule(&mut conv, &Delimiters::default());
        let mut stats = ConvertStats::default();
        let empty = ConceptMatcher::new(&ConceptSet::new());
        concept_instance_rule(&mut conv, &empty, &mode, None, &mut stats);
        assert!(concepts_of(&conv).is_empty());
        assert_eq!(stats.tokens_unidentified, 1);
    }
}
