//! Property tests for the restructuring rules: the invariants that make
//! the conversion sound regardless of input shape.

use webre_concepts::{resume, ConceptMatcher};
use webre_convert::convert::{ClassifierMode, ConvertStats};
use webre_convert::node::{ConvNode, ConvTree};
use webre_convert::structure_rules::{consolidation_rule, grouping_rule};
use webre_convert::text_rules::{concept_instance_rule, tokenization_rule};
use webre_substrate::prop::{self, Gen};
use webre_substrate::{prop_assert, prop_assert_eq};
use webre_text::tokenize::Delimiters;

const CASES: u32 = 128;

const TAGS: &[&str] = &[
    "div", "p", "h2", "ul", "li", "b", "table", "tr", "td", "span",
];

const TEXTS: &[&str] = &[
    "Stanford University, B.S., June 1996",
    "Education",
    "random unidentifiable prose",
    "Experience",
    "GPA 3.8/4.0; Verity Inc",
    "",
];

/// Random conversion trees: HTML elements with text sprinkled in.
fn gen_conv_tree(g: &mut Gen) -> ConvTree {
    let nodes = g.vec(0, 23, |g| {
        (g.int(0usize..12), *g.pick(TAGS), *g.pick(TEXTS), g.bool(0.5))
    });
    let mut conv = ConvTree::new();
    let mut ids = vec![conv.tree.root()];
    for (parent, tag, text, is_text) in nodes {
        let p = ids[parent % ids.len()];
        // Text may not have children: only attach elements under
        // elements/document; text becomes a leaf.
        if is_text {
            conv.append_text(p, text.to_owned());
        } else {
            ids.push(conv.tree.append_child(
                p,
                ConvNode::Html {
                    name: tag.into(),
                    val: String::new(),
                },
            ));
        }
    }
    conv
}

fn resume_matcher() -> ConceptMatcher {
    ConceptMatcher::new(&resume::concepts())
}

fn run_pipeline(conv: &mut ConvTree) -> ConvertStats {
    let mut stats = ConvertStats::default();
    tokenization_rule(conv, &Delimiters::default());
    concept_instance_rule(
        conv,
        &resume_matcher(),
        &ClassifierMode::SynonymsOnly,
        None,
        &mut stats,
    );
    grouping_rule(&mut conv.tree);
    consolidation_rule(&mut conv.tree);
    stats
}

fn concept_count(conv: &ConvTree) -> usize {
    conv.tree
        .descendants(conv.tree.root())
        .filter(|n| conv.tree.value(*n).concept_name().is_some())
        .count()
}

/// After the full rule pipeline only concept nodes remain attached
/// (plus the document root): every HTML/GROUP/TOKEN/TEXT node is gone.
#[test]
fn consolidation_eliminates_all_markup() {
    prop::check_cases("consolidation_eliminates_all_markup", CASES, |g| {
        let mut conv = gen_conv_tree(g);
        run_pipeline(&mut conv);
        let tree = &conv.tree;
        for id in tree.descendants(tree.root()) {
            if id == tree.root() {
                continue;
            }
            prop_assert!(
                tree.value(id).concept_name().is_some(),
                "survivor: {:?}",
                tree.value(id)
            );
        }
        prop_assert!(tree.check_integrity().is_ok());
        Ok(())
    });
}

/// The structure rules never create or destroy concept nodes: the
/// number of concepts after consolidation equals the number identified
/// by the text rules.
#[test]
fn structure_rules_preserve_concepts() {
    prop::check_cases("structure_rules_preserve_concepts", CASES, |g| {
        let mut conv = gen_conv_tree(g);
        let mut stats = ConvertStats::default();
        tokenization_rule(&mut conv, &Delimiters::default());
        concept_instance_rule(
            &mut conv,
            &resume_matcher(),
            &ClassifierMode::SynonymsOnly,
            None,
            &mut stats,
        );
        let before = concept_count(&conv);
        grouping_rule(&mut conv.tree);
        prop_assert_eq!(concept_count(&conv), before, "grouping changed concepts");
        consolidation_rule(&mut conv.tree);
        prop_assert_eq!(
            concept_count(&conv),
            before,
            "consolidation changed concepts"
        );
        Ok(())
    });
}

/// Grouping only ever adds GROUP nodes: the multiset of non-group
/// nodes is unchanged.
#[test]
fn grouping_only_adds_groups() {
    prop::check_cases("grouping_only_adds_groups", CASES, |g| {
        let mut conv = gen_conv_tree(g);
        let tree = &mut conv.tree;
        let before: usize = tree.subtree_size(tree.root());
        let groups_before = tree
            .descendants(tree.root())
            .filter(|n| matches!(tree.value(*n), ConvNode::Group { .. }))
            .count();
        grouping_rule(tree);
        let after_non_group = tree
            .descendants(tree.root())
            .filter(|n| !matches!(tree.value(*n), ConvNode::Group { .. }))
            .count();
        prop_assert_eq!(after_non_group, before - groups_before);
        prop_assert!(tree.check_integrity().is_ok());
        Ok(())
    });
}

/// No text is lost: every character of identified/unidentified token
/// content survives somewhere in the vals of the final tree.
#[test]
fn text_is_never_lost() {
    prop::check_cases("text_is_never_lost", CASES, |g| {
        let mut conv = gen_conv_tree(g);
        // Gather all non-whitespace text before.
        let mut before = String::new();
        for id in conv.tree.descendants(conv.tree.root()) {
            if let Some(t) = conv.node_text(id) {
                before.extend(
                    t.chars()
                        .filter(|c| !c.is_whitespace() && !matches!(c, ';' | ',' | ':')),
                );
            }
        }
        run_pipeline(&mut conv);
        let mut after = String::new();
        for id in conv.tree.descendants(conv.tree.root()) {
            if let Some(v) = conv.tree.value(id).val() {
                after.extend(
                    v.chars()
                        .filter(|c| !c.is_whitespace() && !matches!(c, ';' | ',' | ':')),
                );
            }
        }
        // Every character class count must survive (order may differ since
        // vals merge); compare as sorted character multisets.
        let mut b: Vec<char> = before.chars().collect();
        let mut a: Vec<char> = after.chars().collect();
        b.sort_unstable();
        a.sort_unstable();
        prop_assert_eq!(a, b);
        Ok(())
    });
}

/// Statistics are internally consistent.
#[test]
fn stats_add_up() {
    prop::check_cases("stats_add_up", CASES, |g| {
        let mut conv = gen_conv_tree(g);
        let stats = run_pipeline(&mut conv);
        prop_assert_eq!(
            stats.tokens_identified + stats.tokens_unidentified,
            stats.tokens_total
        );
        prop_assert!(stats.tokens_via_classifier <= stats.tokens_identified);
        prop_assert!(stats.tokens_decomposed <= stats.tokens_identified);
        Ok(())
    });
}
