//! The structure rules: grouping and consolidation (Section 2.3.2).

use crate::node::ConvNode;
use webre_concepts::{Constraint, ConstraintSet};
use webre_html::taxonomy::Tag;
use webre_obs::{count, counter, span, stage};
use webre_tree::{NodeId, Tree};

/// Applies the grouping rule top-down.
///
/// At each level, the group tag with the highest priority among the
/// element children is selected; for every child `Nᵢ` with that tag, all
/// siblings between `Nᵢ` and the next same-tag sibling (or the end of the
/// child list) sink under a fresh `GROUP` node that becomes a child of
/// `Nᵢ`. Because groups sink, group tags of lower priority are handled at
/// the next lower level on the following top-down step.
///
/// Runs under a `grouping-rule` span; every `GROUP` node sunk feeds the
/// `groups_sunk` counter.
pub fn grouping_rule(tree: &mut Tree<ConvNode>) {
    span(stage::GROUPING, || {
        // Worklist DFS: children may gain GROUP nodes while we walk, so
        // we re-fetch child lists after processing each node.
        let mut groups_sunk = 0u64;
        let mut work = vec![tree.root()];
        let mut children: Vec<NodeId> = Vec::new();
        while let Some(node) = work.pop() {
            groups_sunk += group_children(tree, node, &mut children);
            work.extend(tree.children(node));
        }
        if groups_sunk > 0 {
            count(counter::GROUPS_SUNK, groups_sunk);
        }
    })
}

/// Index of the first child in `children[from..]` carrying `tag`.
fn next_marker(
    tree: &Tree<ConvNode>,
    children: &[NodeId],
    from: usize,
    tag: &Tag,
) -> Option<usize> {
    children[from..]
        .iter()
        .position(|&c| tree.value(c).html_tag() == Some(tag))
        .map(|i| from + i)
}

/// Runs one grouping step over the direct children of `parent`, returning
/// the number of `GROUP` nodes created. `children` is scratch space.
fn group_children(tree: &mut Tree<ConvNode>, parent: NodeId, children: &mut Vec<NodeId>) -> u64 {
    // Find the highest-priority group tag among element children. Group
    // weights are distinct per tag, so the weight alone picks the tag.
    let best: Option<(u32, &Tag)> = tree
        .children(parent)
        .filter_map(|c| tree.value(c).html_tag())
        .filter_map(|tag| tag.group_weight().map(|w| (w, tag)))
        .max_by_key(|&(w, _)| w);
    let Some((_, tag)) = best else { return 0 };
    let tag = tag.clone();
    let mut created = 0u64;

    children.clear();
    children.extend(tree.children(parent));
    let mut marker = next_marker(tree, children, 0, &tag);
    while let Some(pos) = marker {
        let next = next_marker(tree, children, pos + 1, &tag);
        let span = &children[pos + 1..next.unwrap_or(children.len())];
        marker = next;
        if span.is_empty() {
            continue;
        }
        let group = tree.orphan(ConvNode::Group { val: String::new() });
        created += 1;
        tree.append(children[pos], group);
        for &sib in span {
            tree.detach(sib);
            tree.append(group, sib);
        }
    }
    created
}

/// Applies the consolidation rule bottom-up, eliminating all remaining
/// HTML markup and temporary `GROUP` nodes.
///
/// For a non-concept node `N`:
/// * no children → `N` is deleted (its accumulated `val` moves to the
///   parent so no text is lost);
/// * `N` is a list tag, a `GROUP` whose children share one concept name,
///   or all children carry the same concept name → the children push up,
///   replacing `N` (their sibling relationship is maintained);
/// * otherwise → `N` is replaced by its first concept child, and the
///   remaining children become that child's children (Figure 1).
pub fn consolidation_rule(tree: &mut Tree<ConvNode>) {
    consolidation_rule_with(tree, None);
}

/// [`consolidation_rule`] with concept constraints: per the paper, "the
/// rule can also utilize existing concept constraints in order to
/// determine whether a node (concept) can become a parent or sibling of
/// another node" — the promoted child is the first concept child that the
/// constraints admit as a parent of its siblings-to-be.
///
/// Runs under a `consolidation-rule` span; every structural
/// (HTML/`GROUP`) node the rule eliminates feeds the
/// `nodes_consolidated` counter.
pub fn consolidation_rule_with(tree: &mut Tree<ConvNode>, constraints: Option<&ConstraintSet>) {
    span(stage::CONSOLIDATION, || consolidate(tree, constraints))
}

/// The consolidation rule's post-order pass.
fn consolidate(tree: &mut Tree<ConvNode>, constraints: Option<&ConstraintSet>) {
    let mut consolidated = 0u64;
    let mut children: Vec<NodeId> = Vec::new();
    let mut concept_children: Vec<NodeId> = Vec::new();
    let order: Vec<NodeId> = tree.post_order(tree.root()).collect();
    for id in order {
        if id == tree.root() || !tree.is_attached(id) {
            continue;
        }
        let is_structural = matches!(
            tree.value(id),
            ConvNode::Html { .. } | ConvNode::Group { .. }
        );
        if !is_structural {
            continue;
        }
        consolidated += 1;
        let parent = tree.parent(id).expect("attached non-root");
        if tree.is_leaf(id) {
            let val = tree.value_mut(id).take_val();
            tree.value_mut(parent).absorb_val(val);
            tree.detach(id);
            continue;
        }
        children.clear();
        children.extend(tree.children(id));
        if should_push_up(tree, id, &children) {
            // The node's accumulated text describes its content: hand it to
            // the first pushed-up child rather than the parent, so e.g. a
            // heading's stray text stays with its section concept.
            let val = tree.value_mut(id).take_val();
            tree.value_mut(children[0]).absorb_val(val);
            tree.replace_with_children(id);
        } else {
            promote_first_concept(tree, id, &children, constraints, &mut concept_children);
        }
    }
    if consolidated > 0 {
        count(counter::NODES_CONSOLIDATED, consolidated);
    }
}

/// Whether the constraints forbid `parent` becoming an ancestor of
/// `child` (a negated `parent(parent, child)` constraint).
fn parent_forbidden(constraints: &ConstraintSet, parent: &str, child: &str) -> bool {
    constraints.iter().any(|c| {
        matches!(c, Constraint::Parent { ancestor, descendant, negated: true }
            if ancestor == parent && descendant == child)
    })
}

/// Decides the push-up case of the consolidation rule.
fn should_push_up(tree: &Tree<ConvNode>, id: NodeId, children: &[NodeId]) -> bool {
    if tree.value(id).html_tag().is_some_and(Tag::is_list_tag) {
        return true;
    }
    // All children carry the same concept name.
    let mut names = children.iter().map(|c| tree.value(*c).concept_name());
    match names.next().flatten() {
        Some(first) => names.all(|n| n == Some(first)),
        None => false,
    }
}

/// Replaces `id` by its first admissible concept child; remaining children
/// are appended to that child, preserving order. `concept_children` is
/// scratch space.
///
/// Without constraints "admissible" is simply "first concept child". With
/// constraints, a child is skipped when a negated `parent` constraint
/// forbids it from parenting one of the other concept children; if no
/// child qualifies, the first concept child wins after all (constraints
/// are hints, not hard failures).
fn promote_first_concept(
    tree: &mut Tree<ConvNode>,
    id: NodeId,
    children: &[NodeId],
    constraints: Option<&ConstraintSet>,
    concept_children: &mut Vec<NodeId>,
) {
    concept_children.clear();
    concept_children.extend(
        children
            .iter()
            .copied()
            .filter(|c| tree.value(*c).concept_name().is_some()),
    );
    let admissible = constraints.and_then(|cs| {
        concept_children.iter().copied().find(|cand| {
            let cand_name = tree.value(*cand).concept_name().expect("concept");
            concept_children.iter().all(|other| {
                other == cand
                    || !parent_forbidden(
                        cs,
                        cand_name,
                        tree.value(*other).concept_name().expect("concept"),
                    )
            })
        })
    });
    // Bottom-up processing guarantees children are concept nodes by now.
    let Some(first) = admissible.or(concept_children.first().copied()) else {
        // Defensive: no concept child (possible if text rules identified
        // nothing). Fall back to pushing children up.
        let parent = tree.parent(id).expect("attached non-root");
        let val = tree.value_mut(id).take_val();
        tree.value_mut(parent).absorb_val(val);
        tree.replace_with_children(id);
        return;
    };
    let val = tree.value_mut(id).take_val();
    tree.value_mut(first).absorb_val(val);
    for &child in children {
        if child != first {
            tree.detach(child);
            tree.append(first, child);
        }
    }
    tree.replace_with(id, first);
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_tree::render_with;

    fn label(n: &ConvNode) -> String {
        match n {
            ConvNode::Document { .. } => "#doc".into(),
            ConvNode::Html { name, .. } => name.to_string(),
            ConvNode::Text(_) => "#text".into(),
            ConvNode::Token(_) => "#token".into(),
            ConvNode::Group { .. } => "GROUP".into(),
            ConvNode::Concept { name, .. } => name.to_uppercase(),
        }
    }

    fn render(tree: &Tree<ConvNode>) -> String {
        render_with(tree, tree.root(), label)
    }

    fn doc_root() -> Tree<ConvNode> {
        Tree::new(ConvNode::Document { val: String::new() })
    }

    fn html(tree: &mut Tree<ConvNode>, parent: NodeId, name: &str) -> NodeId {
        tree.append_child(
            parent,
            ConvNode::Html {
                name: name.into(),
                val: String::new(),
            },
        )
    }

    fn concept(tree: &mut Tree<ConvNode>, parent: NodeId, name: &str) -> NodeId {
        tree.append_child(
            parent,
            ConvNode::Concept {
                name: name.into(),
                val: String::new(),
            },
        )
    }

    #[test]
    fn grouping_sinks_right_siblings() {
        // h2 A B h2 C  →  h2(GROUP(A,B)) h2(GROUP(C))
        let mut tree = doc_root();
        let root = tree.root();
        let h2a = html(&mut tree, root, "h2");
        concept(&mut tree, root, "a");
        concept(&mut tree, root, "b");
        let h2b = html(&mut tree, root, "h2");
        concept(&mut tree, root, "c");
        grouping_rule(&mut tree);
        assert_eq!(tree.children(root).count(), 2);
        let g1 = tree.first_child(h2a).unwrap();
        assert!(matches!(tree.value(g1), ConvNode::Group { .. }));
        assert_eq!(tree.children(g1).count(), 2);
        let g2 = tree.first_child(h2b).unwrap();
        assert_eq!(tree.children(g2).count(), 1);
        tree.check_integrity().unwrap();
    }

    #[test]
    fn grouping_prefers_higher_weight_tag() {
        // p X h2 Y: h2 outranks p, so h2 captures Y; the p keeps X at this
        // level only after recursion into p (no group tag inside).
        let mut tree = doc_root();
        let root = tree.root();
        html(&mut tree, root, "p");
        concept(&mut tree, root, "x");
        let h2 = html(&mut tree, root, "h2");
        concept(&mut tree, root, "y");
        grouping_rule(&mut tree);
        // h2 captured only y; p and x remain top-level siblings.
        let top: Vec<String> = tree.children(root).map(|c| label(tree.value(c))).collect();
        assert_eq!(top, ["p", "X", "h2"], "{}", render(&tree));
        let g = tree.first_child(h2).unwrap();
        assert_eq!(tree.children(g).count(), 1);
    }

    #[test]
    fn grouping_recurses_into_sunk_groups() {
        // h2 p A p B  →  h2(GROUP(p(GROUP(A)), p(GROUP(B))))
        let mut tree = doc_root();
        let root = tree.root();
        html(&mut tree, root, "h2");
        html(&mut tree, root, "p");
        concept(&mut tree, root, "a");
        html(&mut tree, root, "p");
        concept(&mut tree, root, "b");
        grouping_rule(&mut tree);
        let rendered = render(&tree);
        assert_eq!(
            rendered,
            "#doc\n  h2\n    GROUP\n      p\n        GROUP\n          A\n      p\n        GROUP\n          B\n"
        );
    }

    #[test]
    fn grouping_without_group_tags_is_noop() {
        let mut tree = doc_root();
        let root = tree.root();
        let table = html(&mut tree, root, "table");
        concept(&mut tree, table, "a");
        let before = render(&tree);
        grouping_rule(&mut tree);
        assert_eq!(render(&tree), before);
    }

    #[test]
    fn consolidation_paper_figure_1() {
        // Build the upper tree of Figure 1:
        // h2(EDUCATION, ul(GROUP(DATE,INST,DEGREE), GROUP(DATE,INST,DEGREE)))
        let mut tree = doc_root();
        let root = tree.root();
        let h2 = html(&mut tree, root, "h2");
        tree.append_child(
            h2,
            ConvNode::Concept {
                name: "education".into(),
                val: "Education".into(),
            },
        );
        let ul = html(&mut tree, h2, "ul");
        for _ in 0..2 {
            let g = tree.append_child(ul, ConvNode::Group { val: String::new() });
            concept(&mut tree, g, "date");
            concept(&mut tree, g, "institution");
            concept(&mut tree, g, "degree");
        }
        consolidation_rule(&mut tree);
        // Expected lower tree: EDUCATION(DATE(INST,DEGREE), DATE(INST,DEGREE))
        assert_eq!(
            render(&tree),
            "#doc\n  EDUCATION\n    DATE\n      INSTITUTION\n      DEGREE\n    DATE\n      INSTITUTION\n      DEGREE\n"
        );
        tree.check_integrity().unwrap();
    }

    #[test]
    fn consolidation_deletes_empty_markup() {
        let mut tree = doc_root();
        let root = tree.root();
        let div = html(&mut tree, root, "div");
        html(&mut tree, div, "span");
        consolidation_rule(&mut tree);
        assert!(tree.is_leaf(root));
    }

    #[test]
    fn consolidation_preserves_val_of_deleted_leaves() {
        let mut tree = doc_root();
        let root = tree.root();
        let c = concept(&mut tree, root, "education");
        let p = tree.append_child(
            c,
            ConvNode::Html {
                name: "p".into(),
                val: "stray text".into(),
            },
        );
        let _ = p;
        consolidation_rule(&mut tree);
        assert_eq!(tree.value(c).val(), Some("stray text"));
    }

    #[test]
    fn list_tag_pushes_up_mixed_children() {
        // ul(DATE, DEGREE): a list tag pushes up even non-uniform children.
        let mut tree = doc_root();
        let root = tree.root();
        let c = concept(&mut tree, root, "education");
        let ul = html(&mut tree, c, "ul");
        concept(&mut tree, ul, "date");
        concept(&mut tree, ul, "degree");
        consolidation_rule(&mut tree);
        assert_eq!(
            render(&tree),
            "#doc\n  EDUCATION\n    DATE\n    DEGREE\n"
        );
    }

    #[test]
    fn same_named_children_push_up_through_non_list_tag() {
        let mut tree = doc_root();
        let root = tree.root();
        let c = concept(&mut tree, root, "skills");
        let div = html(&mut tree, c, "div");
        concept(&mut tree, div, "position");
        concept(&mut tree, div, "position");
        consolidation_rule(&mut tree);
        assert_eq!(
            render(&tree),
            "#doc\n  SKILLS\n    POSITION\n    POSITION\n"
        );
    }

    #[test]
    fn non_uniform_children_promote_first_concept() {
        let mut tree = doc_root();
        let root = tree.root();
        let div = html(&mut tree, root, "div");
        concept(&mut tree, div, "date");
        concept(&mut tree, div, "institution");
        consolidation_rule(&mut tree);
        assert_eq!(render(&tree), "#doc\n  DATE\n    INSTITUTION\n");
    }

    #[test]
    fn constraints_steer_promotion() {
        use webre_concepts::{Constraint, ConstraintSet};
        // div(DATE, EDUCATION): unconstrained promotion picks DATE (first);
        // a negated parent(date, education) constraint steers it to
        // EDUCATION instead — the paper's homonym scenario.
        let build = || {
            let mut tree = doc_root();
            let root = tree.root();
            let div = html(&mut tree, root, "div");
            concept(&mut tree, div, "date");
            concept(&mut tree, div, "education");
            tree
        };
        let mut plain = build();
        consolidation_rule(&mut plain);
        assert_eq!(render(&plain), "#doc\n  DATE\n    EDUCATION\n");

        let constraints: ConstraintSet =
            [Constraint::parent("date", "education").negate()]
                .into_iter()
                .collect();
        let mut guided = build();
        consolidation_rule_with(&mut guided, Some(&constraints));
        assert_eq!(render(&guided), "#doc\n  EDUCATION\n    DATE\n");
    }

    #[test]
    fn constraints_fall_back_when_nothing_admissible() {
        use webre_concepts::{Constraint, ConstraintSet};
        let constraints: ConstraintSet = [
            Constraint::parent("date", "education").negate(),
            Constraint::parent("education", "date").negate(),
        ]
        .into_iter()
        .collect();
        let mut tree = doc_root();
        let root = tree.root();
        let div = html(&mut tree, root, "div");
        concept(&mut tree, div, "date");
        concept(&mut tree, div, "education");
        consolidation_rule_with(&mut tree, Some(&constraints));
        // Nothing admissible: first concept child wins (hint, not failure).
        assert_eq!(render(&tree), "#doc\n  DATE\n    EDUCATION\n");
    }

    #[test]
    fn grouping_then_consolidation_end_to_end() {
        // h2(EDUCATION-text) ul(li(date-ish)) pattern after text rules.
        let mut tree = doc_root();
        let root = tree.root();
        let h2 = html(&mut tree, root, "h2");
        tree.append_child(
            h2,
            ConvNode::Concept {
                name: "education".into(),
                val: "Education".into(),
            },
        );
        let ul = html(&mut tree, root, "ul");
        for _ in 0..2 {
            let li = html(&mut tree, ul, "li");
            concept(&mut tree, li, "date");
            concept(&mut tree, li, "degree");
        }
        grouping_rule(&mut tree);
        consolidation_rule(&mut tree);
        assert_eq!(
            render(&tree),
            "#doc\n  EDUCATION\n    DATE\n      DEGREE\n    DATE\n      DEGREE\n"
        );
        tree.check_integrity().unwrap();
    }
}
