//! Admissible lower bounds on the unit-cost Zhang–Shasha edit distance.
//!
//! The tiered mapping planner ([`crate::planner`]) wants to skip the
//! quadratic edit-distance dynamic program whenever a cheap bound already
//! decides the outcome: a bound of zero on structurally identical trees
//! (the conformant fast path) or a bound above the reject budget (the
//! hopeless fast path). For that the bound must be **admissible** — it may
//! never exceed the true distance — or the planner would reject documents
//! the exact tier could still map within budget.
//!
//! pq-grams (Augsten et al.) were considered and rejected: the pq-gram
//! distance lower-bounds the *fanout-weighted* tree-edit distance, not the
//! plain Zhang–Shasha distance this crate reports, so using it here would
//! be unsound. Instead the filter combines three elementary invariants of
//! a single edit operation, each yielding a linear-time bound:
//!
//! 1. **Label histogram**: an optimal script matches `t` node pairs, of
//!    which at most `common = Σ_label min(countA, countB)` can be
//!    zero-cost matches; the remaining `t − common` pairs pay a relabel
//!    and the unmatched `n − t` / `m − t` nodes pay deletes / inserts.
//!    At unit costs a relabel (1) beats a delete plus an insert (2), so
//!    the minimum sits at `t = min(n, m)`: `max(n, m) − common`. The
//!    bound is exact on bag-disjoint trees.
//! 2. **Leaf count**: only a leaf delete can lower the leaf count and
//!    only a leaf insert can raise it, each by at most one — so a leaf
//!    deficit of `k` forces `k` deletes (or inserts, directionally).
//! 3. **Depth**: one edit changes the tree height by at most one, and
//!    only deletes shrink it / inserts grow it.
//!
//! The returned bound is the maximum of the three (a maximum of
//! admissible bounds is admissible). The property tests at the bottom
//! hold `lower_bound ≤` the [`crate::edit_script()`] cost over randomized
//! tree pairs and `lower_bound == 0` on identical trees.

use std::collections::BTreeMap;
use webre_tree::Tree;

/// Linear-time structural summary of a label tree, sufficient to evaluate
/// every bound in this module without touching the tree again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeProfile {
    /// Total node count.
    pub size: usize,
    /// Label multiset (ordered so rendering/debugging is deterministic).
    pub labels: BTreeMap<String, usize>,
    /// Leaf count.
    pub leaves: usize,
    /// Height in nodes (a single-node tree has depth 1).
    pub depth: usize,
}

impl TreeProfile {
    /// Profiles a label tree in one traversal.
    pub fn of_tree(tree: &Tree<String>) -> TreeProfile {
        let mut size = 0usize;
        let mut leaves = 0usize;
        let mut depth = 0usize;
        let mut labels: BTreeMap<String, usize> = BTreeMap::new();
        // Depth-first with explicit depth tracking.
        let mut stack = vec![(tree.root(), 1usize)];
        while let Some((id, d)) = stack.pop() {
            size += 1;
            depth = depth.max(d);
            *labels.entry(tree.value(id).clone()).or_insert(0) += 1;
            let mut child_count = 0usize;
            for c in tree.children(id) {
                child_count += 1;
                stack.push((c, d + 1));
            }
            if child_count == 0 {
                leaves += 1;
            }
        }
        TreeProfile {
            size,
            labels,
            leaves,
            depth,
        }
    }

    /// Shared label mass: `Σ_label min(countA, countB)`, an upper bound on
    /// the number of zero-cost matches any mapping can contain.
    fn common_labels(&self, other: &TreeProfile) -> usize {
        self.labels
            .iter()
            .map(|(label, &count)| count.min(other.labels.get(label).copied().unwrap_or(0)))
            .sum()
    }
}

/// An admissible lower bound on the [`crate::edit_script()`] cost of
/// `a` → `b`: never exceeds the true distance, and equals zero when the
/// trees are identical.
pub fn lower_bound(a: &TreeProfile, b: &TreeProfile) -> u32 {
    // Label histogram: relabel the `min(n, m) − common` matched pairs
    // that cannot match for free, delete or insert the size surplus.
    let histogram = a.size.max(b.size) - a.common_labels(b);
    // Leaves and depth: a deficit of `k` in a quantity that one delete
    // or insert moves by at most one forces `k` operations.
    let leaves = a.leaves.abs_diff(b.leaves);
    let depth = a.depth.abs_diff(b.depth);
    u32::try_from(histogram.max(leaves).max(depth)).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit_script::edit_script;
    use crate::edit_script::tests::tree;
    use crate::planner::label_tree;
    use webre_substrate::rand::rngs::StdRng;
    use webre_substrate::rand::{Rng, SeedableRng};

    /// A random label tree with up to `max_nodes` nodes drawn from a small
    /// alphabet (small so label collisions — the hard case for the
    /// histogram bound — are frequent).
    fn random_tree(rng: &mut StdRng, max_nodes: usize) -> Tree<String> {
        let labels = ["a", "b", "c", "d", "#PCDATA"];
        let n = rng.gen_range(1..=max_nodes.max(1));
        let mut tree = Tree::new(labels[rng.gen_range(0..labels.len())].to_owned());
        let mut nodes = vec![tree.root()];
        for _ in 1..n {
            let parent = nodes[rng.gen_range(0..nodes.len())];
            let label = labels[rng.gen_range(0..labels.len())].to_owned();
            nodes.push(tree.append_child(parent, label));
        }
        tree
    }

    fn bound(a: &Tree<String>, b: &Tree<String>) -> u32 {
        lower_bound(&TreeProfile::of_tree(a), &TreeProfile::of_tree(b))
    }

    #[test]
    fn bound_is_admissible_on_randomized_pairs() {
        let mut rng = StdRng::seed_from_u64(0x1002);
        for case in 0..400 {
            let a = random_tree(&mut rng, 14);
            let b = random_tree(&mut rng, 14);
            let exact = edit_script(&a, &b).0;
            let bound = bound(&a, &b);
            assert!(
                bound <= exact,
                "inadmissible bound {bound} > exact {exact} (case {case})"
            );
        }
    }

    #[test]
    fn bound_is_zero_on_identical_trees() {
        let mut rng = StdRng::seed_from_u64(0x1003);
        for _ in 0..100 {
            let a = random_tree(&mut rng, 20);
            assert_eq!(bound(&a, &a), 0);
        }
    }

    #[test]
    fn bound_is_exact_on_disjoint_label_bags() {
        // No shared labels, so the histogram bound equals the true
        // distance (relabel min(n,m), then delete the surplus).
        let (a, b) = (tree("a(a,a)"), tree("b(b)"));
        assert_eq!(bound(&a, &b), edit_script(&a, &b).0);
        assert_eq!(bound(&a, &b), 3); // 2 relabels + 1 delete
    }

    #[test]
    fn size_deficit_respects_directional_costs() {
        // a → a(b,c): two forced inserts.
        let (a, b) = (tree("a"), tree("a(b,c)"));
        assert_eq!(bound(&a, &b), 2);
        assert_eq!(edit_script(&a, &b).0, 2);
    }

    #[test]
    fn depth_bound_fires_on_chains() {
        // Flat a(b,b,b) vs chain a(b(b(b))): histograms agree, but the
        // depth differs by 2 — the structural bounds must see it.
        let (flat, chain) = (tree("a(b,b,b)"), tree("a(b(b(b)))"));
        let bound = bound(&flat, &chain);
        assert!(bound >= 2, "depth bound missed: {bound}");
        assert!(bound <= edit_script(&flat, &chain).0);
    }

    #[test]
    fn profile_counts_are_correct() {
        let doc = webre_xml::parse_xml("<r><x>text</x><y/></r>").unwrap();
        let p = TreeProfile::of_tree(&label_tree(&doc));
        assert_eq!(p.size, 4); // r, x, #PCDATA, y
        assert_eq!(p.leaves, 2); // #PCDATA, y
        assert_eq!(p.depth, 3); // r > x > #PCDATA
        assert_eq!(p.labels.get("#PCDATA"), Some(&1));
        assert_eq!(p.labels.get("r"), Some(&1));
    }
}
