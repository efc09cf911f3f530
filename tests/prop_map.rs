//! Property tests for the tree-edit distance and edit scripts: the
//! production Zhang–Shasha DP (`webre_map::edit_script`) against the
//! check-side reference recursion (`webre_check::reference`).

use webre_check::reference::ref_tree_distance;
use webre_map::edit_script::{edit_script, EditOp};
use webre_substrate::prop::{self, Gen};
use webre_substrate::{prop_assert, prop_assert_eq};
use webre_tree::Tree;

const CASES: u32 = 128;

/// Random label tree over a tiny alphabet.
fn gen_tree(g: &mut Gen) -> Tree<String> {
    let nodes = g.vec(0, 15, |g| (g.int(0usize..8), g.chars_in("abcd", 1, 1)));
    let mut tree = Tree::new("r".to_owned());
    let mut ids = vec![tree.root()];
    for (parent, label) in nodes {
        let p = ids[parent % ids.len()];
        ids.push(tree.append_child(p, label));
    }
    tree
}

fn distance(a: &Tree<String>, b: &Tree<String>) -> u32 {
    edit_script(a, b).0
}

#[test]
fn distance_is_a_metric_ish() {
    prop::check_cases("distance_is_a_metric_ish", CASES, |g| {
        let a = gen_tree(g);
        let b = gen_tree(g);
        let d_ab = distance(&a, &b);
        let d_ba = distance(&b, &a);
        prop_assert_eq!(d_ab, d_ba, "symmetry violated");
        prop_assert_eq!(distance(&a, &a), 0);
        // Upper bound: delete all of a, insert all of b.
        let bound = a.subtree_size(a.root()) as u32 + b.subtree_size(b.root()) as u32;
        prop_assert!(d_ab <= bound);
        // Lower bound: size difference.
        let diff = (a.subtree_size(a.root()) as i64 - b.subtree_size(b.root()) as i64)
            .unsigned_abs() as u32;
        prop_assert!(d_ab >= diff);
        Ok(())
    });
}

#[test]
fn triangle_inequality() {
    prop::check_cases("triangle_inequality", CASES, |g| {
        let a = gen_tree(g);
        let b = gen_tree(g);
        let c = gen_tree(g);
        let ab = distance(&a, &b);
        let bc = distance(&b, &c);
        let ac = distance(&a, &c);
        prop_assert!(ac <= ab + bc, "triangle violated: {ac} > {ab} + {bc}");
        Ok(())
    });
}

#[test]
fn script_cost_equals_distance() {
    prop::check_cases("script_cost_equals_distance", CASES, |g| {
        let a = gen_tree(g);
        let b = gen_tree(g);
        let (cost, ops) = edit_script(&a, &b);
        prop_assert_eq!(cost, ref_tree_distance(&a, &b), "DP diverges from the reference");
        // Each source node appears exactly once as Match/Relabel/Delete,
        // each target node exactly once as Match/Relabel/Insert.
        let n = a.subtree_size(a.root());
        let m = b.subtree_size(b.root());
        let mut from_seen = vec![0u32; n];
        let mut to_seen = vec![0u32; m];
        for op in &ops {
            match *op {
                EditOp::Match { from, to } | EditOp::Relabel { from, to } => {
                    from_seen[from] += 1;
                    to_seen[to] += 1;
                }
                EditOp::Delete { from } => from_seen[from] += 1,
                EditOp::Insert { to } => to_seen[to] += 1,
            }
        }
        prop_assert!(from_seen.iter().all(|c| *c == 1));
        prop_assert!(to_seen.iter().all(|c| *c == 1));
        Ok(())
    });
}

#[test]
fn matches_preserve_postorder_order() {
    prop::check_cases("matches_preserve_postorder_order", CASES, |g| {
        let a = gen_tree(g);
        let b = gen_tree(g);
        // A valid Zhang–Shasha mapping is order-preserving on post-order
        // indices for nodes on the same root path structure; at minimum the
        // pair lists must be strictly increasing when sorted by source.
        let (_, ops) = edit_script(&a, &b);
        let mut pairs: Vec<(usize, usize)> = ops
            .iter()
            .filter_map(|op| match *op {
                EditOp::Match { from, to } | EditOp::Relabel { from, to } => Some((from, to)),
                _ => None,
            })
            .collect();
        pairs.sort_unstable();
        for w in pairs.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
            prop_assert!(w[0].1 != w[1].1, "target node mapped twice");
        }
        Ok(())
    });
}
