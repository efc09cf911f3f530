//! Zhang–Shasha ordered tree-edit distance with edit-script extraction.
//!
//! The classical dynamic program over post-order numbering, leftmost-leaf
//! indices and keyroots (Zhang & Shasha, SIAM J. Comput. 1989), at unit
//! costs: insert, delete and relabel each cost 1. Beyond the scalar
//! distance, the Document Mapping Component wants to *explain* a mapping:
//! which nodes were relabeled, deleted, inserted and which matched. After
//! the full pass, this module recomputes the forest-distance tables for
//! the relevant tree pairs and backtracks through them, producing an
//! optimal [`EditOp`] sequence whose non-`Match` operations number
//! exactly the distance. Complexity is
//! `O(|T₁|·|T₂|·min(depth₁,leaves₁)·min(depth₂,leaves₂))` — comfortably
//! fast for resume-sized documents.
//!
//! Node references are post-order indices into the respective tree,
//! which keeps the script self-contained and cheap to store.

use webre_tree::Tree;

/// One operation of an edit script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Node `from` (in the source tree) corresponds to `to` (target) with
    /// equal labels: no cost.
    Match { from: usize, to: usize },
    /// Node `from` is relabeled to `to`'s label.
    Relabel { from: usize, to: usize },
    /// Node `from` of the source is deleted.
    Delete { from: usize },
    /// Node `to` of the target is inserted.
    Insert { to: usize },
}

struct Flat {
    labels: Vec<String>,
    lml: Vec<usize>,
    keyroots: Vec<usize>,
}

fn flatten(tree: &Tree<String>) -> Flat {
    let ids: Vec<_> = tree.post_order(tree.root()).collect();
    let mut index = std::collections::HashMap::new();
    for (i, id) in ids.iter().enumerate() {
        index.insert(*id, i);
    }
    let mut labels = Vec::with_capacity(ids.len());
    let mut lml = Vec::with_capacity(ids.len());
    for id in &ids {
        labels.push(tree.value(*id).clone());
        let mut leaf = *id;
        while let Some(first) = tree.first_child(leaf) {
            leaf = first;
        }
        lml.push(index[&leaf]);
    }
    let n = labels.len();
    let keyroots = (0..n)
        .filter(|&i| !(i + 1..n).any(|j| lml[j] == lml[i]))
        .collect();
    Flat {
        labels,
        lml,
        keyroots,
    }
}

/// Computes an optimal unit-cost edit script together with its total cost.
pub fn edit_script(a: &Tree<String>, b: &Tree<String>) -> (u32, Vec<EditOp>) {
    let t1 = flatten(a);
    let t2 = flatten(b);
    let n = t1.labels.len();
    let m = t2.labels.len();
    let mut treedist = vec![vec![0u32; m]; n];
    // Mapping pairs discovered per tree pair; recomputed with backtracking.
    for &i in &t1.keyroots {
        for &j in &t2.keyroots {
            forest_dist(&t1, &t2, i, j, &mut treedist, None);
        }
    }
    // Backtrack on the whole-tree problem, descending into sub-problems.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    backtrack(&t1, &t2, n - 1, m - 1, &mut treedist, &mut pairs);

    let mut ops = Vec::new();
    let mut matched_a = vec![false; n];
    let mut matched_b = vec![false; m];
    for &(x, y) in &pairs {
        matched_a[x] = true;
        matched_b[y] = true;
        if t1.labels[x] == t2.labels[y] {
            ops.push(EditOp::Match { from: x, to: y });
        } else {
            ops.push(EditOp::Relabel { from: x, to: y });
        }
    }
    for (x, seen) in matched_a.iter().enumerate() {
        if !seen {
            ops.push(EditOp::Delete { from: x });
        }
    }
    for (y, seen) in matched_b.iter().enumerate() {
        if !seen {
            ops.push(EditOp::Insert { to: y });
        }
    }
    let cost = ops
        .iter()
        .filter(|op| !matches!(op, EditOp::Match { .. }))
        .count() as u32;
    (cost, ops)
}

/// Forest distance for keyroot pair `(i, j)`; optionally returns the final
/// `fd` table for backtracking.
fn forest_dist(
    t1: &Flat,
    t2: &Flat,
    i: usize,
    j: usize,
    treedist: &mut [Vec<u32>],
    mut table_out: Option<&mut Vec<Vec<u32>>>,
) {
    let li = t1.lml[i];
    let lj = t2.lml[j];
    let rows = i - li + 2;
    let cols = j - lj + 2;
    let mut fd = vec![vec![0u32; cols]; rows];
    for x in 1..rows {
        fd[x][0] = fd[x - 1][0] + 1;
    }
    for y in 1..cols {
        fd[0][y] = fd[0][y - 1] + 1;
    }
    for x in 1..rows {
        for y in 1..cols {
            let node1 = li + x - 1;
            let node2 = lj + y - 1;
            if t1.lml[node1] == li && t2.lml[node2] == lj {
                let relabel = u32::from(t1.labels[node1] != t2.labels[node2]);
                fd[x][y] = (fd[x - 1][y] + 1)
                    .min(fd[x][y - 1] + 1)
                    .min(fd[x - 1][y - 1] + relabel);
                treedist[node1][node2] = fd[x][y];
            } else {
                let xi = t1.lml[node1] - li;
                let yj = t2.lml[node2] - lj;
                fd[x][y] = (fd[x - 1][y] + 1)
                    .min(fd[x][y - 1] + 1)
                    .min(fd[xi][yj] + treedist[node1][node2]);
            }
        }
    }
    if let Some(out) = table_out.take() {
        *out = fd;
    }
}

/// Backtracks the tree problem rooted at post-order nodes `(i, j)`,
/// collecting matched/relabeled node pairs.
///
/// Recomputing the `fd` table for `(i, j)` writes back into `treedist`
/// exactly the subtree distances the full pass already stored there, so
/// every call shares the one table instead of copying it.
fn backtrack(
    t1: &Flat,
    t2: &Flat,
    i: usize,
    j: usize,
    treedist: &mut [Vec<u32>],
    pairs: &mut Vec<(usize, usize)>,
) {
    let mut fd: Vec<Vec<u32>> = Vec::new();
    forest_dist(t1, t2, i, j, treedist, Some(&mut fd));

    let li = t1.lml[i];
    let lj = t2.lml[j];
    let mut x = i - li + 1;
    let mut y = j - lj + 1;
    while x > 0 || y > 0 {
        if x > 0 && fd[x][y] == fd[x - 1][y] + 1 {
            x -= 1; // node li+x deleted
            continue;
        }
        if y > 0 && fd[x][y] == fd[x][y - 1] + 1 {
            y -= 1; // node lj+y inserted
            continue;
        }
        let node1 = li + x - 1;
        let node2 = lj + y - 1;
        if t1.lml[node1] == li && t2.lml[node2] == lj {
            // Trees: the diagonal step pairs the two roots.
            pairs.push((node1, node2));
            x -= 1;
            y -= 1;
        } else {
            // Sub-tree substitution: recurse, then jump over both subtrees.
            backtrack(t1, t2, node1, node2, treedist, pairs);
            x = t1.lml[node1] - li;
            y = t2.lml[node2] - lj;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Builds a label tree from `"a(b,c(d))"` syntax. Labels are runs of
    /// alphanumerics and `#`.
    pub(crate) fn tree(spec: &str) -> Tree<String> {
        fn parse(
            chars: &mut std::iter::Peekable<std::str::Chars>,
            tree: &mut Tree<String>,
            parent: Option<webre_tree::NodeId>,
        ) {
            loop {
                let mut label = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '#' {
                        label.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let node = match parent {
                    Some(p) => tree.append_child(p, label),
                    None => {
                        *tree.value_mut(tree.root()) = label;
                        tree.root()
                    }
                };
                if chars.peek() == Some(&'(') {
                    chars.next();
                    parse(chars, tree, Some(node));
                }
                match chars.next() {
                    Some(',') => continue,
                    _ => return,
                }
            }
        }
        let mut t = Tree::new(String::new());
        parse(&mut spec.chars().peekable(), &mut t, None);
        t
    }

    /// Labels of a tree in post-order (the numbering edit scripts refer to).
    fn post_order_labels(tree: &Tree<String>) -> Vec<String> {
        tree.post_order(tree.root())
            .map(|id| tree.value(id).clone())
            .collect()
    }

    /// The script for `a` → `b`, after checking that every source node is
    /// deleted or matched exactly once and every target node inserted or
    /// matched exactly once.
    fn check(a: &str, b: &str) -> (u32, Vec<EditOp>) {
        let (ta, tb) = (tree(a), tree(b));
        let (cost, ops) = edit_script(&ta, &tb);
        let n = post_order_labels(&ta).len();
        let m = post_order_labels(&tb).len();
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
        assert!(from_seen.iter().all(|c| *c == 1), "{ops:?}");
        assert!(to_seen.iter().all(|c| *c == 1), "{ops:?}");
        (cost, ops)
    }

    fn d(a: &str, b: &str) -> u32 {
        check(a, b).0
    }

    #[test]
    fn identical_trees_all_match() {
        let (cost, ops) = check("a(b,c)", "a(b,c)");
        assert_eq!(cost, 0);
        assert!(ops.iter().all(|o| matches!(o, EditOp::Match { .. })));
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn identical_trees_are_distance_zero() {
        assert_eq!(d("a(b,c)", "a(b,c)"), 0);
        assert_eq!(d("a", "a"), 0);
    }

    #[test]
    fn single_relabel() {
        assert_eq!(d("a", "b"), 1);
        assert_eq!(d("a(b,c)", "a(b,x)"), 1);
        assert_eq!(d("a(b,c)", "x(b,c)"), 1);
    }

    #[test]
    fn single_relabel_script() {
        let (cost, ops) = check("a(b)", "a(x)");
        assert_eq!(cost, 1);
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, EditOp::Relabel { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn single_insert_or_delete() {
        assert_eq!(d("a(b)", "a(b,c)"), 1);
        assert_eq!(d("a(b,c)", "a(b)"), 1);
        assert_eq!(d("a", "a(b)"), 1);
    }

    #[test]
    fn insert_intermediate_node() {
        // a(b) → a(x(b)): insert x between a and b.
        assert_eq!(d("a(b)", "a(x(b))"), 1);
    }

    #[test]
    fn delete_collapses_subtree_children_up() {
        // a(x(b,c)) → a(b,c): delete x.
        assert_eq!(d("a(x(b,c))", "a(b,c)"), 1);
    }

    #[test]
    fn delete_and_insert_scripts() {
        let (cost, ops) = check("a(b,c)", "a(b)");
        assert_eq!(cost, 1);
        assert!(ops.iter().any(|o| matches!(o, EditOp::Delete { .. })));

        let (cost, ops) = check("a", "a(b(c))");
        assert_eq!(cost, 2);
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, EditOp::Insert { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn symmetric() {
        let pairs = [("a(b,c)", "a(c,b)"), ("a(b(d),c)", "a(b,c(d))"), ("a", "b(c)")];
        for (x, y) in pairs {
            assert_eq!(d(x, y), d(y, x), "asymmetry for {x} vs {y}");
        }
    }

    #[test]
    fn sibling_swap_costs_two_unit_ops() {
        // b,c → c,b: relabel both (or delete+insert) = 2.
        assert_eq!(d("a(b,c)", "a(c,b)"), 2);
    }

    #[test]
    fn classic_example_script() {
        let (cost, _) = check("f(d(a,c(b)),e)", "f(c(d(a,b)),e)");
        assert_eq!(cost, 2);
    }

    #[test]
    fn known_zhang_shasha_example() {
        // The classical example: f(d(a,c(b)),e) vs f(c(d(a,b)),e) = 2.
        assert_eq!(d("f(d(a,c(b)),e)", "f(c(d(a,b)),e)"), 2);
    }

    #[test]
    fn distance_bounded_by_sizes() {
        let dist = d("a(b(c,d),e(f))", "x(y)");
        assert!(dist <= 6 + 2);
        assert!(dist >= 4); // at least delete the size difference
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let specs = ["a(b,c)", "a(b(d),c)", "x(b)", "a", "a(c(b))"];
        for x in &specs {
            for y in &specs {
                for z in &specs {
                    assert!(
                        d(x, z) <= d(x, y) + d(y, z),
                        "triangle violated: {x} {y} {z}"
                    );
                }
            }
        }
    }

    #[test]
    fn larger_random_shapes_stay_consistent() {
        let specs = [
            "a(b(c,d),e(f,g),h)",
            "a(e(f,g),b(c,d))",
            "x(y(z))",
            "a(b,b,b,b)",
            "a(b(c(d(e))))",
        ];
        for x in &specs {
            for y in &specs {
                assert_eq!(d(x, y), d(y, x), "asymmetry for {x} vs {y}");
            }
        }
    }

    #[test]
    fn post_order_labels_ordering() {
        let t = tree("a(b(c),d)");
        assert_eq!(post_order_labels(&t), ["c", "b", "d", "a"]);
    }
}
