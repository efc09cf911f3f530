//! Traversal iterators over [`Tree`].
//!
//! All iterators borrow the tree immutably and allocate at most O(1); the
//! restructuring passes instead collect ids up front when they need to
//! mutate while walking.

use crate::{NodeId, Tree};

/// Iterator over the direct children of a node, in document order.
pub struct Children<'a, T> {
    tree: &'a Tree<T>,
    next: Option<NodeId>,
}

impl<T> Iterator for Children<'_, T> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.tree.next_sibling(id);
        Some(id)
    }
}

/// Iterator over the following siblings of a node (exclusive of the node).
pub struct Siblings<'a, T> {
    tree: &'a Tree<T>,
    next: Option<NodeId>,
}

impl<T> Iterator for Siblings<'_, T> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.tree.next_sibling(id);
        Some(id)
    }
}

/// Iterator over the strict ancestors of a node, closest first.
pub struct Ancestors<'a, T> {
    tree: &'a Tree<T>,
    next: Option<NodeId>,
}

impl<T> Iterator for Ancestors<'_, T> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.tree.parent(id);
        Some(id)
    }
}

/// One side of a node visit during a depth-first walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edge {
    /// The walk enters the node (before its children).
    Open(NodeId),
    /// The walk leaves the node (after its children).
    Close(NodeId),
}

/// Depth-first walk yielding [`Edge::Open`]/[`Edge::Close`] pairs.
pub struct Traverse<'a, T> {
    tree: &'a Tree<T>,
    scope: NodeId,
    next: Option<Edge>,
}

impl<T> Iterator for Traverse<'_, T> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        let current = self.next?;
        self.next = match current {
            Edge::Open(id) => match self.tree.first_child(id) {
                Some(child) => Some(Edge::Open(child)),
                None => Some(Edge::Close(id)),
            },
            Edge::Close(id) => {
                if id == self.scope {
                    None
                } else if let Some(sib) = self.tree.next_sibling(id) {
                    Some(Edge::Open(sib))
                } else {
                    // Within the scope every non-scope node has a parent.
                    Some(Edge::Close(self.tree.parent(id).expect("in scope")))
                }
            }
        };
        Some(current)
    }
}

/// Pre-order (document order) iterator over a subtree, including its root.
///
/// Walks the links directly — one step per node plus the climb out of
/// each finished subtree — rather than filtering a [`Traverse`].
pub struct Descendants<'a, T> {
    tree: &'a Tree<T>,
    scope: NodeId,
    next: Option<NodeId>,
}

impl<T> Iterator for Descendants<'_, T> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = match self.tree.first_child(id) {
            Some(child) => Some(child),
            None => self.after_subtree(id),
        };
        Some(id)
    }
}

impl<T> Descendants<'_, T> {
    /// The first node after the subtree of `id` in document order, if it
    /// is still inside the scope.
    fn after_subtree(&self, mut id: NodeId) -> Option<NodeId> {
        loop {
            if id == self.scope {
                return None;
            }
            if let Some(sib) = self.tree.next_sibling(id) {
                return Some(sib);
            }
            // Within the scope every non-scope node has a parent.
            id = self.tree.parent(id).expect("in scope");
        }
    }
}

/// Post-order iterator over a subtree, including its root (yielded last).
///
/// Walks the links directly: after a node comes the deepest first leaf
/// of its next sibling, or else its parent.
pub struct PostOrder<'a, T> {
    tree: &'a Tree<T>,
    scope: NodeId,
    next: Option<NodeId>,
}

impl<T> Iterator for PostOrder<'_, T> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = if id == self.scope {
            None
        } else if let Some(sib) = self.tree.next_sibling(id) {
            Some(first_leaf(self.tree, sib))
        } else {
            // Within the scope every non-scope node has a parent.
            Some(self.tree.parent(id).expect("in scope"))
        };
        Some(id)
    }
}

/// The first node of the subtree at `id` in post-order: its leftmost leaf.
fn first_leaf<T>(tree: &Tree<T>, mut id: NodeId) -> NodeId {
    while let Some(child) = tree.first_child(id) {
        id = child;
    }
    id
}

impl<T> Tree<T> {
    /// Iterates over the direct children of `id` in order.
    pub fn children(&self, id: NodeId) -> Children<'_, T> {
        Children {
            tree: self,
            next: self.first_child(id),
        }
    }

    /// Collects the children of `id` into a vector (handy before mutation).
    pub fn children_vec(&self, id: NodeId) -> Vec<NodeId> {
        self.children(id).collect()
    }

    /// Iterates over the siblings after `id` (exclusive).
    pub fn following_siblings(&self, id: NodeId) -> Siblings<'_, T> {
        Siblings {
            tree: self,
            next: self.next_sibling(id),
        }
    }

    /// Iterates over the strict ancestors of `id`, closest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_, T> {
        Ancestors {
            tree: self,
            next: self.parent(id),
        }
    }

    /// Depth-first walk over the subtree at `id` with open/close edges.
    pub fn traverse(&self, id: NodeId) -> Traverse<'_, T> {
        Traverse {
            tree: self,
            scope: id,
            next: Some(Edge::Open(id)),
        }
    }

    /// Pre-order iterator over the subtree rooted at `id` (inclusive).
    pub fn descendants(&self, id: NodeId) -> Descendants<'_, T> {
        Descendants {
            tree: self,
            scope: id,
            next: Some(id),
        }
    }

    /// Post-order iterator over the subtree rooted at `id` (inclusive).
    pub fn post_order(&self, id: NodeId) -> PostOrder<'_, T> {
        PostOrder {
            tree: self,
            scope: id,
            next: Some(first_leaf(self, id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root -> (a -> (c, d), b -> (e))
    fn sample() -> (Tree<&'static str>, [NodeId; 6]) {
        let mut t = Tree::new("root");
        let root = t.root();
        let a = t.append_child(root, "a");
        let b = t.append_child(root, "b");
        let c = t.append_child(a, "c");
        let d = t.append_child(a, "d");
        let e = t.append_child(b, "e");
        (t, [root, a, b, c, d, e])
    }

    fn labels(t: &Tree<&'static str>, ids: impl Iterator<Item = NodeId>) -> Vec<&'static str> {
        ids.map(|n| *t.value(n)).collect()
    }

    #[test]
    fn children_in_order() {
        let (t, [root, ..]) = sample();
        assert_eq!(labels(&t, t.children(root)), ["a", "b"]);
    }

    #[test]
    fn children_of_leaf_empty() {
        let (t, [.., e]) = sample();
        assert_eq!(t.children(e).count(), 0);
    }

    #[test]
    fn descendants_pre_order() {
        let (t, [root, ..]) = sample();
        assert_eq!(
            labels(&t, t.descendants(root)),
            ["root", "a", "c", "d", "b", "e"]
        );
    }

    #[test]
    fn descendants_of_subtree() {
        let (t, [_, a, ..]) = sample();
        assert_eq!(labels(&t, t.descendants(a)), ["a", "c", "d"]);
    }

    #[test]
    fn post_order_children_before_parents() {
        let (t, [root, ..]) = sample();
        assert_eq!(
            labels(&t, t.post_order(root)),
            ["c", "d", "a", "e", "b", "root"]
        );
    }

    #[test]
    fn ancestors_closest_first() {
        let (t, [_, _, _, c, ..]) = sample();
        assert_eq!(labels(&t, t.ancestors(c)), ["a", "root"]);
    }

    #[test]
    fn following_siblings_exclusive() {
        let (t, [_, a, ..]) = sample();
        assert_eq!(labels(&t, t.following_siblings(a)), ["b"]);
        let (t2, [_, _, b2, ..]) = sample();
        assert_eq!(t2.following_siblings(b2).count(), 0);
    }

    #[test]
    fn traverse_opens_and_closes_balanced() {
        let (t, [root, ..]) = sample();
        let mut depth = 0usize;
        let mut max_depth = 0usize;
        for edge in t.traverse(root) {
            match edge {
                Edge::Open(_) => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                Edge::Close(_) => depth -= 1,
            }
        }
        assert_eq!(depth, 0);
        assert_eq!(max_depth, 3);
    }

    #[test]
    fn walks_agree_with_traverse_edges() {
        let (t, ids) = sample();
        for scope in ids {
            let opens: Vec<NodeId> = t
                .traverse(scope)
                .filter_map(|e| match e {
                    Edge::Open(id) => Some(id),
                    Edge::Close(_) => None,
                })
                .collect();
            let closes: Vec<NodeId> = t
                .traverse(scope)
                .filter_map(|e| match e {
                    Edge::Close(id) => Some(id),
                    Edge::Open(_) => None,
                })
                .collect();
            assert_eq!(t.descendants(scope).collect::<Vec<_>>(), opens);
            assert_eq!(t.post_order(scope).collect::<Vec<_>>(), closes);
        }
    }

    #[test]
    fn traverse_single_node() {
        let t = Tree::new("x");
        let edges: Vec<_> = t.traverse(t.root()).collect();
        assert_eq!(edges, [Edge::Open(t.root()), Edge::Close(t.root())]);
    }
}
