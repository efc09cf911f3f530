//! Higher-level restructuring operations built on the O(1) link edits.
//!
//! These are the primitives the paper's grouping and consolidation rules are
//! expressed in: wrapping sibling runs under new nodes, replacing a node by
//! its children ("push up"), replacing a node by one designated child, and
//! copying subtrees between trees.

use crate::{Edge, NodeId, Tree};

impl<T> Tree<T> {
    /// Replaces `node` by its own children: the children are spliced into
    /// `node`'s position among its siblings (preserving their order) and
    /// `node` is detached.
    ///
    /// This is the consolidation rule's "push up" step.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the root or detached.
    pub fn replace_with_children(&mut self, node: NodeId) {
        let parent = self
            .parent(node)
            .expect("replace_with_children requires an attached non-root node");
        let (Some(first), Some(last)) = (self.first_child(node), self.last_child(node)) else {
            self.detach(node);
            return;
        };
        self.adopt_children(node, parent);
        // Splice the child run [first, last] into node's sibling slot.
        let (prev, next) = (self.prev_sibling(node), self.next_sibling(node));
        self.node_mut(first).prev_sibling = prev;
        self.node_mut(last).next_sibling = next;
        match prev {
            Some(prev) => self.node_mut(prev).next_sibling = Some(first),
            None => self.node_mut(parent).first_child = Some(first),
        }
        match next {
            Some(next) => self.node_mut(next).prev_sibling = Some(last),
            None => self.node_mut(parent).last_child = Some(last),
        }
        let n = self.node_mut(node);
        n.parent = None;
        n.prev_sibling = None;
        n.next_sibling = None;
        n.first_child = None;
        n.last_child = None;
    }

    /// Points every child of `from` at `to` as its parent. The sibling
    /// links are left to the caller, which splices the whole run at once.
    fn adopt_children(&mut self, from: NodeId, to: NodeId) {
        let mut cur = self.first_child(from);
        while let Some(child) = cur {
            self.node_mut(child).parent = Some(to);
            cur = self.next_sibling(child);
        }
    }

    /// Replaces `node` by the subtree rooted at `replacement`, detaching
    /// `node` (with the rest of its children).
    ///
    /// `replacement` may be a descendant of `node`; it is detached first.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the root or detached.
    pub fn replace_with(&mut self, node: NodeId, replacement: NodeId) {
        assert!(
            self.parent(node).is_some(),
            "replace_with requires an attached non-root node"
        );
        self.detach(replacement);
        self.insert_after(node, replacement);
        self.detach(node);
    }

    /// Moves the children of `from` to the end of `to`'s child list,
    /// preserving their order. `from` keeps its own position in the tree.
    pub fn reparent_children(&mut self, from: NodeId, to: NodeId) {
        assert!(from != to, "cannot reparent children onto the same node");
        let (Some(first), Some(last)) = (self.first_child(from), self.last_child(from)) else {
            return;
        };
        assert!(
            !self.is_ancestor_of(from, to),
            "reparenting children under their own descendant would create a cycle"
        );
        self.adopt_children(from, to);
        match self.last_child(to) {
            Some(tail) => {
                self.node_mut(tail).next_sibling = Some(first);
                self.node_mut(first).prev_sibling = Some(tail);
            }
            None => self.node_mut(to).first_child = Some(first),
        }
        self.node_mut(to).last_child = Some(last);
        let n = self.node_mut(from);
        n.first_child = None;
        n.last_child = None;
    }

    /// Wraps the contiguous sibling run starting at `first` and spanning
    /// `count` nodes under a fresh node holding `value`. The new node takes
    /// the run's position. Returns the new wrapper node.
    ///
    /// # Panics
    ///
    /// Panics if the run is empty, leaves the sibling list early, or `first`
    /// is detached/root.
    pub fn wrap_run(&mut self, first: NodeId, count: usize, value: T) -> NodeId {
        assert!(count > 0, "wrap_run needs a non-empty run");
        assert!(
            self.parent(first).is_some(),
            "wrap_run requires an attached non-root node"
        );
        let mut run = Vec::with_capacity(count);
        let mut cur = Some(first);
        for _ in 0..count {
            let id = cur.expect("sibling run shorter than requested count");
            run.push(id);
            cur = self.next_sibling(id);
        }
        let wrapper = self.orphan(value);
        self.insert_before(first, wrapper);
        for id in run {
            self.detach(id);
            self.append(wrapper, id);
        }
        wrapper
    }

    /// Deep-copies the subtree rooted at `src` in `source` into `self`,
    /// appending it under `parent`. Returns the id of the copied root.
    pub fn copy_subtree_from(&mut self, source: &Tree<T>, src: NodeId, parent: NodeId) -> NodeId
    where
        T: Clone,
    {
        let mut stack = vec![parent];
        let mut copied_root = None;
        for edge in source.traverse(src) {
            match edge {
                Edge::Open(id) => {
                    let here = self.append_child(*stack.last().expect("stack"), source.value(id).clone());
                    if copied_root.is_none() {
                        copied_root = Some(here);
                    }
                    stack.push(here);
                }
                Edge::Close(_) => {
                    stack.pop();
                }
            }
        }
        copied_root.expect("traverse yields at least the subtree root")
    }

    /// Builds a new tree whose root is a clone of the subtree at `src`.
    pub fn extract_subtree(&self, src: NodeId) -> Tree<T>
    where
        T: Clone,
    {
        let mut out = Tree::with_capacity(self.value(src).clone(), self.subtree_size(src));
        let root = out.root();
        for child in self.children(src) {
            out.copy_subtree_from(self, child, root);
        }
        out
    }

    /// Maps every value in the tree, preserving structure and arena layout
    /// (so `NodeId`s remain valid across the mapping).
    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> Tree<U> {
        let nodes = self
            .nodes
            .iter()
            .map(|n| crate::arena::NodeData {
                parent: n.parent,
                prev_sibling: n.prev_sibling,
                next_sibling: n.next_sibling,
                first_child: n.first_child,
                last_child: n.last_child,
                value: f(&n.value),
            })
            .collect();
        Tree {
            nodes,
            root: self.root(),
        }
    }

    /// Structural equality of two subtrees: same shape and equal values.
    pub fn subtree_eq(&self, a: NodeId, other: &Tree<T>, b: NodeId) -> bool
    where
        T: PartialEq,
    {
        if self.value(a) != other.value(b) {
            return false;
        }
        let mut ca = self.first_child(a);
        let mut cb = other.first_child(b);
        loop {
            match (ca, cb) {
                (None, None) => return true,
                (Some(x), Some(y)) => {
                    if !self.subtree_eq(x, other, y) {
                        return false;
                    }
                    ca = self.next_sibling(x);
                    cb = other.next_sibling(y);
                }
                _ => return false,
            }
        }
    }

    /// Validates the arena's doubly-linked invariants for the attached tree.
    ///
    /// Used by tests and debug assertions; returns a description of the
    /// first violation found, if any.
    pub fn check_integrity(&self) -> Result<(), String> {
        for id in self.descendants(self.root()).collect::<Vec<_>>() {
            let mut prev = None;
            for child in self.children(id) {
                if self.parent(child) != Some(id) {
                    return Err(format!("{child:?} has wrong parent link"));
                }
                if self.prev_sibling(child) != prev {
                    return Err(format!("{child:?} has wrong prev_sibling link"));
                }
                prev = Some(child);
            }
            if self.last_child(id) != prev {
                return Err(format!("{id:?} has wrong last_child link"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(t: &Tree<&'static str>, id: NodeId) -> Vec<&'static str> {
        t.descendants(id).map(|n| *t.value(n)).collect()
    }

    #[test]
    fn replace_with_children_splices_in_place() {
        let mut t = Tree::new("root");
        let root = t.root();
        t.append_child(root, "x");
        let mid = t.append_child(root, "mid");
        t.append_child(root, "y");
        t.append_child(mid, "a");
        t.append_child(mid, "b");
        t.replace_with_children(mid);
        assert_eq!(labels(&t, root), ["root", "x", "a", "b", "y"]);
        assert!(!t.is_attached(mid));
        t.check_integrity().unwrap();
    }

    #[test]
    fn replace_with_children_splices_at_list_edges() {
        let mut t = Tree::new("root");
        let root = t.root();
        let first = t.append_child(root, "first");
        t.append_child(root, "mid");
        let last = t.append_child(root, "last");
        t.append_child(first, "a");
        t.append_child(last, "y");
        t.append_child(last, "z");
        t.replace_with_children(first);
        t.replace_with_children(last);
        assert_eq!(labels(&t, root), ["root", "a", "mid", "y", "z"]);
        assert!(t.is_leaf(first) && t.is_leaf(last));
        t.check_integrity().unwrap();

        let mut t2 = Tree::new("root");
        let wrapper = t2.append_child(t2.root(), "wrapper");
        t2.append_child(wrapper, "inner");
        t2.replace_with_children(wrapper);
        assert_eq!(labels(&t2, t2.root()), ["root", "inner"]);
        t2.check_integrity().unwrap();
    }

    #[test]
    fn reparent_children_onto_empty_node() {
        let mut t = Tree::new("root");
        let from = t.append_child(t.root(), "from");
        let to = t.append_child(t.root(), "to");
        t.append_child(from, "a");
        t.append_child(from, "b");
        t.reparent_children(from, to);
        assert_eq!(labels(&t, t.root()), ["root", "from", "to", "a", "b"]);
        t.check_integrity().unwrap();
    }

    #[test]
    fn replace_with_children_of_leaf_just_removes() {
        let mut t = Tree::new("root");
        let leaf = t.append_child(t.root(), "leaf");
        t.replace_with_children(leaf);
        assert!(t.is_leaf(t.root()));
        t.check_integrity().unwrap();
    }

    #[test]
    fn replace_with_descendant_child() {
        // The consolidation rule replaces an HTML node by its first concept
        // child — the replacement is a child of the node being replaced.
        let mut t = Tree::new("root");
        let h2 = t.append_child(t.root(), "h2");
        let edu = t.append_child(h2, "education");
        t.append_child(h2, "noise");
        t.replace_with(h2, edu);
        assert_eq!(labels(&t, t.root()), ["root", "education"]);
        assert!(!t.is_attached(h2));
        t.check_integrity().unwrap();
    }

    #[test]
    fn wrap_run_wraps_exact_span() {
        let mut t = Tree::new("root");
        let root = t.root();
        let a = t.append_child(root, "a");
        t.append_child(root, "b");
        t.append_child(root, "c");
        t.append_child(root, "d");
        let b = t.next_sibling(a).unwrap();
        let g = t.wrap_run(b, 2, "GROUP");
        assert_eq!(labels(&t, root), ["root", "a", "GROUP", "b", "c", "d"]);
        assert_eq!(t.parent(g), Some(root));
        t.check_integrity().unwrap();
    }

    #[test]
    fn wrap_run_whole_child_list() {
        let mut t = Tree::new("root");
        let a = t.append_child(t.root(), "a");
        t.append_child(t.root(), "b");
        t.wrap_run(a, 2, "G");
        assert_eq!(labels(&t, t.root()), ["root", "G", "a", "b"]);
        t.check_integrity().unwrap();
    }

    #[test]
    #[should_panic(expected = "shorter than requested")]
    fn wrap_run_too_long_panics() {
        let mut t = Tree::new("root");
        let a = t.append_child(t.root(), "a");
        t.wrap_run(a, 3, "G");
    }

    #[test]
    fn reparent_children_moves_all_in_order() {
        let mut t = Tree::new("root");
        let from = t.append_child(t.root(), "from");
        let to = t.append_child(t.root(), "to");
        t.append_child(from, "a");
        t.append_child(from, "b");
        t.append_child(to, "z");
        t.reparent_children(from, to);
        assert!(t.is_leaf(from));
        let kids: Vec<_> = t.children(to).map(|n| *t.value(n)).collect();
        assert_eq!(kids, ["z", "a", "b"]);
        t.check_integrity().unwrap();
    }

    #[test]
    fn copy_subtree_between_trees() {
        let mut src = Tree::new("s");
        let a = src.append_child(src.root(), "a");
        src.append_child(a, "b");
        let mut dst = Tree::new("d");
        let root = dst.root();
        let copied = dst.copy_subtree_from(&src, a, root);
        assert_eq!(labels(&dst, root), ["d", "a", "b"]);
        assert_eq!(*dst.value(copied), "a");
        dst.check_integrity().unwrap();
    }

    #[test]
    fn extract_subtree_clones_shape() {
        let mut t = Tree::new("root");
        let a = t.append_child(t.root(), "a");
        t.append_child(a, "b");
        t.append_child(a, "c");
        let sub = t.extract_subtree(a);
        assert_eq!(labels(&sub, sub.root()), ["a", "b", "c"]);
        assert!(t.subtree_eq(a, &sub, sub.root()));
    }

    #[test]
    fn map_preserves_ids() {
        let mut t = Tree::new(1);
        let a = t.append_child(t.root(), 2);
        let mapped = t.map(|v| v * 10);
        assert_eq!(*mapped.value(a), 20);
        assert_eq!(mapped.parent(a), Some(t.root()));
    }

    #[test]
    fn subtree_eq_detects_value_and_shape_differences() {
        let mut a = Tree::new("r");
        a.append_child(a.root(), "x");
        let mut b = Tree::new("r");
        b.append_child(b.root(), "x");
        assert!(a.subtree_eq(a.root(), &b, b.root()));
        b.append_child(b.root(), "y");
        assert!(!a.subtree_eq(a.root(), &b, b.root()));
        let mut c = Tree::new("r");
        c.append_child(c.root(), "z");
        assert!(!a.subtree_eq(a.root(), &c, c.root()));
    }
}
