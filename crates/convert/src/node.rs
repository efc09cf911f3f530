//! The working node type of the conversion pipeline.
//!
//! The paper treats the input HTML document as an XML document in which
//! every element carries a `val` attribute of type CDATA (Section 2.3). The
//! conversion tree therefore gives every structural node a `val`
//! accumulator; text flows upward through it as rules delete nodes.
//!
//! Text is arena-backed: [`ConvTree`] owns every text buffer the document
//! contributed, and `Text`/`Token` nodes carry a [`Span`] into those
//! buffers instead of an owned `String`. Tokenization then splits a text
//! run into tokens without allocating per token (each token is a
//! sub-span of its text run's buffer), and [`ingest_owned`] moves the
//! HTML document's strings straight into the arena so the cold conversion
//! path never copies element names, text runs — or, transitively, the
//! attribute vectors a whole-document clone would have duplicated.
//!
//! Element names stay interned [`Tag`]s, and concept nodes share one
//! reference-counted name per distinct concept, so no per-node name is
//! ever allocated.

use std::sync::Arc;

use webre_html::taxonomy::Tag;
use webre_html::{HtmlDocument, HtmlNode};
use webre_tree::{NodeId, Tree};
use webre_xml::{XmlDocument, XmlNode};

/// A byte range inside one of a [`ConvTree`]'s text buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into [`ConvTree`]'s buffer list.
    buf: u32,
    /// Byte offset of the range start within the buffer.
    start: u32,
    /// Byte offset one past the range end.
    end: u32,
}

impl Span {
    /// The spanned text inside `texts`.
    fn slice<'a>(&self, texts: &'a [String]) -> &'a str {
        &texts[self.buf as usize][self.start as usize..self.end as usize]
    }

    /// A sub-span of this span; `start..end` are byte offsets relative to
    /// this span's start.
    pub(crate) fn sub(self, start: usize, end: usize) -> Span {
        Span {
            buf: self.buf,
            start: self.start + start as u32,
            end: self.start + end as u32,
        }
    }
}

/// One node of the in-flight conversion tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConvNode {
    /// The synthetic document root.
    Document { val: String },
    /// A surviving HTML element.
    Html { name: Tag, val: String },
    /// An unprocessed text run (a span into the owning [`ConvTree`]).
    Text(Span),
    /// A `<TOKEN>` produced by the tokenization rule (also a span).
    Token(Span),
    /// A temporary `GROUP` introduced by the grouping rule.
    Group { val: String },
    /// An identified concept element, destined for the XML output. Nodes
    /// of one concept share the name allocation.
    Concept { name: Arc<str>, val: String },
}

impl ConvNode {
    /// Appends text to this node's `val` accumulator (no-op for text and
    /// token nodes, which carry their payload as spans).
    pub fn push_val(&mut self, text: &str) {
        let text = text.trim();
        if text.is_empty() {
            return;
        }
        if let Some(val) = self.val_mut() {
            if !val.is_empty() {
                val.push(' ');
            }
            val.push_str(text);
        }
    }

    /// Moves `val` in: the same result as [`ConvNode::push_val`], but an
    /// already trimmed `val` landing on an empty accumulator is moved
    /// rather than copied.
    pub fn absorb_val(&mut self, text: String) {
        match self.val_mut() {
            Some(val) if val.is_empty() && text.trim().len() == text.len() => *val = text,
            _ => self.push_val(&text),
        }
    }

    /// Takes the accumulated `val` out, leaving it empty (an empty string
    /// for node kinds without one).
    pub fn take_val(&mut self) -> String {
        self.val_mut().map(std::mem::take).unwrap_or_default()
    }

    fn val_mut(&mut self) -> Option<&mut String> {
        match self {
            ConvNode::Document { val }
            | ConvNode::Html { val, .. }
            | ConvNode::Group { val }
            | ConvNode::Concept { val, .. } => Some(val),
            ConvNode::Text(_) | ConvNode::Token(_) => None,
        }
    }

    /// The accumulated `val`, if this node kind has one.
    pub fn val(&self) -> Option<&str> {
        match self {
            ConvNode::Document { val }
            | ConvNode::Html { val, .. }
            | ConvNode::Group { val }
            | ConvNode::Concept { val, .. } => Some(val),
            ConvNode::Text(_) | ConvNode::Token(_) => None,
        }
    }

    /// Whether this is a concept node, and its name.
    pub fn concept_name(&self) -> Option<&str> {
        match self {
            ConvNode::Concept { name, .. } => Some(name),
            _ => None,
        }
    }

    /// The interned HTML tag, if this is a surviving HTML node.
    pub fn html_tag(&self) -> Option<&Tag> {
        match self {
            ConvNode::Html { name, .. } => Some(name),
            _ => None,
        }
    }
}

/// The in-flight conversion tree plus the text arena its `Text`/`Token`
/// spans point into.
///
/// The two fields are deliberately independent: rules destructure the pair
/// to read token text (immutably, out of `texts`) while restructuring
/// `tree` (mutably) — the split borrow that lets the text rules work on
/// borrowed slices instead of cloning every token.
#[derive(Clone, Debug)]
pub struct ConvTree {
    /// The node tree.
    pub tree: Tree<ConvNode>,
    /// Every text buffer the document contributed, in ingest order.
    /// Spans index into this; buffers are never mutated after creation.
    pub(crate) texts: Vec<String>,
}

impl Default for ConvTree {
    fn default() -> Self {
        Self::new()
    }
}

impl ConvTree {
    /// An empty conversion tree: just the document root.
    pub fn new() -> Self {
        ConvTree {
            tree: Tree::new(ConvNode::Document { val: String::new() }),
            texts: Vec::new(),
        }
    }

    /// An empty conversion tree with arena capacity for `nodes` nodes.
    pub fn with_node_capacity(nodes: usize) -> Self {
        ConvTree {
            tree: Tree::with_capacity(ConvNode::Document { val: String::new() }, nodes),
            texts: Vec::new(),
        }
    }

    /// Moves `text` into the arena, returning the span covering all of it.
    pub fn intern(&mut self, text: String) -> Span {
        let buf = self.texts.len() as u32;
        let end = text.len() as u32;
        self.texts.push(text);
        Span { buf, start: 0, end }
    }

    /// Appends a text node holding `text` under `parent` (test/builder
    /// convenience — ingest interns directly).
    pub fn append_text(&mut self, parent: NodeId, text: String) -> NodeId {
        let span = self.intern(text);
        self.tree.append_child(parent, ConvNode::Text(span))
    }

    /// The text a span points at.
    pub fn text(&self, span: Span) -> &str {
        span.slice(&self.texts)
    }

    /// The text of `id` if it is a text or token node.
    pub fn node_text(&self, id: NodeId) -> Option<&str> {
        match self.tree.value(id) {
            ConvNode::Text(span) | ConvNode::Token(span) => Some(self.text(*span)),
            _ => None,
        }
    }

    /// Number of text buffers in the arena.
    pub fn buffer_count(&self) -> usize {
        self.texts.len()
    }
}

/// Resolves a span against a borrowed arena (the text rules' split-borrow
/// accessor).
pub(crate) fn span_text<'a>(span: Span, texts: &'a [String]) -> &'a str {
    span.slice(texts)
}

/// Ingests a (tidied) HTML document into a conversion tree, borrowing the
/// input: the document is copied, then ingested by [`ingest_owned`].
/// Comments and doctypes are dropped; elements and text map one-to-one.
pub fn ingest(html: &HtmlDocument) -> ConvTree {
    ingest_owned(html.clone())
}

/// [`ingest`] consuming the document: element tags and text runs are
/// *moved* into the conversion tree, not copied. This is the cold-path
/// entry — combined with [`crate::convert::Converter::convert_owned`] it
/// removes the whole-document clone (and its per-element attribute-vector
/// duplication) from every conversion.
pub fn ingest_owned(html: HtmlDocument) -> ConvTree {
    let mut html = html;
    let mut conv = ConvTree::with_node_capacity(html.tree.arena_len());
    let root = conv.tree.root();
    // Explicit DFS over (source, copied-parent) pairs. Each level's
    // children are created last to first and prepended, so sibling order
    // is kept and the first child's subtree is the next one popped.
    let mut stack: Vec<(NodeId, NodeId)> = vec![(html.tree.root(), root)];
    while let Some((src, dst_parent)) = stack.pop() {
        let mut cur = html.tree.last_child(src);
        while let Some(child) = cur {
            cur = html.tree.prev_sibling(child);
            match std::mem::replace(html.tree.value_mut(child), HtmlNode::Document) {
                HtmlNode::Element { name, .. } => {
                    let node = conv.tree.orphan(ConvNode::Html {
                        name,
                        val: String::new(),
                    });
                    conv.tree.prepend(dst_parent, node);
                    stack.push((child, node));
                }
                HtmlNode::Text(t) => {
                    let span = conv.intern(t);
                    let node = conv.tree.orphan(ConvNode::Text(span));
                    conv.tree.prepend(dst_parent, node);
                }
                HtmlNode::Comment(_) | HtmlNode::Doctype(_) | HtmlNode::Document => {}
            }
        }
    }
    conv
}

/// Finalizes a fully consolidated conversion tree into an [`XmlDocument`]
/// rooted at `root_concept`.
///
/// Any remaining document-level `val` text becomes the root's `val`. If a
/// direct child carries the root concept's own name (e.g. a "Resume" page
/// title), it is merged into the root rather than nested.
pub fn finalize(conv: &ConvTree, root_concept: &str) -> XmlDocument {
    let tree = &conv.tree;
    let root_name = webre_xml::name::sanitize(root_concept);
    let mut doc = XmlDocument::new(root_name.clone());
    let doc_root = doc.root();
    if let Some(val) = tree.value(tree.root()).val() {
        if !val.is_empty() {
            doc.tree.value_mut(doc_root).push_val(val);
        }
    }
    for child in tree.children(tree.root()) {
        copy_concepts(conv, child, &mut doc, doc_root);
    }
    // Merge a child that duplicates the root concept. The cursor moves on
    // before the splice, so the merged child's own children are not
    // revisited.
    let mut cur = doc.tree.first_child(doc_root);
    while let Some(child) = cur {
        cur = doc.tree.next_sibling(child);
        if doc.tree.value(child).name() == Some(root_name.as_str()) {
            if let Some(v) = doc.tree.value(child).val().map(str::to_owned) {
                doc.tree.value_mut(doc_root).push_val(&v);
            }
            doc.tree.replace_with_children(child);
        }
    }
    doc
}

fn copy_concepts(conv: &ConvTree, src: NodeId, doc: &mut XmlDocument, dst_parent: NodeId) {
    let tree = &conv.tree;
    match tree.value(src) {
        ConvNode::Concept { name, val } => {
            let name = webre_xml::name::sanitize(name);
            let node = if val.is_empty() {
                XmlNode::element(name)
            } else {
                XmlNode::element_with_val(name, val.clone())
            };
            let copied = doc.tree.append_child(dst_parent, node);
            for child in tree.children(src) {
                copy_concepts(conv, child, doc, copied);
            }
        }
        // Non-concept nodes should be gone by now; if the structure rules
        // were disabled (ablation), flatten them transparently.
        _ => {
            if let Some(val) = tree.value(src).val() {
                if !val.is_empty() {
                    doc.tree.value_mut(dst_parent).push_val(val);
                }
            }
            if let ConvNode::Text(span) | ConvNode::Token(span) = tree.value(src) {
                doc.tree.value_mut(dst_parent).push_val(conv.text(*span));
            }
            for child in tree.children(src) {
                copy_concepts(conv, child, doc, dst_parent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_html::parse;

    #[test]
    fn ingest_preserves_structure_and_order() {
        let html = parse("<div><p>a</p><p>b</p></div>");
        let conv = ingest(&html);
        let tree = &conv.tree;
        let labels: Vec<String> = tree
            .descendants(tree.root())
            .map(|n| match tree.value(n) {
                ConvNode::Document { .. } => "#doc".into(),
                ConvNode::Html { name, .. } => name.to_string(),
                ConvNode::Text(span) => format!("#{}", conv.text(*span)),
                other => format!("{other:?}"),
            })
            .collect();
        assert_eq!(labels, ["#doc", "div", "p", "#a", "p", "#b"]);
    }

    #[test]
    fn ingest_owned_matches_borrowing_ingest() {
        let src = "<div class=\"x\" id=\"y\"><p>a</p><!-- gone --><p>b c</p></div>";
        let borrowed = ingest(&parse(src));
        let owned = ingest_owned(parse(src));
        let label = |conv: &ConvTree, n| match conv.tree.value(n) {
            ConvNode::Html { name, .. } => name.to_string(),
            ConvNode::Text(span) => format!("#{}", conv.text(*span)),
            other => format!("{other:?}"),
        };
        let a: Vec<String> = borrowed
            .tree
            .descendants(borrowed.tree.root())
            .map(|n| label(&borrowed, n))
            .collect();
        let b: Vec<String> = owned
            .tree
            .descendants(owned.tree.root())
            .map(|n| label(&owned, n))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn ingest_drops_comments() {
        let html = parse("<!-- c --><p>x</p>");
        let conv = ingest(&html);
        assert_eq!(conv.tree.subtree_size(conv.tree.root()), 3);
    }

    #[test]
    fn push_val_accumulates() {
        let mut n = ConvNode::Html {
            name: "p".into(),
            val: String::new(),
        };
        n.push_val("one");
        n.push_val(" two ");
        n.push_val("");
        assert_eq!(n.val(), Some("one two"));
    }

    #[test]
    fn spans_resolve_and_subdivide() {
        let mut conv = ConvTree::new();
        let root = conv.tree.root();
        let id = conv.append_text(root, "hello world".into());
        assert_eq!(conv.node_text(id), Some("hello world"));
        let ConvNode::Text(span) = *conv.tree.value(id) else {
            panic!("text node expected");
        };
        assert_eq!(conv.text(span.sub(6, 11)), "world");
        assert_eq!(conv.buffer_count(), 1);
    }

    #[test]
    fn finalize_builds_rooted_document() {
        let mut conv = ConvTree::new();
        let root = conv.tree.root();
        let edu = conv.tree.append_child(
            root,
            ConvNode::Concept {
                name: "education".into(),
                val: "Education".into(),
            },
        );
        conv.tree.append_child(
            edu,
            ConvNode::Concept {
                name: "degree".into(),
                val: "B.S.".into(),
            },
        );
        let doc = finalize(&conv, "resume");
        assert_eq!(doc.root_name(), "resume");
        assert_eq!(
            webre_xml::to_xml(&doc),
            r#"<resume><education val="Education"><degree val="B.S."/></education></resume>"#
        );
    }

    #[test]
    fn finalize_merges_duplicate_root_concept() {
        let mut conv = ConvTree::new();
        let root = conv.tree.root();
        let dup = conv.tree.append_child(
            root,
            ConvNode::Concept {
                name: "resume".into(),
                val: "My Resume".into(),
            },
        );
        conv.tree.append_child(
            dup,
            ConvNode::Concept {
                name: "contact".into(),
                val: "x".into(),
            },
        );
        let doc = finalize(&conv, "resume");
        assert_eq!(doc.root_name(), "resume");
        assert_eq!(doc.tree.value(doc.root()).val(), Some("My Resume"));
        let child = doc.tree.first_child(doc.root()).unwrap();
        assert_eq!(doc.tree.value(child).name(), Some("contact"));
    }
}
