//! The XML document model.
//!
//! A document is an ordered tree whose root is the document element. Per the
//! paper's convention (Section 2.3), every element carries an attribute
//! named `val` holding the text recovered for it; free-standing text nodes
//! are also supported so the model can represent general XML.

use std::borrow::Cow;

use webre_tree::{NodeId, Tree};

/// The attribute every element of a converted document carries.
const VAL: &str = "val";

/// An attribute name. `val` — one per element of a converted document —
/// borrows a constant; every other name is owned.
pub type AttrName = Cow<'static, str>;

/// The [`AttrName`] for `key`, borrowed when it is `val`.
pub(crate) fn attr_name(key: &str) -> AttrName {
    if key == VAL {
        Cow::Borrowed(VAL)
    } else {
        Cow::Owned(key.to_owned())
    }
}

/// One node of an XML document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XmlNode {
    /// An element with its attributes (name/value pairs, document order).
    Element {
        name: String,
        attrs: Vec<(AttrName, String)>,
    },
    /// A text node.
    Text(String),
}

impl XmlNode {
    /// Creates an element with no attributes.
    pub fn element(name: impl Into<String>) -> Self {
        XmlNode::Element {
            name: name.into(),
            attrs: Vec::new(),
        }
    }

    /// Creates an element with a `val` attribute (the paper's convention).
    pub fn element_with_val(name: impl Into<String>, val: impl Into<String>) -> Self {
        XmlNode::Element {
            name: name.into(),
            attrs: vec![(Cow::Borrowed(VAL), val.into())],
        }
    }

    /// The element name, if this is an element.
    pub fn name(&self) -> Option<&str> {
        match self {
            XmlNode::Element { name, .. } => Some(name),
            XmlNode::Text(_) => None,
        }
    }

    /// Attribute lookup by name.
    pub fn attr(&self, key: &str) -> Option<&str> {
        match self {
            XmlNode::Element { attrs, .. } => attrs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str()),
            XmlNode::Text(_) => None,
        }
    }

    /// The `val` attribute, if present.
    pub fn val(&self) -> Option<&str> {
        self.attr(VAL)
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(&mut self, key: &str, value: impl Into<String>) {
        if let XmlNode::Element { attrs, .. } = self {
            let value = value.into();
            match attrs.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => attrs.push((attr_name(key), value)),
            }
        }
    }

    /// Appends text to the `val` attribute, separating with a single space.
    ///
    /// This implements the paper's "pass the text value to the parent node
    /// as value for the attribute val" step of the concept instance rule.
    pub fn push_val(&mut self, text: &str) {
        let text = text.trim();
        if text.is_empty() {
            return;
        }
        if let XmlNode::Element { attrs, .. } = self {
            match attrs.iter_mut().find(|(k, _)| k == VAL) {
                Some((_, val)) => {
                    if !val.is_empty() {
                        val.push(' ');
                    }
                    val.push_str(text);
                }
                None => attrs.push((Cow::Borrowed(VAL), text.to_owned())),
            }
        }
    }
}

/// An XML document: a tree whose root node is the document element.
#[derive(Clone, Debug)]
pub struct XmlDocument {
    pub tree: Tree<XmlNode>,
}

impl XmlDocument {
    /// Creates a document with a root element named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        XmlDocument {
            tree: Tree::new(XmlNode::element(name)),
        }
    }

    /// The document element.
    pub fn root(&self) -> NodeId {
        self.tree.root()
    }

    /// The root element's name.
    pub fn root_name(&self) -> &str {
        self.tree
            .value(self.root())
            .name()
            .expect("document root is always an element")
    }

    /// Number of element nodes.
    pub fn element_count(&self) -> usize {
        self.tree
            .descendants(self.root())
            .filter(|id| matches!(self.tree.value(*id), XmlNode::Element { .. }))
            .count()
    }

    /// All text carried by the document: `val` attributes and text nodes, in
    /// document order, space separated.
    pub fn all_text(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        for id in self.tree.descendants(self.root()) {
            match self.tree.value(id) {
                XmlNode::Element { .. } => {
                    if let Some(v) = self.tree.value(id).val() {
                        if !v.is_empty() {
                            parts.push(v);
                        }
                    }
                }
                XmlNode::Text(t) => {
                    if !t.trim().is_empty() {
                        parts.push(t.trim());
                    }
                }
            }
        }
        parts.join(" ")
    }

    /// Returns the label (element name or `#PCDATA` for text) of a node.
    pub fn label(&self, id: NodeId) -> &str {
        match self.tree.value(id) {
            XmlNode::Element { name, .. } => name,
            XmlNode::Text(_) => "#PCDATA",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_with_val() {
        let e = XmlNode::element_with_val("INSTITUTION", "UC Davis");
        assert_eq!(e.name(), Some("INSTITUTION"));
        assert_eq!(e.val(), Some("UC Davis"));
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = XmlNode::element("a");
        e.set_attr("val", "x");
        e.set_attr("val", "y");
        assert_eq!(e.val(), Some("y"));
        e.set_attr("id", "1");
        assert_eq!(e.attr("id"), Some("1"));
    }

    #[test]
    fn push_val_accumulates_with_spaces() {
        let mut e = XmlNode::element("a");
        e.push_val("first");
        e.push_val("  second ");
        e.push_val("");
        assert_eq!(e.val(), Some("first second"));
    }

    #[test]
    fn text_node_has_no_name_or_attrs() {
        let t = XmlNode::Text("x".into());
        assert_eq!(t.name(), None);
        assert_eq!(t.val(), None);
    }

    #[test]
    fn document_basics() {
        let mut doc = XmlDocument::new("resume");
        let root = doc.root();
        let edu = doc
            .tree
            .append_child(root, XmlNode::element_with_val("education", "Education"));
        doc.tree
            .append_child(edu, XmlNode::element_with_val("degree", "B.S."));
        doc.tree.append_child(edu, XmlNode::Text("note".into()));
        assert_eq!(doc.root_name(), "resume");
        assert_eq!(doc.element_count(), 3);
        assert_eq!(doc.all_text(), "Education B.S. note");
        assert_eq!(doc.label(edu), "education");
        let text = doc.tree.last_child(edu).unwrap();
        assert_eq!(doc.label(text), "#PCDATA");
    }
}
