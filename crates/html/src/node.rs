//! Node types for parsed HTML documents.

use crate::taxonomy::Tag;
use webre_tree::Tree;

/// A single `name="value"` attribute. Names are lowercased by the lexer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribute {
    pub name: String,
    pub value: String,
}

/// One node of a parsed HTML document tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HtmlNode {
    /// Synthetic root of every document.
    Document,
    /// An element; the tag name is ASCII-lowercased and interned.
    Element { name: Tag, attrs: Vec<Attribute> },
    /// A text run with entities already decoded.
    Text(String),
    /// `<!-- ... -->`
    Comment(String),
    /// `<!DOCTYPE ...>` content.
    Doctype(String),
}

impl HtmlNode {
    /// Creates an element node with no attributes.
    pub fn element(name: &str) -> Self {
        HtmlNode::Element {
            name: Tag::new(name),
            attrs: Vec::new(),
        }
    }

    /// Creates a text node.
    pub fn text(content: impl Into<String>) -> Self {
        HtmlNode::Text(content.into())
    }

    /// The element name, if this is an element.
    pub fn name(&self) -> Option<&str> {
        match self {
            HtmlNode::Element { name, .. } => Some(name.as_str()),
            _ => None,
        }
    }

    /// The interned element tag, if this is an element.
    pub fn tag(&self) -> Option<&Tag> {
        match self {
            HtmlNode::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Whether this node is an element named `name` (must be lowercase).
    pub fn is_element(&self, name: &str) -> bool {
        self.name() == Some(name)
    }

    /// The text content, if this is a text node.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            HtmlNode::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Looks up an attribute value by (lowercase) name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        match self {
            HtmlNode::Element { attrs, .. } => attrs
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.value.as_str()),
            _ => None,
        }
    }
}

/// A parsed HTML document: a [`Tree`] whose root is [`HtmlNode::Document`].
#[derive(Clone, Debug)]
pub struct HtmlDocument {
    pub tree: Tree<HtmlNode>,
}

impl HtmlDocument {
    /// Concatenated text of the whole document (no separators inserted).
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        for id in self.tree.descendants(self.tree.root()) {
            if let HtmlNode::Text(t) = self.tree.value(id) {
                out.push_str(t);
            }
        }
        out
    }

    /// Number of element nodes in the document.
    pub fn element_count(&self) -> usize {
        self.tree
            .descendants(self.tree.root())
            .filter(|id| matches!(self.tree.value(*id), HtmlNode::Element { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_constructor_lowercases() {
        let e = HtmlNode::element("DIV");
        assert_eq!(e.name(), Some("div"));
        assert!(e.is_element("div"));
        assert!(!e.is_element("span"));
    }

    #[test]
    fn attr_lookup() {
        let e = HtmlNode::Element {
            name: "a".into(),
            attrs: vec![Attribute {
                name: "href".into(),
                value: "/x".into(),
            }],
        };
        assert_eq!(e.attr("href"), Some("/x"));
        assert_eq!(e.attr("id"), None);
        assert_eq!(HtmlNode::text("t").attr("href"), None);
    }

    #[test]
    fn text_accessors() {
        let t = HtmlNode::text("hello");
        assert_eq!(t.as_text(), Some("hello"));
        assert_eq!(t.name(), None);
    }
}
