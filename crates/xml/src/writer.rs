//! XML serialization: compact (canonical-ish) and pretty-printed.

use crate::document::{XmlDocument, XmlNode};
use std::fmt;
use webre_tree::{Edge, NodeId};

/// Appends `input` to `out`, replacing `& < >` (and `"` when `quote`)
/// with entities. Unescaped runs are copied whole.
fn escape_into<W: fmt::Write + ?Sized>(input: &str, out: &mut W, quote: bool) -> fmt::Result {
    let mut run = 0;
    for (i, b) in input.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if quote => "&quot;",
            _ => continue,
        };
        out.write_str(&input[run..i])?;
        out.write_str(entity)?;
        run = i + 1;
    }
    out.write_str(&input[run..])
}

fn escape_text<W: fmt::Write + ?Sized>(input: &str, out: &mut W) -> fmt::Result {
    escape_into(input, out, false)
}

fn escape_attr<W: fmt::Write + ?Sized>(input: &str, out: &mut W) -> fmt::Result {
    escape_into(input, out, true)
}

fn open_tag<W: fmt::Write + ?Sized>(node: &XmlNode, out: &mut W) -> fmt::Result {
    if let XmlNode::Element { name, attrs } = node {
        out.write_char('<')?;
        out.write_str(name)?;
        for (k, v) in attrs {
            out.write_char(' ')?;
            out.write_str(k)?;
            out.write_str("=\"")?;
            escape_attr(v, out)?;
            out.write_char('"')?;
        }
    }
    Ok(())
}

/// Writes the subtree at `id` to `out` without whitespace between
/// elements: the bytes [`subtree_to_xml`] returns, streamed, so a caller
/// that only hashes or copies them needs no `String` of its own.
pub fn write_subtree<W: fmt::Write + ?Sized>(
    doc: &XmlDocument,
    id: NodeId,
    out: &mut W,
) -> fmt::Result {
    for edge in doc.tree.traverse(id) {
        match edge {
            Edge::Open(n) => match doc.tree.value(n) {
                e @ XmlNode::Element { .. } => {
                    open_tag(e, out)?;
                    if doc.tree.is_leaf(n) {
                        out.write_str("/>")?;
                    } else {
                        out.write_char('>')?;
                    }
                }
                XmlNode::Text(t) => escape_text(t, out)?,
            },
            Edge::Close(n) => {
                if let XmlNode::Element { name, .. } = doc.tree.value(n) {
                    if !doc.tree.is_leaf(n) {
                        out.write_str("</")?;
                        out.write_str(name)?;
                        out.write_char('>')?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Serializes the subtree at `id` without whitespace between elements.
pub fn subtree_to_xml(doc: &XmlDocument, id: NodeId) -> String {
    let mut out = String::new();
    write_subtree(doc, id, &mut out).expect("writing to a String cannot fail");
    out
}

/// Serializes the whole document compactly.
pub fn to_xml(doc: &XmlDocument) -> String {
    subtree_to_xml(doc, doc.root())
}

/// Serializes the whole document with two-space indentation, one element
/// per line (text nodes are kept inline inside their parent).
pub fn to_xml_pretty(doc: &XmlDocument) -> String {
    let mut out = String::new();
    write_pretty(doc, doc.root(), 0, &mut out).expect("writing to a String cannot fail");
    out
}

/// Whether the element at `id` has only text children (rendered inline).
fn only_text_children(doc: &XmlDocument, id: NodeId) -> bool {
    doc.tree
        .children(id)
        .all(|c| matches!(doc.tree.value(c), XmlNode::Text(_)))
}

/// Two spaces per nesting level, written straight into `out`.
fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_pretty(doc: &XmlDocument, id: NodeId, depth: usize, out: &mut String) -> fmt::Result {
    match doc.tree.value(id) {
        XmlNode::Text(t) => {
            push_indent(out, depth);
            escape_text(t, out)?;
            out.push('\n');
        }
        e @ XmlNode::Element { name, .. } => {
            push_indent(out, depth);
            open_tag(e, out)?;
            if doc.tree.is_leaf(id) {
                out.push_str("/>\n");
            } else if only_text_children(doc, id) {
                out.push('>');
                for c in doc.tree.children(id) {
                    if let XmlNode::Text(t) = doc.tree.value(c) {
                        escape_text(t, out)?;
                    }
                }
                out.push_str("</");
                out.push_str(name);
                out.push_str(">\n");
            } else {
                out.push_str(">\n");
                for c in doc.tree.children(id) {
                    write_pretty(doc, c, depth + 1, out)?;
                }
                push_indent(out, depth);
                out.push_str("</");
                out.push_str(name);
                out.push_str(">\n");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::XmlNode;

    fn sample() -> XmlDocument {
        let mut doc = XmlDocument::new("resume");
        let root = doc.root();
        let edu = doc
            .tree
            .append_child(root, XmlNode::element_with_val("education", "Education"));
        doc.tree
            .append_child(edu, XmlNode::element_with_val("degree", "B.S."));
        doc
    }

    #[test]
    fn compact_output() {
        let doc = sample();
        assert_eq!(
            to_xml(&doc),
            r#"<resume><education val="Education"><degree val="B.S."/></education></resume>"#
        );
    }

    #[test]
    fn empty_root_self_closes() {
        let doc = XmlDocument::new("empty");
        assert_eq!(to_xml(&doc), "<empty/>");
    }

    #[test]
    fn escapes_attr_and_text() {
        let mut doc = XmlDocument::new("r");
        let root = doc.root();
        let a = doc
            .tree
            .append_child(root, XmlNode::element_with_val("a", r#"x<y & "z""#));
        doc.tree.append_child(a, XmlNode::Text("1 < 2".into()));
        let xml = to_xml(&doc);
        assert!(xml.contains(r#"val="x&lt;y &amp; &quot;z&quot;""#));
        assert!(xml.contains("1 &lt; 2"));
    }

    #[test]
    fn pretty_output_indents() {
        let doc = sample();
        let pretty = to_xml_pretty(&doc);
        assert_eq!(
            pretty,
            "<resume>\n  <education val=\"Education\">\n    <degree val=\"B.S.\"/>\n  </education>\n</resume>\n"
        );
    }

    #[test]
    fn pretty_inlines_text_only_elements() {
        let mut doc = XmlDocument::new("r");
        let root = doc.root();
        let a = doc.tree.append_child(root, XmlNode::element("note"));
        doc.tree.append_child(a, XmlNode::Text("hello".into()));
        assert_eq!(to_xml_pretty(&doc), "<r>\n  <note>hello</note>\n</r>\n");
    }
}
