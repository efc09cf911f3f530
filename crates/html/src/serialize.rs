//! Serialization of HTML trees back to markup text.
//!
//! Used by the corpus generator (to materialize synthetic documents), by
//! tests (parse → serialize → parse stability) and for debugging.

use crate::node::{HtmlDocument, HtmlNode};
use crate::entities::{escape_attr, escape_text};
use crate::taxonomy::{KnownTag, Tag};
use webre_tree::{Edge, NodeId};

/// Elements whose text content the lexer keeps verbatim (no entity
/// decoding). Their content must be emitted raw: escaping it would not be
/// undone on reparse. `title`/`textarea` are raw-text too but *are*
/// decoded by the lexer, so they take the normal escaped path.
fn is_raw_content(name: &Tag) -> bool {
    matches!(
        name.known(),
        Some(KnownTag::Script | KnownTag::Style | KnownTag::Xmp)
    )
}

/// Serializes the subtree rooted at `id` to HTML text.
pub fn subtree_to_html(doc: &HtmlDocument, id: NodeId) -> String {
    let mut out = String::new();
    let mut raw_depth = 0usize;
    for edge in doc.tree.traverse(id) {
        match edge {
            Edge::Open(node) => match doc.tree.value(node) {
                HtmlNode::Document => {}
                HtmlNode::Element { name, attrs } => {
                    if is_raw_content(name) {
                        raw_depth += 1;
                    }
                    out.push('<');
                    out.push_str(name.as_str());
                    for a in attrs {
                        out.push(' ');
                        out.push_str(&a.name);
                        if !a.value.is_empty() {
                            out.push_str("=\"");
                            out.push_str(&escape_attr(&a.value));
                            out.push('"');
                        }
                    }
                    out.push('>');
                }
                HtmlNode::Text(t) => {
                    if raw_depth > 0 {
                        out.push_str(t);
                    } else {
                        out.push_str(&escape_text(t));
                    }
                }
                HtmlNode::Comment(c) => {
                    out.push_str("<!--");
                    out.push_str(c);
                    out.push_str("-->");
                }
                HtmlNode::Doctype(d) => {
                    out.push_str("<!");
                    out.push_str(d);
                    out.push('>');
                }
            },
            Edge::Close(node) => {
                if let HtmlNode::Element { name, .. } = doc.tree.value(node) {
                    if is_raw_content(name) {
                        raw_depth -= 1;
                    }
                    if !name.is_void() {
                        out.push_str("</");
                        out.push_str(name.as_str());
                        out.push('>');
                    }
                }
            }
        }
    }
    out
}

/// Serializes the whole document.
pub fn to_html(doc: &HtmlDocument) -> String {
    subtree_to_html(doc, doc.tree.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn round_trips_simple_markup() {
        let html = "<div class=\"x\"><p>one</p><p>two &amp; three</p></div>";
        let doc = parse(html);
        assert_eq!(to_html(&doc), html);
    }

    #[test]
    fn void_elements_not_closed() {
        let doc = parse("<p>a<br>b</p>");
        assert_eq!(to_html(&doc), "<p>a<br>b</p>");
    }

    #[test]
    fn boolean_attrs_render_bare() {
        let doc = parse("<input checked>");
        assert_eq!(to_html(&doc), "<input checked>");
    }

    #[test]
    fn escapes_special_chars() {
        let doc = parse("<p>a &lt; b</p>");
        assert_eq!(to_html(&doc), "<p>a &lt; b</p>");
    }

    #[test]
    fn script_content_round_trips_raw() {
        let html = "<script>if (a &lt; b) x();</script>";
        let doc = parse(html);
        // The lexer kept the content verbatim (no decode)…
        assert_eq!(to_html(&doc), html);
        // …and reparsing yields the same tree.
        let twice = parse(&to_html(&doc));
        assert!(doc
            .tree
            .subtree_eq(doc.tree.root(), &twice.tree, twice.tree.root()));
    }

    #[test]
    fn title_content_round_trips_escaped() {
        let doc = parse("<title>R&amp;D</title>");
        assert_eq!(to_html(&doc), "<title>R&amp;D</title>");
        let twice = parse(&to_html(&doc));
        assert!(doc
            .tree
            .subtree_eq(doc.tree.root(), &twice.tree, twice.tree.root()));
    }

    #[test]
    fn garbage_attr_names_do_not_poison_round_trip() {
        // The unquoted `title` value swallows `<"a`, leaving quote-bearing
        // junk attribute names behind; the lexer drops those so the
        // serialized form re-lexes to the same tree.
        let html = r#"<i class="x y" title=<"a &amp; b < c">page</i>"#;
        let once = parse(html);
        let twice = parse(&to_html(&once));
        assert!(once
            .tree
            .subtree_eq(once.tree.root(), &twice.tree, twice.tree.root()));
        assert_eq!(to_html(&once), to_html(&twice));
    }

    #[test]
    fn declaration_with_leading_dashes_round_trips() {
        // `<! --x>` must not serialize to `<!--x>` (a comment).
        let once = parse("<! --x>a");
        let twice = parse(&to_html(&once));
        assert!(once
            .tree
            .subtree_eq(once.tree.root(), &twice.tree, twice.tree.root()));
    }

    #[test]
    fn reparse_is_stable() {
        let html = "<ul><li>a<li>b</ul><table><tr><td>x</table>";
        let once = parse(html);
        let twice = parse(&to_html(&once));
        assert!(once
            .tree
            .subtree_eq(once.tree.root(), &twice.tree, twice.tree.root()));
    }
}
