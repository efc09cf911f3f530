//! Tag-soup parser: token stream → ordered tree.
//!
//! Recovery strategies, in the spirit of what browsers (and HTML Tidy) did
//! for the legacy pages the paper targets:
//!
//! * optional end tags are implied
//!   ([`Tag::implies_end`](crate::taxonomy::Tag::implies_end)): `<li>`
//!   closes an open `<li>`, a block element closes an open `<p>`, table
//!   cells close each other, headings close headings;
//! * void elements never open a scope;
//! * an end tag with no matching open element is ignored;
//! * an end tag that matches a non-top open element closes everything above
//!   it (misnested formatting collapses inward);
//! * anything left open at EOF is closed implicitly.

use crate::lexer::{Lexer, Token};
use crate::node::{HtmlDocument, HtmlNode};
use webre_tree::{NodeId, Tree};

/// Parses HTML text into an [`HtmlDocument`].
///
/// Tokens are pulled straight from the [`Lexer`]; the open-element stack
/// holds node ids only, reading each open element's tag from the tree.
pub fn parse(input: &str) -> HtmlDocument {
    let mut tree = Tree::new(HtmlNode::Document);
    // Stack of open elements; index 0 is the document root.
    let mut stack: Vec<NodeId> = vec![tree.root()];
    let top = |stack: &[NodeId]| *stack.last().expect("the root is never popped");

    for token in Lexer::new(input) {
        match token {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                // Imply end tags for elements the incoming tag closes.
                while stack.len() > 1
                    && tree
                        .value(top(&stack))
                        .tag()
                        .is_some_and(|open| open.implies_end(&name))
                {
                    stack.pop();
                }
                let opens_scope = !self_closing && !name.is_void();
                let node = tree.append_child(top(&stack), HtmlNode::Element { name, attrs });
                if opens_scope {
                    stack.push(node);
                }
            }
            Token::EndTag { name } => {
                if let Some(pos) = stack
                    .iter()
                    .rposition(|&open| tree.value(open).tag() == Some(&name))
                {
                    if pos > 0 {
                        stack.truncate(pos);
                    }
                }
                // No match: stray end tag, ignored.
            }
            Token::Text(text) => {
                let parent = top(&stack);
                // Merge with a preceding text node to keep text runs whole
                // even when split by entity decoding or stray markup.
                if let Some(last) = tree.last_child(parent) {
                    if let HtmlNode::Text(existing) = tree.value_mut(last) {
                        existing.push_str(&text);
                        continue;
                    }
                }
                tree.append_child(parent, HtmlNode::Text(text.into_owned()));
            }
            Token::Comment(c) => {
                tree.append_child(top(&stack), HtmlNode::Comment(c.to_owned()));
            }
            Token::Doctype(d) => {
                tree.append_child(top(&stack), HtmlNode::Doctype(d.to_owned()));
            }
        }
    }

    HtmlDocument { tree }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &HtmlDocument, id: NodeId) -> Vec<String> {
        doc.tree
            .children(id)
            .map(|c| match doc.tree.value(c) {
                HtmlNode::Element { name, .. } => name.as_str().to_owned(),
                HtmlNode::Text(t) => format!("#{t}"),
                HtmlNode::Comment(_) => "#comment".into(),
                HtmlNode::Doctype(_) => "#doctype".into(),
                HtmlNode::Document => "#doc".into(),
            })
            .collect()
    }

    #[test]
    fn nested_elements() {
        let doc = parse("<div><p>one</p><p>two</p></div>");
        let root = doc.tree.root();
        assert_eq!(names(&doc, root), ["div"]);
        let div = doc.tree.first_child(root).unwrap();
        assert_eq!(names(&doc, div), ["p", "p"]);
        assert_eq!(doc.text_content(), "onetwo");
    }

    #[test]
    fn implied_li_end_tags() {
        let doc = parse("<ul><li>a<li>b<li>c</ul>");
        let ul = doc.tree.first_child(doc.tree.root()).unwrap();
        assert_eq!(names(&doc, ul), ["li", "li", "li"]);
    }

    #[test]
    fn block_element_closes_p() {
        let doc = parse("<p>intro<div>body</div>");
        let root = doc.tree.root();
        assert_eq!(names(&doc, root), ["p", "div"]);
    }

    #[test]
    fn inline_does_not_close_p() {
        let doc = parse("<p>a<b>c</b></p>");
        let p = doc.tree.first_child(doc.tree.root()).unwrap();
        assert_eq!(names(&doc, p), ["#a", "b"]);
    }

    #[test]
    fn table_cells_imply_ends() {
        let doc = parse("<table><tr><td>a<td>b<tr><td>c</table>");
        let table = doc.tree.first_child(doc.tree.root()).unwrap();
        assert_eq!(names(&doc, table), ["tr", "tr"]);
        let tr1 = doc.tree.first_child(table).unwrap();
        assert_eq!(names(&doc, tr1), ["td", "td"]);
    }

    #[test]
    fn dt_dd_alternate() {
        let doc = parse("<dl><dt>term<dd>def<dt>term2<dd>def2</dl>");
        let dl = doc.tree.first_child(doc.tree.root()).unwrap();
        assert_eq!(names(&doc, dl), ["dt", "dd", "dt", "dd"]);
    }

    #[test]
    fn heading_soup_repaired() {
        // The paper's "nesting of heading elements" malformation.
        let doc = parse("<h2>Education<h2>Experience");
        let root = doc.tree.root();
        assert_eq!(names(&doc, root), ["h2", "h2"]);
    }

    #[test]
    fn stray_end_tag_ignored() {
        let doc = parse("a</b>c");
        assert_eq!(doc.text_content(), "ac");
        assert_eq!(doc.element_count(), 0);
    }

    #[test]
    fn misnested_end_closes_through() {
        let doc = parse("<b><i>x</b>y");
        // </b> closes both <i> and <b>; y lands at top level.
        let root = doc.tree.root();
        assert_eq!(names(&doc, root), ["b", "#y"]);
    }

    #[test]
    fn void_elements_have_no_children() {
        let doc = parse("<p>a<br>b</p>");
        let p = doc.tree.first_child(doc.tree.root()).unwrap();
        assert_eq!(names(&doc, p), ["#a", "br", "#b"]);
    }

    #[test]
    fn hr_closes_open_paragraph() {
        // <hr> is block level, so it implicitly ends the <p> (browser rule).
        let doc = parse("<p>a<hr>c");
        let root = doc.tree.root();
        assert_eq!(names(&doc, root), ["p", "hr", "#c"]);
    }

    #[test]
    fn unclosed_elements_closed_at_eof() {
        let doc = parse("<div><p>text");
        let div = doc.tree.first_child(doc.tree.root()).unwrap();
        let p = doc.tree.first_child(div).unwrap();
        assert_eq!(doc.tree.value(p).name(), Some("p"));
        assert_eq!(doc.text_content(), "text");
    }

    #[test]
    fn adjacent_text_merged() {
        let doc = parse("a&amp;b");
        let root = doc.tree.root();
        assert_eq!(doc.tree.child_count(root), 1);
        assert_eq!(doc.text_content(), "a&b");
    }

    #[test]
    fn full_page_structure() {
        let doc = parse(
            "<!DOCTYPE html><html><head><title>Resume</title></head>\
             <body><h1>Jane</h1><p>Objective</p></body></html>",
        );
        let root = doc.tree.root();
        assert_eq!(names(&doc, root), ["#doctype", "html"]);
        assert!(doc.text_content().contains("Jane"));
        doc.tree.check_integrity().unwrap();
    }

    #[test]
    fn empty_input() {
        let doc = parse("");
        assert!(doc.tree.is_leaf(doc.tree.root()));
    }
}
