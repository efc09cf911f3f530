//! HTML-Tidy-like cleanup pass.
//!
//! Section 2.4 of the paper notes that applying HTML cleansing tools (such
//! as HTML Tidy) before the restructuring rules improves the accuracy of the
//! resulting XML documents. This pass performs the subset of that cleansing
//! that matters to the conversion process:
//!
//! * drop comments, doctypes and information-free subtrees
//!   (`script`, `style`, `iframe`, ...);
//! * drop `head`-only metadata elements (`meta`, `link`, `base`) while
//!   keeping `title` (it carries the document's topic sentence);
//! * collapse runs of whitespace in text nodes and remove text nodes that
//!   are whitespace-only between block elements;
//! * remove empty elements that carry no text and no attributes of interest;
//! * unwrap redundant single-child nesting of the *same* text-level tag
//!   (`<b><b>x</b></b>`).

use crate::node::{HtmlDocument, HtmlNode};
use webre_tree::NodeId;

/// Writes `text` with internal whitespace runs collapsed to single spaces
/// into `out` (cleared first).
fn collapse_ws_into(text: &str, out: &mut String) {
    out.clear();
    let mut in_ws = false;
    for ch in text.chars() {
        // Treat NBSP as layout whitespace: legacy pages pad with &nbsp;.
        if ch.is_whitespace() || ch == '\u{a0}' {
            if !in_ws {
                out.push(' ');
            }
            in_ws = true;
        } else {
            out.push(ch);
            in_ws = false;
        }
    }
}

/// Whether collapsing would leave `text` unchanged — true for the common
/// pre-collapsed text node, which then is not rewritten at all.
fn is_collapsed(text: &str) -> bool {
    let mut prev_space = false;
    for ch in text.chars() {
        if ch == ' ' {
            if prev_space {
                return false;
            }
            prev_space = true;
        } else if ch.is_whitespace() || ch == '\u{a0}' {
            return false;
        } else {
            prev_space = false;
        }
    }
    true
}

/// Collapses whitespace runs in `text` in place, through the reused
/// `scratch` buffer; the result fits the node's own allocation since
/// collapsing never grows text.
fn collapse_ws(text: &mut String, scratch: &mut String) {
    if !is_collapsed(text) {
        collapse_ws_into(text, scratch);
        text.clear();
        text.push_str(scratch);
    }
}

/// What the main pass decided to do with an element; decisions are
/// computed against a borrowed value.
enum Action {
    Keep,
    Detach,
    UnwrapChild(NodeId),
}

/// Runs the cleanup pass in place.
pub fn tidy(doc: &mut HtmlDocument) {
    let root = doc.tree.root();
    let mut scratch = String::new();
    // Collect post-order so children are processed before their parents and
    // ids stay valid while we mutate (detached nodes simply stop mattering).
    let order: Vec<NodeId> = doc.tree.post_order(root).collect();
    for id in order {
        if !doc.tree.is_attached(id) {
            continue;
        }
        // Every child of `id` has had its own turn, so its child list is
        // final: trim the text at its boundaries now.
        trim_block_boundaries(doc, id);
        if id == root {
            continue;
        }
        let tree = &doc.tree;
        let action = match tree.value(id) {
            HtmlNode::Comment(_) | HtmlNode::Doctype(_) => Action::Detach,
            HtmlNode::Text(_) => {
                let HtmlNode::Text(text) = doc.tree.value_mut(id) else {
                    unreachable!("matched a text node above");
                };
                collapse_ws(text, &mut scratch);
                if text.trim().is_empty() {
                    Action::Detach
                } else {
                    Action::Keep
                }
            }
            HtmlNode::Element { name, .. } => {
                if name.is_dropped() || name.is_metadata() {
                    Action::Detach
                } else if tree.is_leaf(id) && !name.is_void() {
                    // Empty non-void element: contributes nothing.
                    Action::Detach
                } else if name.is_text_level() && tree.child_count(id) == 1 {
                    let child = tree.first_child(id).expect("one child");
                    if tree.value(child).tag() == Some(name) {
                        // <b><b>x</b></b> → <b>x</b>
                        Action::UnwrapChild(child)
                    } else {
                        Action::Keep
                    }
                } else {
                    Action::Keep
                }
            }
            HtmlNode::Document => Action::Keep,
        };
        match action {
            Action::Keep => {}
            Action::Detach => doc.tree.detach(id),
            Action::UnwrapChild(child) => doc.tree.replace_with_children(child),
        }
    }
}

/// Trims leading/trailing spaces of the text nodes at the boundaries of
/// `parent` (its first and last child) if it is a block element or the
/// document, where the space is layout-only.
///
/// A parent's boundaries stay where they are once its children were
/// visited: later steps only detach whole subtrees or unwrap text-level
/// elements, whose children are never trimmed. Trimming never empties a
/// text node either: whitespace-only text was detached on its own visit.
fn trim_block_boundaries(doc: &mut HtmlDocument, parent: NodeId) {
    let parent_is_block = match doc.tree.value(parent) {
        HtmlNode::Document => true,
        HtmlNode::Element { name, .. } => name.is_block_level(),
        _ => false,
    };
    if !parent_is_block {
        return;
    }
    let (Some(first), Some(last)) = (doc.tree.first_child(parent), doc.tree.last_child(parent))
    else {
        return;
    };
    if let HtmlNode::Text(t) = doc.tree.value_mut(last) {
        // In-place: dropping a tail never moves the head.
        t.truncate(t.trim_end().len());
    }
    if let HtmlNode::Text(t) = doc.tree.value_mut(first) {
        let lead = t.len() - t.trim_start().len();
        if lead > 0 {
            t.drain(..lead);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn tidied(html: &str) -> HtmlDocument {
        let mut doc = parse(html);
        tidy(&mut doc);
        doc
    }

    #[test]
    fn drops_comments_and_doctype() {
        let doc = tidied("<!DOCTYPE html><!-- x --><p>text</p>");
        assert_eq!(doc.tree.child_count(doc.tree.root()), 1);
        assert_eq!(doc.text_content(), "text");
    }

    #[test]
    fn drops_script_and_style_subtrees() {
        let doc = tidied("<p>keep</p><script>var x;</script><style>.a{}</style>");
        assert_eq!(doc.text_content(), "keep");
        assert_eq!(doc.element_count(), 1);
    }

    #[test]
    fn drops_metadata_keeps_title() {
        let doc = tidied("<head><meta charset=x><link href=y><title>Resume</title></head>");
        assert_eq!(doc.text_content(), "Resume");
    }

    #[test]
    fn collapses_whitespace() {
        let doc = tidied("<p>a\n   b\t c</p>");
        assert_eq!(doc.text_content(), "a b c");
    }

    #[test]
    fn in_place_collapse_matches_reference() {
        for text in [
            "a\n   b\t c",
            "  lead",
            "trail \r\n",
            "\u{b}\u{c}x\u{1c}y",
            "one two",
            "",
            "   ",
            "caf\u{e9}  au\u{a0}\u{a0}lait\u{3000}x",
        ] {
            let mut collapsed = text.to_owned();
            collapse_ws(&mut collapsed, &mut String::new());
            let mut reference = String::new();
            collapse_ws_into(text, &mut reference);
            assert_eq!(collapsed, reference, "{text:?}");
        }
    }

    #[test]
    fn nbsp_treated_as_space() {
        let doc = tidied("<p>a\u{a0}\u{a0}b</p>");
        assert_eq!(doc.text_content(), "a b");
    }

    #[test]
    fn removes_whitespace_only_text_between_blocks() {
        let doc = tidied("<div>\n  <p>a</p>\n  <p>b</p>\n</div>");
        let div = doc.tree.first_child(doc.tree.root()).unwrap();
        assert_eq!(doc.tree.child_count(div), 2);
    }

    #[test]
    fn removes_empty_elements_recursively() {
        let doc = tidied("<div><p></p><span>  </span></div><p>x</p>");
        // The inner p and span vanish, then the now-empty div vanishes too.
        assert_eq!(doc.element_count(), 1);
        assert_eq!(doc.text_content(), "x");
    }

    #[test]
    fn keeps_void_elements() {
        let doc = tidied("<p>a<br>b</p>");
        assert_eq!(doc.element_count(), 2);
    }

    #[test]
    fn unwraps_doubled_inline_tags() {
        let doc = tidied("<p><b><b>bold</b></b></p>");
        let p = doc.tree.first_child(doc.tree.root()).unwrap();
        let b = doc.tree.first_child(p).unwrap();
        assert!(doc.tree.value(b).is_element("b"));
        let inner = doc.tree.first_child(b).unwrap();
        assert_eq!(doc.tree.value(inner).as_text(), Some("bold"));
    }

    #[test]
    fn trims_text_at_block_boundaries() {
        let doc = tidied("<p> hello world </p>");
        assert_eq!(doc.text_content(), "hello world");
    }

    #[test]
    fn keeps_interword_space_around_inline() {
        let doc = tidied("<p>one <b>two</b> three</p>");
        assert_eq!(doc.text_content(), "one two three");
    }

    #[test]
    fn integrity_after_tidy() {
        let doc = tidied(
            "<html><head><meta x=y><title>T</title></head><body>\
             <!-- c --><div> <p></p> <ul><li>a</li></ul></div></body></html>",
        );
        doc.tree.check_integrity().unwrap();
    }
}
