//! A small, strict XML parser.
//!
//! Supports the subset the workspace produces: elements, attributes, text,
//! character references, comments and processing instructions (skipped), and
//! an optional XML declaration / DOCTYPE (skipped). Unlike the HTML parser
//! it rejects malformed input with a positioned error — XML is strict.

use crate::document::{attr_name, XmlDocument, XmlNode};
use std::fmt;
use webre_tree::NodeId;

/// Error raised by [`parse_xml`], with the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for XmlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlParseError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

/// Parses an XML document. Exactly one root element is required.
pub fn parse_xml(input: &str) -> Result<XmlDocument, XmlParseError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_misc()?;
    let doc = p.parse_root()?;
    p.skip_misc()?;
    if p.pos < p.input.len() {
        return Err(p.error("content after document element"));
    }
    Ok(doc)
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> XmlParseError {
        XmlParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    /// Skips whitespace, comments, PIs, XML declaration and DOCTYPE.
    fn skip_misc(&mut self) -> Result<(), XmlParseError> {
        loop {
            self.skip_ws();
            let rest = self.rest();
            if let Some(body) = rest.strip_prefix("<!--") {
                match body.find("-->") {
                    Some(end) => self.pos += 4 + end + 3,
                    None => return Err(self.error("unterminated comment")),
                }
            } else if rest.starts_with("<?") {
                match rest.find("?>") {
                    Some(end) => self.pos += end + 2,
                    None => return Err(self.error("unterminated processing instruction")),
                }
            } else if rest.starts_with("<!DOCTYPE") {
                match rest.find('>') {
                    Some(end) => self.pos += end + 1,
                    None => return Err(self.error("unterminated DOCTYPE")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_root(&mut self) -> Result<XmlDocument, XmlParseError> {
        if !self.rest().starts_with('<') {
            return Err(self.error("expected document element"));
        }
        let (node, self_closing) = self.parse_start_tag()?;
        let mut doc = XmlDocument {
            tree: webre_tree::Tree::new(node),
        };
        if !self_closing {
            let root = doc.root();
            self.parse_content(&mut doc, root)?;
        }
        Ok(doc)
    }

    /// Parses element content up to (and including) the matching end tag of
    /// the element `parent`.
    fn parse_content(&mut self, doc: &mut XmlDocument, parent: NodeId) -> Result<(), XmlParseError> {
        loop {
            if self.pos >= self.input.len() {
                return Err(self.error("unexpected end of input inside element"));
            }
            let rest = self.rest();
            if let Some(body) = rest.strip_prefix("<!--") {
                match body.find("-->") {
                    Some(end) => self.pos += 4 + end + 3,
                    None => return Err(self.error("unterminated comment")),
                }
            } else if rest.starts_with("<?") {
                match rest.find("?>") {
                    Some(end) => self.pos += end + 2,
                    None => return Err(self.error("unterminated processing instruction")),
                }
            } else if rest.starts_with("</") {
                let gt = rest
                    .find('>')
                    .ok_or_else(|| self.error("unterminated end tag"))?;
                let name = rest[2..gt].trim();
                let expected = doc
                    .tree
                    .value(parent)
                    .name()
                    .expect("parent is an element");
                if name != expected {
                    return Err(self.error(format!(
                        "mismatched end tag: expected </{expected}>, found </{name}>"
                    )));
                }
                self.pos += gt + 1;
                return Ok(());
            } else if rest.starts_with('<') {
                let (node, self_closing) = self.parse_start_tag()?;
                let child = doc.tree.append_child(parent, node);
                if !self_closing {
                    self.parse_content(doc, child)?;
                }
            } else {
                let end = rest.find('<').unwrap_or(rest.len());
                let raw = &rest[..end];
                self.pos += end;
                let decoded = decode_references(raw).map_err(|m| self.error(m))?;
                if !decoded.trim().is_empty() {
                    doc.tree.append_child(parent, XmlNode::Text(decoded));
                }
            }
        }
    }

    /// Parses `<name attr="v" ...>` or `<name .../>`; `pos` is at `<`.
    fn parse_start_tag(&mut self) -> Result<(XmlNode, bool), XmlParseError> {
        let rest = self.rest();
        let gt = rest
            .find('>')
            .ok_or_else(|| self.error("unterminated start tag"))?;
        let inner = &rest[1..gt];
        let (inner, self_closing) = match inner.strip_suffix('/') {
            Some(s) => (s, true),
            None => (inner, false),
        };
        let name_end = inner
            .find(|c: char| c.is_whitespace())
            .unwrap_or(inner.len());
        let name = &inner[..name_end];
        if !crate::name::is_valid_name(name) {
            return Err(self.error(format!("invalid element name {name:?}")));
        }
        let mut attrs = Vec::new();
        let mut s = inner[name_end..].trim_start();
        while !s.is_empty() {
            let eq = s
                .find('=')
                .ok_or_else(|| self.error("attribute without value"))?;
            let key = s[..eq].trim();
            if !crate::name::is_valid_name(key) {
                return Err(self.error(format!("invalid attribute name {key:?}")));
            }
            let after = s[eq + 1..].trim_start();
            let quote = after
                .chars()
                .next()
                .filter(|c| *c == '"' || *c == '\'')
                .ok_or_else(|| self.error("attribute value must be quoted"))?;
            let body = &after[1..];
            let close = body
                .find(quote)
                .ok_or_else(|| self.error("unterminated attribute value"))?;
            let value = decode_references(&body[..close]).map_err(|m| self.error(m))?;
            attrs.push((attr_name(key), value));
            s = body[close + 1..].trim_start();
        }
        self.pos += gt + 1;
        Ok((
            XmlNode::Element {
                name: name.to_owned(),
                attrs,
            },
            self_closing,
        ))
    }
}

/// Decodes the five predefined XML entities and numeric references.
fn decode_references(input: &str) -> Result<String, String> {
    if !input.contains('&') {
        return Ok(input.to_owned());
    }
    let mut out = String::with_capacity(input.len());
    let mut rest = input;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_owned())?;
        let name = &rest[1..semi];
        let ch = match name {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                let code = u32::from_str_radix(&name[2..], 16)
                    .map_err(|_| format!("bad character reference &{name};"))?;
                char::from_u32(code).ok_or(format!("invalid codepoint &{name};"))?
            }
            _ if name.starts_with('#') => {
                let code = name[1..]
                    .parse::<u32>()
                    .map_err(|_| format!("bad character reference &{name};"))?;
                char::from_u32(code).ok_or(format!("invalid codepoint &{name};"))?
            }
            _ => return Err(format!("unknown entity &{name};")),
        };
        out.push(ch);
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::to_xml;

    #[test]
    fn parses_nested_elements() {
        let doc = parse_xml(r#"<resume><education val="E"><degree val="B.S."/></education></resume>"#)
            .unwrap();
        assert_eq!(doc.root_name(), "resume");
        assert_eq!(doc.element_count(), 3);
    }

    #[test]
    fn round_trips_writer_output() {
        let src = r#"<a val="x &amp; y"><b/><c val="1 &lt; 2"/>text</a>"#;
        let doc = parse_xml(src).unwrap();
        assert_eq!(to_xml(&doc), src);
    }

    #[test]
    fn skips_declaration_doctype_comments() {
        let doc = parse_xml(
            "<?xml version=\"1.0\"?><!DOCTYPE resume><!-- c --><resume/><!-- after -->",
        )
        .unwrap();
        assert_eq!(doc.root_name(), "resume");
    }

    #[test]
    fn decodes_numeric_references() {
        let doc = parse_xml("<a>&#65;&#x42;</a>").unwrap();
        let text = doc.tree.first_child(doc.root()).unwrap();
        assert_eq!(doc.tree.value(text), &XmlNode::Text("AB".into()));
    }

    #[test]
    fn rejects_mismatched_end_tag() {
        let err = parse_xml("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched end tag"), "{err}");
    }

    #[test]
    fn rejects_unterminated_element() {
        assert!(parse_xml("<a><b></b>").is_err());
    }

    #[test]
    fn rejects_unknown_entity() {
        assert!(parse_xml("<a>&nope;</a>").is_err());
    }

    #[test]
    fn rejects_trailing_content() {
        assert!(parse_xml("<a/><b/>").is_err());
    }

    #[test]
    fn rejects_unquoted_attribute() {
        assert!(parse_xml("<a val=x/>").is_err());
    }

    #[test]
    fn rejects_invalid_name() {
        assert!(parse_xml("<1a/>").is_err());
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let doc = parse_xml("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.tree.child_count(doc.root()), 1);
    }

    #[test]
    fn error_display_mentions_offset() {
        let err = parse_xml("junk").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }
}
