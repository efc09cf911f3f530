//! HTML tokenizer.
//!
//! Produces a stream of tokens from raw HTML text. Forgiving by design:
//! anything that does not parse as markup is treated as text, matching how
//! browsers handled the hand-written pages the paper's crawler collected.
//!
//! [`Lexer`] is an iterator the parser pulls from directly, so a document
//! is never held as a token vector. Element names are interned into
//! [`Tag`]s as they are read; comments, declarations and entity-free text
//! borrow from the input.

use std::borrow::Cow;

use crate::entities::{decode, decode_cow};
use crate::node::Attribute;
use crate::taxonomy::{KnownTag, Tag};

/// One lexical token of an HTML document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr="v">`; `self_closing` records a trailing `/`.
    StartTag {
        name: Tag,
        attrs: Vec<Attribute>,
        self_closing: bool,
    },
    /// `</name>`
    EndTag { name: Tag },
    /// A text run (entities decoded).
    Text(Cow<'a, str>),
    /// `<!-- ... -->`
    Comment(&'a str),
    /// `<!DOCTYPE ...>` (content after `<!`).
    Doctype(&'a str),
}

/// Tokenizes `input` into a vector of [`Token`]s.
pub fn tokenize(input: &str) -> Vec<Token<'_>> {
    Lexer::new(input).collect()
}

/// A streaming tokenizer over one input string.
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    /// The text a raw-text element's start tag already consumed, handed
    /// out right after the start tag.
    pending_text: Option<Token<'a>>,
    /// The end tag closing that raw-text element, handed out last.
    pending_end: Option<Token<'a>>,
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        if let Some(token) = self.pending_text.take().or_else(|| self.pending_end.take()) {
            return Some(token);
        }
        while self.pos < self.input.len() {
            let token = if self.rest().starts_with('<') {
                self.lex_markup()
            } else {
                self.lex_text()
            };
            if token.is_some() {
                return token;
            }
        }
        None
    }
}

impl<'a> Lexer<'a> {
    /// A lexer positioned at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer {
            input,
            pos: 0,
            pending_text: None,
            pending_end: None,
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    /// Consumes everything that is left.
    fn finish(&mut self) {
        self.pos = self.input.len();
    }

    fn lex_text(&mut self) -> Option<Token<'a>> {
        let rest = self.rest();
        let end = rest.find('<').unwrap_or(rest.len());
        let raw = &rest[..end];
        self.bump(end);
        (!raw.is_empty()).then(|| Token::Text(decode_cow(raw)))
    }

    fn lex_markup(&mut self) -> Option<Token<'a>> {
        let rest = self.rest();
        if rest.starts_with("<!--") {
            Some(self.lex_comment())
        } else if rest.starts_with("<!") {
            Some(self.lex_declaration())
        } else if rest.starts_with("<?") {
            // Bogus comment (e.g. a stray PHP tag in a saved page):
            // browsers swallow everything up to the next '>'.
            match rest.find('>') {
                Some(end) => {
                    self.bump(end + 1);
                    Some(Token::Comment(&rest[2..end]))
                }
                None => {
                    self.finish();
                    Some(Token::Comment(&rest[2..]))
                }
            }
        } else if rest.starts_with("</") {
            self.lex_end_tag()
        } else if rest.len() > 1 && rest.as_bytes()[1].is_ascii_alphabetic() {
            Some(self.lex_start_tag())
        } else {
            // A bare '<' that is not markup: emit as text.
            self.bump(1);
            Some(Token::Text(Cow::Borrowed("<")))
        }
    }

    fn lex_comment(&mut self) -> Token<'a> {
        let rest = self.rest();
        let body_start = 4; // "<!--"
        match rest[body_start..].find("-->") {
            Some(end) => {
                self.bump(body_start + end + 3);
                Token::Comment(&rest[body_start..body_start + end])
            }
            None => {
                // Unterminated comment swallows the rest of the input.
                self.finish();
                Token::Comment(&rest[body_start..])
            }
        }
    }

    fn lex_declaration(&mut self) -> Token<'a> {
        let rest = self.rest();
        match rest.find('>') {
            Some(end) => {
                self.bump(end + 1);
                Token::Doctype(declaration_body(&rest[2..end]))
            }
            None => {
                self.finish();
                Token::Doctype(declaration_body(&rest[2..]))
            }
        }
    }

    fn lex_end_tag(&mut self) -> Option<Token<'a>> {
        let rest = self.rest();
        match rest.find('>') {
            Some(end) => {
                let name = rest[2..end].trim().trim_end_matches('/').trim();
                self.bump(end + 1);
                (!name.is_empty()).then(|| Token::EndTag {
                    name: Tag::new(name),
                })
            }
            None => {
                // "</" with no closing '>': treat as text.
                self.finish();
                Some(Token::Text(Cow::Borrowed(rest)))
            }
        }
    }

    fn lex_start_tag(&mut self) -> Token<'a> {
        let rest = self.rest();
        let Some(gt) = find_tag_end(rest) else {
            // "<div" never closed: text.
            self.finish();
            return Token::Text(decode_cow(rest));
        };
        let inner = &rest[1..gt];
        let (inner, self_closing) = match inner.strip_suffix('/') {
            Some(stripped) => (stripped, true),
            None => (inner, false),
        };
        let name_end = inner
            .find(|c: char| c.is_ascii_whitespace())
            .unwrap_or(inner.len());
        let name = Tag::new(&inner[..name_end]);
        let attrs = parse_attrs(&inner[name_end..]);
        self.bump(gt + 1);
        if name.is_rawtext() && !self_closing {
            let body = self.rest();
            let (text, consumed) = match find_close_tag(body, name.as_str()) {
                Some(i) => {
                    let after = body[i..].find('>').map_or(body.len(), |j| i + j + 1);
                    (&body[..i], after)
                }
                None => (body, body.len()),
            };
            if !text.is_empty() {
                // `title` legitimately carries document text; scripts do not.
                let decoded = if name.is(KnownTag::Title) || name.is(KnownTag::Textarea) {
                    decode_cow(text)
                } else {
                    Cow::Borrowed(text)
                };
                self.pending_text = Some(Token::Text(decoded));
            }
            self.pending_end = Some(Token::EndTag { name: name.clone() });
            self.bump(consumed);
        }
        Token::StartTag {
            name,
            attrs,
            self_closing,
        }
    }
}

/// Finds the first `</name` in `body`, comparing the name ASCII
/// case-insensitively (`name` is lowercase). Scans forward from the start
/// of `body` without copying it, so a raw-text element costs time
/// proportional to its own content, not to the rest of the document.
fn find_close_tag(body: &str, name: &str) -> Option<usize> {
    let bytes = body.as_bytes();
    let name = name.as_bytes();
    let mut from = 0;
    while let Some(found) = body[from..].find("</") {
        let at = from + found;
        let candidate = &bytes[at + 2..];
        if candidate.len() >= name.len() && candidate[..name.len()].eq_ignore_ascii_case(name) {
            return Some(at);
        }
        from = at + 2;
    }
    None
}

/// Finds the index of the `>` ending a tag that starts at `rest[0] == '<'`,
/// skipping `>` inside quoted attribute values.
fn find_tag_end(rest: &str) -> Option<usize> {
    let bytes = rest.as_bytes();
    let mut quote: Option<u8> = None;
    for (i, &b) in bytes.iter().enumerate().skip(1) {
        match quote {
            Some(q) => {
                if b == q {
                    quote = None;
                }
            }
            None => match b {
                b'"' | b'\'' => quote = Some(b),
                b'>' => return Some(i),
                _ => {}
            },
        }
    }
    None
}

/// Normalizes the content of a `<!...>` declaration. Leading dashes are
/// stripped: re-emitting a declaration that starts with `--` would produce
/// `<!--`, which re-lexes as a comment instead of a declaration.
fn declaration_body(raw: &str) -> &str {
    raw.trim().trim_start_matches('-').trim_start()
}

/// Characters that make an attribute name unusable: a quote re-lexes as a
/// value delimiter and a slash can merge with the tag close into a
/// self-closing marker, so such names cannot survive a serialize/reparse
/// round trip. The attribute is dropped, as HTML Tidy drops malformed
/// attributes.
fn name_is_garbage(name: &str) -> bool {
    name.contains(['"', '\'', '/'])
}

/// Parses the attribute list of a start tag.
fn parse_attrs(mut s: &str) -> Vec<Attribute> {
    let mut attrs = Vec::new();
    loop {
        s = s.trim_start();
        if s.is_empty() {
            return attrs;
        }
        let name_end = s
            .find(|c: char| c.is_ascii_whitespace() || c == '=')
            .unwrap_or(s.len());
        if name_end == 0 {
            // Stray '=' or similar: skip one char to guarantee progress.
            s = &s[1..];
            continue;
        }
        let name = s[..name_end].to_ascii_lowercase();
        s = s[name_end..].trim_start();
        let value = if let Some(rest) = s.strip_prefix('=') {
            let rest = rest.trim_start();
            if let Some(q) = rest.strip_prefix('"') {
                let end = q.find('"').unwrap_or(q.len());
                s = &q[(end + 1).min(q.len())..];
                decode(&q[..end])
            } else if let Some(q) = rest.strip_prefix('\'') {
                let end = q.find('\'').unwrap_or(q.len());
                s = &q[(end + 1).min(q.len())..];
                decode(&q[..end])
            } else {
                let end = rest
                    .find(|c: char| c.is_ascii_whitespace())
                    .unwrap_or(rest.len());
                s = &rest[end..];
                decode(&rest[..end])
            }
        } else {
            // Boolean attribute like `checked`.
            String::new()
        };
        if !name_is_garbage(&name) {
            attrs.push(Attribute { name, value });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(name: &str) -> Token<'static> {
        Token::StartTag {
            name: Tag::new(name),
            attrs: vec![],
            self_closing: false,
        }
    }

    fn end(name: &str) -> Token<'static> {
        Token::EndTag {
            name: Tag::new(name),
        }
    }

    #[test]
    fn simple_element() {
        let toks = tokenize("<p>hi</p>");
        assert_eq!(toks, vec![start("p"), Token::Text("hi".into()), end("p")]);
    }

    #[test]
    fn tag_names_lowercased() {
        let toks = tokenize("<DIV></DiV>");
        assert_eq!(toks, vec![start("div"), end("div")]);
    }

    #[test]
    fn attributes_quoted_unquoted_boolean() {
        let toks = tokenize(r#"<input type="text" value='a b' checked size=4>"#);
        let Token::StartTag { name, attrs, .. } = &toks[0] else {
            panic!("expected start tag");
        };
        assert_eq!(name, "input");
        let get = |n: &str| attrs.iter().find(|a| a.name == n).map(|a| a.value.as_str());
        assert_eq!(get("type"), Some("text"));
        assert_eq!(get("value"), Some("a b"));
        assert_eq!(get("checked"), Some(""));
        assert_eq!(get("size"), Some("4"));
    }

    #[test]
    fn self_closing_flag() {
        let toks = tokenize("<br/><hr />");
        assert!(matches!(
            &toks[0],
            Token::StartTag { self_closing: true, name, .. } if name == "br"
        ));
        assert!(matches!(
            &toks[1],
            Token::StartTag { self_closing: true, name, .. } if name == "hr"
        ));
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let toks = tokenize(r#"<a title="Fish &amp; Chips">R&amp;D</a>"#);
        assert!(matches!(&toks[1], Token::Text(t) if t == "R&D"));
        let Token::StartTag { attrs, .. } = &toks[0] else {
            panic!()
        };
        assert_eq!(attrs[0].value, "Fish & Chips");
    }

    #[test]
    fn comments_and_doctype() {
        let toks = tokenize("<!DOCTYPE html><!-- note -->x");
        assert_eq!(toks[0], Token::Doctype("DOCTYPE html"));
        assert_eq!(toks[1], Token::Comment(" note "));
        assert_eq!(toks[2], Token::Text("x".into()));
    }

    #[test]
    fn unterminated_comment_swallows_rest() {
        let toks = tokenize("a<!-- open forever");
        assert_eq!(toks[0], Token::Text("a".into()));
        assert_eq!(toks[1], Token::Comment(" open forever"));
    }

    #[test]
    fn script_content_is_raw() {
        let toks = tokenize("<script>if (a<b) { x(); }</script>after");
        assert_eq!(toks[0], start("script"));
        assert_eq!(toks[1], Token::Text("if (a<b) { x(); }".into()));
        assert_eq!(toks[2], end("script"));
        assert_eq!(toks[3], Token::Text("after".into()));
    }

    #[test]
    fn title_content_is_text_until_close() {
        let toks = tokenize("<title>My <Resume></title>");
        assert_eq!(toks[1], Token::Text("My <Resume>".into()));
    }

    #[test]
    fn rawtext_close_tag_case_insensitive() {
        let toks = tokenize("<STYLE>.x{}</Style>z");
        assert_eq!(toks[0], start("style"));
        assert_eq!(toks[1], Token::Text(".x{}".into()));
        assert_eq!(toks[2], end("style"));
        assert_eq!(toks[3], Token::Text("z".into()));
    }

    /// The raw-text split the lexer used to compute by lowercasing the
    /// whole rest of the input: `(text end, bytes consumed)`.
    fn reference_rawtext_split(body: &str, name: &str) -> (usize, usize) {
        let lower = body.to_ascii_lowercase();
        match lower.find(&format!("</{name}")) {
            Some(i) => (i, lower[i..].find('>').map_or(lower.len(), |j| i + j + 1)),
            None => (body.len(), body.len()),
        }
    }

    #[test]
    fn rawtext_scan_is_byte_identical_to_lowercased_copy() {
        let bodies = [
            "x</title>",
            "x</TITLE>rest",
            "x</TiTlE >rest<b>bold</b>",
            "x</titlex>after</title>",
            "résumé — naïve &amp; co</Title>tail",
            "ÄÖÜ</tİtle>still raw</TITLE>",
            "İİ</title",
            "unterminated raw text",
            "unterminated with </ti",
            "<</title>",
            "</</title>",
            "",
            "</title",
            "a</title></title>",
        ];
        for name in ["title", "script"] {
            for body in bodies {
                let body = body
                    .replace("title", name)
                    .replace("TITLE", &name.to_uppercase());
                let (text_end, consumed) = reference_rawtext_split(&body, name);
                assert_eq!(
                    find_close_tag(&body, name).unwrap_or(body.len()),
                    text_end,
                    "closer position in {body:?}"
                );
                let mut expected = vec![start(name)];
                let text = &body[..text_end];
                if !text.is_empty() {
                    let text = if name == "title" {
                        decode(text)
                    } else {
                        text.to_owned()
                    };
                    expected.push(Token::Text(text.into()));
                }
                expected.push(end(name));
                expected.extend(tokenize(&body[consumed..]));
                let upper = name.to_uppercase();
                for open in [name, upper.as_str()] {
                    assert_eq!(
                        tokenize(&format!("<{open}>{body}")),
                        expected,
                        "tokens of <{open}>{body:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn php_tag_is_bogus_comment() {
        let toks = tokenize("a<?php echo 1; ?>b");
        assert_eq!(toks[0], Token::Text("a".into()));
        assert!(matches!(&toks[1], Token::Comment(c) if c.contains("php")));
        assert_eq!(toks[2], Token::Text("b".into()));
    }

    #[test]
    fn bare_less_than_is_text() {
        let toks = tokenize("a < b");
        assert_eq!(
            toks,
            vec![
                Token::Text("a ".into()),
                Token::Text("<".into()),
                Token::Text(" b".into())
            ]
        );
    }

    #[test]
    fn gt_inside_quoted_attr_does_not_end_tag() {
        let toks = tokenize(r#"<img alt="x > y">"#);
        let Token::StartTag { name, attrs, .. } = &toks[0] else {
            panic!()
        };
        assert_eq!(name, "img");
        assert_eq!(attrs[0].value, "x > y");
        assert_eq!(toks.len(), 1);
    }

    #[test]
    fn unclosed_tag_at_eof_is_text() {
        let toks = tokenize("text <div class=");
        assert_eq!(toks[0], Token::Text("text ".into()));
        assert!(matches!(&toks[1], Token::Text(t) if t.starts_with("<div")));
    }

    #[test]
    fn end_tag_with_whitespace() {
        let toks = tokenize("<b>x</b >");
        assert_eq!(toks[2], end("b"));
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(tokenize("").is_empty());
    }
}
