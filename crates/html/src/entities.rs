//! HTML character reference (entity) decoding and encoding.
//!
//! Legacy resume pages lean heavily on `&nbsp;`, `&amp;` and friends; the
//! lexer decodes them in text and attribute values so that downstream
//! concept matching sees plain characters. The table covers the named
//! entities that actually occur in 1990s/2000s-era HTML plus full numeric
//! (`&#123;` / `&#x1F;`) support.

use std::borrow::Cow;

/// Named entities supported by [`decode`]. Sorted for binary search.
const NAMED: &[(&str, char)] = &[
    ("AElig", 'Æ'),
    ("Aacute", 'Á'),
    ("Agrave", 'À'),
    ("Auml", 'Ä'),
    ("Ccedil", 'Ç'),
    ("Eacute", 'É'),
    ("Egrave", 'È'),
    ("Ntilde", 'Ñ'),
    ("Ouml", 'Ö'),
    ("Uuml", 'Ü'),
    ("aacute", 'á'),
    ("agrave", 'à'),
    ("amp", '&'),
    ("apos", '\''),
    ("auml", 'ä'),
    ("bull", '•'),
    ("ccedil", 'ç'),
    ("cent", '¢'),
    ("copy", '©'),
    ("deg", '°'),
    ("eacute", 'é'),
    ("egrave", 'è'),
    ("euml", 'ë'),
    ("euro", '€'),
    ("gt", '>'),
    ("hellip", '…'),
    ("iacute", 'í'),
    ("laquo", '«'),
    ("ldquo", '“'),
    ("lsquo", '‘'),
    ("lt", '<'),
    ("mdash", '—'),
    ("middot", '·'),
    ("nbsp", '\u{a0}'),
    ("ndash", '–'),
    ("ntilde", 'ñ'),
    ("oacute", 'ó'),
    ("ouml", 'ö'),
    ("para", '¶'),
    ("pound", '£'),
    ("quot", '"'),
    ("raquo", '»'),
    ("rdquo", '”'),
    ("reg", '®'),
    ("rsquo", '’'),
    ("sect", '§'),
    ("shy", '\u{ad}'),
    ("times", '×'),
    ("trade", '™'),
    ("uacute", 'ú'),
    ("uuml", 'ü'),
    ("yen", '¥'),
];

fn lookup_named(name: &str) -> Option<char> {
    NAMED
        .binary_search_by(|(n, _)| n.cmp(&name))
        .ok()
        .map(|i| NAMED[i].1)
}

/// Decodes all character references in `input`.
///
/// Unknown or malformed references are passed through verbatim, matching
/// browser behaviour for legacy pages. The terminating `;` is optional for
/// named references (common in old hand-written HTML) but required to be a
/// clean word boundary in that case.
pub fn decode(input: &str) -> String {
    decode_cow(input).into_owned()
}

/// [`decode`] borrowing the input when it holds no reference at all — the
/// common text run, which then costs no allocation.
pub fn decode_cow(input: &str) -> Cow<'_, str> {
    if !input.contains('&') {
        return Cow::Borrowed(input);
    }
    let mut out = String::with_capacity(input.len());
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            let start = i;
            while i < bytes.len() && bytes[i] != b'&' {
                i += 1;
            }
            out.push_str(&input[start..i]);
            continue;
        }
        match decode_reference(&input[i..]) {
            Some((ch, len)) => {
                out.push(ch);
                i += len;
            }
            None => {
                out.push('&');
                i += 1;
            }
        }
    }
    Cow::Owned(out)
}

/// Attempts to decode one reference at the start of `s` (which begins with
/// `&`). Returns the decoded char and the number of input bytes consumed.
fn decode_reference(s: &str) -> Option<(char, usize)> {
    let rest = &s[1..];
    if let Some(num) = rest.strip_prefix('#') {
        let (digits, radix) = match num.strip_prefix(['x', 'X']) {
            Some(hex) => (hex, 16),
            None => (num, 10),
        };
        let end = digits
            .find(|c: char| !c.is_ascii_hexdigit())
            .unwrap_or(digits.len());
        let end = digits[..end]
            .find(|c: char| !c.is_digit(radix))
            .unwrap_or(end);
        if end == 0 {
            return None;
        }
        let code = u32::from_str_radix(&digits[..end], radix).ok()?;
        let ch = char::from_u32(code).unwrap_or('\u{fffd}');
        // 1 for '&', 1 for '#', maybe 1 for 'x'.
        let mut len = 2 + end + if radix == 16 { 1 } else { 0 };
        if s.as_bytes().get(len) == Some(&b';') {
            len += 1;
        }
        return Some((ch, len));
    }
    let end = rest
        .find(|c: char| !c.is_ascii_alphanumeric())
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    let name = &rest[..end];
    let ch = lookup_named(name)?;
    let mut len = 1 + end;
    if s.as_bytes().get(len) == Some(&b';') {
        len += 1;
    }
    Some((ch, len))
}

/// Escapes text content for HTML/XML output (`& < >`).
pub fn escape_text(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for ch in input.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(ch),
        }
    }
    out
}

/// Escapes an attribute value for double-quoted output (`& < > "`).
pub fn escape_attr(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for ch in input.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_table_is_sorted() {
        for w in NAMED.windows(2) {
            assert!(w[0].0 < w[1].0, "{} >= {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn decodes_common_named_entities() {
        assert_eq!(decode("Fish &amp; Chips"), "Fish & Chips");
        assert_eq!(decode("&lt;b&gt;"), "<b>");
        assert_eq!(decode("a&nbsp;b"), "a\u{a0}b");
        assert_eq!(decode("&copy; 2001"), "© 2001");
    }

    #[test]
    fn decodes_without_trailing_semicolon() {
        assert_eq!(decode("Fish &amp Chips"), "Fish & Chips");
        assert_eq!(decode("R&amp;D"), "R&D");
    }

    #[test]
    fn decodes_numeric_references() {
        assert_eq!(decode("&#65;&#66;"), "AB");
        assert_eq!(decode("&#x41;"), "A");
        assert_eq!(decode("&#X41;"), "A");
        assert_eq!(decode("&#233;"), "é");
    }

    #[test]
    fn invalid_codepoint_becomes_replacement() {
        assert_eq!(decode("&#xD800;"), "\u{fffd}");
    }

    #[test]
    fn unknown_references_pass_through() {
        assert_eq!(decode("&bogus;"), "&bogus;");
        assert_eq!(decode("a & b"), "a & b");
        assert_eq!(decode("&"), "&");
        assert_eq!(decode("&#;"), "&#;");
    }

    #[test]
    fn escape_text_round_trips_via_decode() {
        let raw = "a < b & c > d";
        assert_eq!(decode(&escape_text(raw)), raw);
    }

    #[test]
    fn escape_attr_escapes_quotes() {
        assert_eq!(escape_attr(r#"say "hi""#), "say &quot;hi&quot;");
        assert_eq!(decode(&escape_attr(r#"a"b<c"#)), r#"a"b<c"#);
    }

    #[test]
    fn decode_is_noop_without_ampersand() {
        assert_eq!(decode("plain text"), "plain text");
    }
}
