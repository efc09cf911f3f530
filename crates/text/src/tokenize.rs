//! The tokenization rule's text machinery.
//!
//! A *topic sentence* such as
//! `"University of California at Davis, B.S.(Computer Science), June 1996,
//! GPA 3.8/4.0"` is decomposed into tokens on punctuation delimiters; each
//! token is then classified by the concept instance rule. The number and
//! order of tokens depends on the delimiter set, which is configurable via
//! [`Delimiters`] (the paper's experiments use `; , :`).

/// The delimiter set used to split topic sentences into tokens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delimiters {
    chars: Vec<char>,
}

impl Default for Delimiters {
    /// The paper's Section 4 annotation: `; , :`.
    fn default() -> Self {
        Delimiters {
            chars: vec![';', ',', ':'],
        }
    }
}

impl Delimiters {
    /// Creates a delimiter set from the given characters.
    pub fn new(chars: impl IntoIterator<Item = char>) -> Self {
        Delimiters {
            chars: chars.into_iter().collect(),
        }
    }

    /// Whether `c` is a delimiter.
    pub fn contains(&self, c: char) -> bool {
        self.chars.contains(&c)
    }

    /// The delimiter characters.
    pub fn chars(&self) -> &[char] {
        &self.chars
    }
}

/// Splits `text` into trimmed, non-empty tokens on the delimiter set.
///
/// A delimiter inside a number (e.g. the comma in `10,000` or the colon in
/// `10:30`) does *not* split: the paper's delimiters separate information
/// components, and digit-adjacent punctuation is part of a value.
///
/// ```
/// use webre_text::tokenize::{split_tokens, Delimiters};
/// let toks = split_tokens(
///     "University of California at Davis, B.S.(Computer Science), June 1996, GPA 3.8/4.0",
///     &Delimiters::default(),
/// );
/// assert_eq!(toks, [
///     "University of California at Davis",
///     "B.S.(Computer Science)",
///     "June 1996",
///     "GPA 3.8/4.0",
/// ]);
/// ```
pub fn split_tokens(text: &str, delims: &Delimiters) -> Vec<String> {
    split_tokens_obs(text, delims, webre_obs::Ctx::disabled())
}

/// [`split_tokens`] with observability: reports every produced token to
/// the context's `tokens_split` counter. The token output is identical —
/// the counter ride-along never influences splitting.
pub fn split_tokens_obs(
    text: &str,
    delims: &Delimiters,
    ctx: webre_obs::Ctx<'_>,
) -> Vec<String> {
    let tokens = split_tokens_impl(text, delims);
    if !tokens.is_empty() {
        ctx.count(webre_obs::counter::TOKENS_SPLIT, tokens.len() as u64);
    }
    tokens
}

fn split_tokens_impl(text: &str, delims: &Delimiters) -> Vec<String> {
    split_token_spans(text, delims)
        .into_iter()
        .map(|(start, end)| text[start..end].to_owned())
        .collect()
}

/// Like [`split_tokens`] but returning the trimmed byte range of each token
/// in `text` instead of owned copies. `split_tokens(text, d)` is exactly
/// `split_token_spans(text, d)` with each range sliced out of `text` — the
/// zero-copy shape the converter's arena representation stores, so token
/// text is borrowed from the originating text buffer instead of allocated
/// per token.
pub fn split_token_spans(text: &str, delims: &Delimiters) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    split_token_spans_into(text, delims, &mut spans);
    spans
}

/// [`split_token_spans`] into a caller-owned buffer (cleared first), so a
/// caller splitting many texts reuses one allocation.
pub fn split_token_spans_into(text: &str, delims: &Delimiters, spans: &mut Vec<(usize, usize)>) {
    spans.clear();
    if text.is_ascii() && delims.chars.iter().all(char::is_ascii) {
        split_token_spans_ascii(text, delims, spans);
    } else {
        split_token_spans_chars(text, delims, spans);
    }
}

/// The general char-decoding walk; reference semantics for the ASCII
/// fast path below.
fn split_token_spans_chars(text: &str, delims: &Delimiters, spans: &mut Vec<(usize, usize)>) {
    let mut run_start = 0usize;
    let mut prev: Option<char> = None;
    let mut iter = text.char_indices().peekable();
    while let Some((i, c)) = iter.next() {
        if delims.contains(c) {
            // A delimiter inside a number (10,000 / 10:30) is part of the
            // value, not a split point — same rule as `split_tokens`.
            let prev_digit = prev.is_some_and(|p| p.is_ascii_digit());
            let next_digit = iter.peek().is_some_and(|&(_, n)| n.is_ascii_digit());
            if !(prev_digit && next_digit) {
                push_trimmed_span(text, run_start, i, spans);
                run_start = i + c.len_utf8();
            }
        }
        prev = Some(c);
    }
    push_trimmed_span(text, run_start, text.len(), spans);
}

/// Byte-scan fast path for ASCII text with ASCII delimiters (the paper's
/// `; , :` set): for ASCII input, byte positions are char positions, so
/// the char-decoding walk above reduces to a plain byte loop. Behavior is
/// identical — same delimiter test, same digit-flanked exemption, same
/// trimming.
fn split_token_spans_ascii(text: &str, delims: &Delimiters, spans: &mut Vec<(usize, usize)>) {
    let bytes = text.as_bytes();
    let mut is_delim = [false; 128];
    for &c in delims.chars.iter() {
        is_delim[c as usize] = true;
    }
    let mut run_start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if is_delim[b as usize] {
            let prev_digit = i > 0 && bytes[i - 1].is_ascii_digit();
            let next_digit = i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit();
            if !(prev_digit && next_digit) {
                push_trimmed_span(text, run_start, i, spans);
                run_start = i + 1;
            }
        }
    }
    push_trimmed_span(text, run_start, text.len(), spans);
}

/// Trims whitespace off `text[start..end]` and records the remaining range
/// if non-empty.
fn push_trimmed_span(text: &str, start: usize, end: usize, spans: &mut Vec<(usize, usize)>) {
    let slice = &text[start..end];
    let unled = slice.trim_start();
    let trimmed = unled.trim_end();
    if !trimmed.is_empty() {
        let lead = slice.len() - unled.len();
        spans.push((start + lead, start + lead + trimmed.len()));
    }
}

/// Extracts lowercase word features from a token for classification:
/// maximal alphanumeric runs, lowercased. Pure numbers are mapped to the
/// feature `#num` so the classifier can learn "contains a number" without
/// memorizing every literal value.
///
/// ```
/// use webre_text::tokenize::words;
/// assert_eq!(words("GPA 3.8/4.0"), ["gpa", "#num", "#num", "#num", "#num"]);
/// assert_eq!(words("B.S.(Computer Science)"), ["b", "s", "computer", "science"]);
/// ```
pub fn words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() {
            current.extend(c.to_lowercase());
        } else if !current.is_empty() {
            out.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    for w in &mut out {
        if w.chars().all(|c| c.is_ascii_digit()) {
            *w = "#num".to_owned();
        }
    }
    out
}

/// Case-insensitive word-boundary containment: whether `needle` occurs in
/// `haystack` as a whole-word (sequence), used by synonym matching.
///
/// ```
/// use webre_text::tokenize::contains_word;
/// assert!(contains_word("University of California", "university"));
/// assert!(!contains_word("Universality", "university"));
/// ```
pub fn contains_word(haystack: &str, needle: &str) -> bool {
    if needle.is_empty() {
        return false;
    }
    let hay = haystack.to_lowercase();
    let pat = needle.to_lowercase();
    let mut start = 0;
    while let Some(found) = hay[start..].find(&pat) {
        let begin = start + found;
        let end = begin + pat.len();
        let before_ok = begin == 0
            || !hay[..begin]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric());
        let after_ok = end == hay.len()
            || !hay[end..].chars().next().is_some_and(|c| c.is_alphanumeric());
        if before_ok && after_ok {
            return true;
        }
        start = begin + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topic_sentence() {
        let toks = split_tokens(
            "University of California at Davis, B.S.(Computer Science), June 1996, GPA 3.8/4.0",
            &Delimiters::default(),
        );
        assert_eq!(toks.len(), 4);
        assert_eq!(toks[0], "University of California at Davis");
        assert_eq!(toks[3], "GPA 3.8/4.0");
    }

    #[test]
    fn semicolons_and_colons_split() {
        let toks = split_tokens("Skills: C++; Java; Perl", &Delimiters::default());
        assert_eq!(toks, ["Skills", "C++", "Java", "Perl"]);
    }

    #[test]
    fn numeric_punctuation_does_not_split() {
        let toks = split_tokens("Managed 10,000 users, saved $1,500", &Delimiters::default());
        assert_eq!(toks, ["Managed 10,000 users", "saved $1,500"]);
        let toks = split_tokens("Meeting at 10:30, room 5", &Delimiters::default());
        assert_eq!(toks, ["Meeting at 10:30", "room 5"]);
    }

    #[test]
    fn empty_and_delimiter_only_inputs() {
        assert!(split_tokens("", &Delimiters::default()).is_empty());
        assert!(split_tokens(" ;,; ", &Delimiters::default()).is_empty());
    }

    #[test]
    fn custom_delimiters() {
        let d = Delimiters::new(['|']);
        assert_eq!(split_tokens("a, b | c", &d), ["a, b", "c"]);
    }

    #[test]
    fn whole_text_is_one_token_without_delimiters() {
        let toks = split_tokens("just one component", &Delimiters::default());
        assert_eq!(toks, ["just one component"]);
    }

    #[test]
    fn spans_slice_back_to_tokens() {
        for text in [
            "University of California at Davis, B.S.(Computer Science), June 1996, GPA 3.8/4.0",
            "Skills: C++; Java; Perl",
            "Managed 10,000 users, saved $1,500",
            "Meeting at 10:30, room 5",
            " ;,; ",
            "",
            "  padded , tokens  ",
            "résumé, naïve; 1996",
        ] {
            let d = Delimiters::default();
            let from_spans: Vec<&str> = split_token_spans(text, &d)
                .into_iter()
                .map(|(s, e)| &text[s..e])
                .collect();
            assert_eq!(from_spans, split_tokens(text, &d), "on {text:?}");
        }
    }

    #[test]
    fn ascii_span_fast_path_matches_char_walk() {
        let d = Delimiters::default();
        for text in [
            "University of California at Davis, B.S.(Computer Science), June 1996, GPA 3.8/4.0",
            "Skills: C++; Java; Perl",
            "Managed 10,000 users, saved $1,500",
            "Meeting at 10:30, room 5",
            " ;,; ",
            "",
            ",",
            "1,2",
            "a,1",
            "1,a",
            "  padded , tokens  ",
        ] {
            assert!(text.is_ascii());
            let mut reference = Vec::new();
            split_token_spans_chars(text, &d, &mut reference);
            assert_eq!(
                split_token_spans(text, &d),
                reference,
                "fast path diverged on {text:?}"
            );
        }
    }

    #[test]
    fn words_lowercase_and_split_on_punct() {
        assert_eq!(words("Hello, World!"), ["hello", "world"]);
        assert_eq!(words("C++"), ["c"]);
        assert_eq!(words(""), Vec::<String>::new());
    }

    #[test]
    fn words_map_numbers_to_num_token() {
        assert_eq!(words("June 1996"), ["june", "#num"]);
        assert_eq!(words("v2"), ["v2"], "mixed alphanumerics stay literal");
    }

    #[test]
    fn contains_word_boundaries() {
        assert!(contains_word("B.S. in CS", "b.s."));
        assert!(contains_word("University of California", "University"));
        assert!(contains_word("the college", "college"));
        assert!(!contains_word("collegestudent", "college"));
        assert!(!contains_word("", "x"));
        assert!(!contains_word("x", ""));
    }

    #[test]
    fn contains_word_multiword_needle() {
        assert!(contains_word(
            "received B.S. degree from MIT",
            "b.s. degree"
        ));
        assert!(!contains_word("BSc degree", "b.s. degree"));
    }
}
