//! Position-aware concept-instance matching inside tokens.
//!
//! The concept instance rule needs more than a yes/no answer: when more
//! than one concept instance is found in a token, the token is decomposed
//! at the instance positions (Section 2.3.1, case 1). [`find_matches`]
//! therefore reports *where* each instance matched, in byte offsets of the
//! original token text, so the converter can split
//! `text1 C1 text3 C2 text5` into `<C1 val="C1 text3"/><C2 val="C2 text5"/>`
//! with `text1` passed to the parent.

use crate::concept::ConceptSet;

/// One concept-instance match inside a token. The concept name and the
/// instance borrow from the concept set (naive scanner) or the compiled
/// automaton, so reporting a match copies no strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConceptMatch<'a> {
    /// The matched concept's name.
    pub concept: &'a str,
    /// The instance text that matched.
    pub instance: &'a str,
    /// Byte offset of the match in the original token text.
    pub start: usize,
    /// Byte length of the matched region in the original token text.
    pub len: usize,
}

impl ConceptMatch<'_> {
    /// Byte offset one past the end of the match.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Lowercases `text` into `lower` while keeping in `map` the byte offset
/// in `text` of the character each byte of `lower` came from (both
/// buffers are cleared first). Shared with the automaton so both matchers
/// see the exact same lowered text and offset mapping.
pub(crate) fn lower_with_map(text: &str, lower: &mut String, map: &mut Vec<usize>) {
    lower.clear();
    map.clear();
    for (orig_idx, ch) in text.char_indices() {
        for lc in ch.to_lowercase() {
            let before = lower.len();
            lower.push(lc);
            for _ in before..lower.len() {
                map.push(orig_idx);
            }
        }
    }
    map.push(text.len()); // sentinel for end-of-string mapping
}

pub(crate) fn is_word_char(c: char) -> bool {
    c.is_alphanumeric()
}

/// Finds every word-boundary occurrence of every instance of every concept
/// in `text`. Matches are returned sorted by start position; overlapping
/// matches are resolved longest-first (so `"B.S. degree"` beats `"degree"`),
/// and at equal spans the earlier concept in the set wins.
///
/// This is the *naive* per-instance scanner: every instance of every
/// concept is searched independently, which is O(instances × text). The
/// conversion hot path uses [`crate::automaton::ConceptMatcher`] instead
/// (one automaton pass over the text); this scanner is retained as the
/// independent reference the `matcher-vs-naive` differential oracle
/// checks the automaton against.
pub fn find_matches<'a>(set: &'a ConceptSet, text: &str) -> Vec<ConceptMatch<'a>> {
    let (mut lower, mut map) = (String::new(), Vec::new());
    lower_with_map(text, &mut lower, &mut map);
    let mut candidates: Vec<ConceptMatch> = Vec::new();
    for concept in set.iter() {
        for instance in &concept.instances {
            let pat = instance.to_lowercase();
            if pat.is_empty() {
                continue;
            }
            let mut from = 0;
            while let Some(found) = lower[from..].find(&pat) {
                let begin = from + found;
                let end = begin + pat.len();
                let before_ok = begin == 0
                    || !lower[..begin]
                        .chars()
                        .next_back()
                        .is_some_and(is_word_char)
                    || !pat.chars().next().is_some_and(is_word_char);
                let after_ok = end == lower.len()
                    || !lower[end..].chars().next().is_some_and(is_word_char)
                    || !pat.chars().next_back().is_some_and(is_word_char);
                if before_ok && after_ok {
                    let orig_start = map[begin];
                    let orig_end = map[end];
                    candidates.push(ConceptMatch {
                        concept: &concept.name,
                        instance,
                        start: orig_start,
                        len: orig_end - orig_start,
                    });
                }
                // Advance by one whole character to stay on a boundary.
                from = begin
                    + lower[begin..]
                        .chars()
                        .next()
                        .map_or(1, char::len_utf8);
            }
        }
    }
    // Longest-first at the same start; then greedy non-overlapping sweep.
    candidates.sort_by(|a, b| a.start.cmp(&b.start).then(b.len.cmp(&a.len)));
    let mut out: Vec<ConceptMatch> = Vec::new();
    for m in candidates {
        if out.last().is_none_or(|prev| m.start >= prev.end()) {
            out.push(m);
        }
    }
    out
}

/// The distinct concept names matched in `text`, in match order.
pub fn matched_concepts(set: &ConceptSet, text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for m in find_matches(set, text) {
        if !out.iter().any(|c| c == m.concept) {
            out.push(m.concept.to_owned());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::{Concept, ConceptRole};

    fn set() -> ConceptSet {
        [
            Concept::new(
                "institution",
                ConceptRole::Content,
                ["University", "College", "Institute"],
            ),
            Concept::new(
                "degree",
                ConceptRole::Content,
                ["B.S.", "M.S.", "Ph.D.", "Bachelor of Science"],
            ),
            Concept::new(
                "date",
                ConceptRole::Content,
                ["January", "June", "1996", "1998"],
            ),
            Concept::new("gpa", ConceptRole::Content, ["GPA"]),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn finds_single_instance() {
        let set = set();
        let ms = find_matches(&set, "University of California at Davis");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].concept, "institution");
        assert_eq!(ms[0].start, 0);
        assert_eq!(&"University of California at Davis"[ms[0].start..ms[0].end()], "University");
    }

    #[test]
    fn case_insensitive_matching() {
        let set = set();
        let ms = find_matches(&set, "UNIVERSITY education");
        assert_eq!(ms[0].concept, "institution");
    }

    #[test]
    fn word_boundary_respected() {
        assert!(find_matches(&set(), "Universality is nice").is_empty());
        assert!(!find_matches(&set(), "State College.").is_empty());
    }

    #[test]
    fn multiple_concepts_in_order() {
        let text = "B.S. June 1996 GPA 3.8";
        let concepts = matched_concepts(&set(), text);
        assert_eq!(concepts, ["degree", "date", "gpa"]);
    }

    #[test]
    fn longest_instance_wins_overlap() {
        let s: ConceptSet = [
            Concept::new("degree", ConceptRole::Content, ["Bachelor of Science"]),
            Concept::new("major", ConceptRole::Content, ["Science"]),
        ]
        .into_iter()
        .collect();
        let ms = find_matches(&s, "Bachelor of Science");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].concept, "degree");
    }

    #[test]
    fn repeated_instance_matches_each_occurrence() {
        let set = set();
        let ms = find_matches(&set, "University and University");
        assert_eq!(ms.len(), 2);
        assert!(ms[0].start < ms[1].start);
    }

    #[test]
    fn punctuation_in_instance_is_matched_literally() {
        let set = set();
        let ms = find_matches(&set, "earned a B.S. in 1996");
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].concept, "degree");
        assert_eq!(ms[1].concept, "date");
    }

    #[test]
    fn empty_text_no_matches() {
        assert!(find_matches(&set(), "").is_empty());
    }

    #[test]
    fn offsets_are_original_bytes_with_unicode() {
        // 'É' lowercases to 'é' with the same utf-8 length, and 'İ' (Turkish
        // dotted I) lowercases to two chars — offsets must stay valid.
        let s: ConceptSet = [Concept::new("date", ConceptRole::Content, ["june"])]
            .into_iter()
            .collect();
        let text = "İİ résumé June 1996";
        let ms = find_matches(&s, text);
        assert_eq!(ms.len(), 1);
        assert_eq!(&text[ms[0].start..ms[0].end()], "June");
    }
}
