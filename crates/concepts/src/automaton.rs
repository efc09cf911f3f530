//! Aho–Corasick concept-instance matching: the cold-conversion fast path.
//!
//! [`crate::matcher::find_matches`] scans the text once *per concept
//! instance* — O(instances × text) — which made concept matching the
//! dominant cost of document conversion (the resume domain carries 233
//! instances, so every token was scanned 233 times). [`ConceptMatcher`]
//! compiles the whole catalogue into a byte-level Aho–Corasick automaton
//! **once per concept set** and then matches every document with a single
//! pass over the lowered text: one DFA transition per byte, independent of
//! how many instances the catalogue holds.
//!
//! The contract is strict: for every input, [`ConceptMatcher::find_matches`]
//! returns matches **identical** to the naive scanner's —
//! same positions, same concept attributions, same resolution of
//! overlapping and equal-span candidates. The tie-break order of the naive
//! scanner is reproduced exactly (see [`ConceptMatcher::find_matches`]),
//! and the `matcher-vs-naive` differential oracle in `webre-check` holds
//! the equivalence over fuzzed concept sets, fuzzed token streams and all
//! golden fixtures.

use crate::concept::ConceptSet;
use crate::matcher::{is_word_char, lower_with_map, ConceptMatch};

/// Transition target meaning "no trie edge" during construction. The
/// finished automaton is a complete DFA and never contains this value.
const NONE: u32 = u32::MAX;

/// Flag bit of a finished transition: the target state has outputs, so
/// the scan only consults the output lists on the bytes that end a match.
const HAS_OUTPUT: u32 = 1 << 31;

/// Per-pattern metadata carried out of the build.
#[derive(Clone, Debug)]
struct Pattern {
    /// Concept this instance belongs to.
    concept: String,
    /// The instance text as authored (not lowercased).
    instance: String,
    /// Byte length of the *lowercased* pattern (match spans in the
    /// lowered text always have exactly this length).
    len: usize,
    /// Whether the lowered pattern starts with a word character — decides
    /// whether a word character *before* a match vetoes it.
    first_is_word: bool,
    /// Whether the lowered pattern ends with a word character — decides
    /// whether a word character *after* a match vetoes it.
    last_is_word: bool,
}

/// One candidate occurrence, pre-tie-break.
#[derive(Debug)]
struct Candidate {
    /// Byte offset in the original text.
    start: usize,
    /// Byte length in the original text.
    len: usize,
    /// Pattern index, in (concept, instance) declaration order.
    pattern: u32,
    /// Byte offset in the lowered text (final tie-break key).
    lower_begin: usize,
}

/// Reusable buffers for [`ConceptMatcher::find_matches_with`]: candidate
/// occurrences, plus the lowered text and its offset map for non-ASCII
/// tokens. One scratch reused across every token of a document makes
/// matching allocation-free once the buffers have grown.
#[derive(Debug, Default)]
pub struct MatchScratch {
    candidates: Vec<Candidate>,
    lower: String,
    map: Vec<usize>,
}

/// A concept catalogue compiled into an Aho–Corasick automaton.
///
/// Build once per [`ConceptSet`] (the converter does this at
/// construction), reuse across every document and token. Matching is a
/// single pass over the lowered text regardless of catalogue size.
///
/// The transition table is compressed over *byte equivalence classes*:
/// every byte that appears in no pattern behaves identically in every
/// state (its edge always leads wherever the failure chain's root edge
/// leads), so all such bytes share class 0 and each distinct pattern
/// byte gets its own class. The resume catalogue uses ~40 distinct
/// bytes, shrinking the table ~6× versus a 256-wide row per state —
/// small enough to stay cache-resident while a document streams through.
#[derive(Clone)]
pub struct ConceptMatcher {
    /// Byte → equivalence class, ASCII case folded. Class 0 is "appears
    /// in no pattern"; `u16` because a pathological catalogue can use all
    /// 256 bytes, which needs 257 classes.
    classes: [u16; 256],
    /// Number of equivalence classes (row width of `next`).
    class_count: usize,
    /// Complete DFA over premultiplied rows: `next[row + class]` is the
    /// target state's row offset (`state * class_count`), tagged with
    /// [`HAS_OUTPUT`] when that state ends some pattern. The root's row
    /// is 0.
    next: Vec<u32>,
    /// Patterns ending at each state (own + failure chain), ascending by
    /// pattern index so candidate emission respects declaration order:
    /// state `s` owns `output_ids[output_start[s]..output_start[s + 1]]`.
    output_start: Vec<u32>,
    output_ids: Vec<u32>,
    patterns: Vec<Pattern>,
}

impl std::fmt::Debug for ConceptMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConceptMatcher")
            .field("states", &(self.next.len() / self.class_count.max(1)))
            .field("classes", &self.class_count)
            .field("patterns", &self.patterns.len())
            .finish()
    }
}

impl ConceptMatcher {
    /// Compiles every non-empty instance of every concept in `set`.
    ///
    /// Patterns are numbered in `(concept, instance)` declaration order —
    /// the same order the naive scanner visits them — because that order
    /// is the equal-span tie-break.
    pub fn new(set: &ConceptSet) -> Self {
        let mut patterns = Vec::new();
        let mut lowered: Vec<String> = Vec::new();
        for concept in set.iter() {
            for instance in &concept.instances {
                let pat = instance.to_lowercase();
                if pat.is_empty() {
                    continue;
                }
                patterns.push(Pattern {
                    concept: concept.name.clone(),
                    instance: instance.clone(),
                    len: pat.len(),
                    first_is_word: pat.chars().next().is_some_and(is_word_char),
                    last_is_word: pat.chars().next_back().is_some_and(is_word_char),
                });
                lowered.push(pat);
            }
        }

        // Byte equivalence classes: distinct classes for bytes used by
        // some pattern, one shared class for every other byte.
        let mut classes = [0u16; 256];
        let mut class_count = 1usize;
        for pat in &lowered {
            for &b in pat.as_bytes() {
                if classes[b as usize] == 0 {
                    classes[b as usize] = class_count as u16;
                    class_count += 1;
                }
            }
        }
        // Fold ASCII case into the classes: lowered patterns hold no ASCII
        // uppercase, so an uppercase byte can share its lowercase twin's
        // class and the ASCII scan needs no per-byte lowercasing.
        for upper in b'A'..=b'Z' {
            classes[upper as usize] = classes[upper.to_ascii_lowercase() as usize];
        }

        // Trie construction over pattern byte classes.
        let mut next: Vec<u32> = vec![NONE; class_count];
        let mut own: Vec<Vec<u32>> = vec![Vec::new()];
        for (id, pat) in lowered.iter().enumerate() {
            let mut state = 0usize;
            for &b in pat.as_bytes() {
                let slot = state * class_count + classes[b as usize] as usize;
                if next[slot] == NONE {
                    let new_state = own.len() as u32;
                    next.extend(std::iter::repeat(NONE).take(class_count));
                    own.push(Vec::new());
                    next[slot] = new_state;
                }
                state = next[slot] as usize;
            }
            own[state].push(id as u32);
        }

        // Breadth-first failure-link pass, folded directly into a complete
        // DFA: missing edges are redirected along the failure chain, and
        // each state's output list absorbs its failure state's outputs
        // (kept sorted by pattern index — both sides are already sorted,
        // so a merge suffices, but `sort_unstable` on the small combined
        // list is simpler and runs once at build time).
        let state_count = own.len();
        let mut fail: Vec<u32> = vec![0; state_count];
        let mut outputs: Vec<Vec<u32>> = own;
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        for c in 0..class_count {
            match next[c] {
                NONE => next[c] = 0,
                s => {
                    fail[s as usize] = 0;
                    queue.push_back(s);
                }
            }
        }
        while let Some(state) = queue.pop_front() {
            let f = fail[state as usize];
            if !outputs[f as usize].is_empty() {
                let inherited = outputs[f as usize].clone();
                let list = &mut outputs[state as usize];
                list.extend(inherited);
                list.sort_unstable();
            }
            for c in 0..class_count {
                let slot = state as usize * class_count + c;
                match next[slot] {
                    NONE => next[slot] = next[f as usize * class_count + c],
                    child => {
                        fail[child as usize] = next[f as usize * class_count + c];
                        queue.push_back(child);
                    }
                }
            }
        }

        // Premultiply the targets and flag the ones with outputs.
        assert!(
            next.len() <= HAS_OUTPUT as usize,
            "automaton rows must fit below the output flag"
        );
        let flags: Vec<u32> = outputs
            .iter()
            .map(|list| if list.is_empty() { 0 } else { HAS_OUTPUT })
            .collect();
        for target in &mut next {
            let state = *target as usize;
            *target = (state * class_count) as u32 | flags[state];
        }
        let mut output_start = Vec::with_capacity(outputs.len() + 1);
        let mut output_ids = Vec::new();
        for list in &outputs {
            output_start.push(output_ids.len() as u32);
            output_ids.extend_from_slice(list);
        }
        output_start.push(output_ids.len() as u32);

        ConceptMatcher {
            classes,
            class_count,
            next,
            output_start,
            output_ids,
            patterns,
        }
    }

    /// Takes the transition from `row` on `byte`, returning the target's
    /// row and whether it ends some pattern.
    fn step(&self, row: usize, byte: u8) -> (usize, bool) {
        let entry = self.next[row + self.classes[usize::from(byte)] as usize];
        ((entry & !HAS_OUTPUT) as usize, entry & HAS_OUTPUT != 0)
    }

    /// The patterns ending at the state whose row is `row`.
    fn outputs(&self, row: usize) -> &[u32] {
        let state = row / self.class_count;
        &self.output_ids[self.output_start[state] as usize..self.output_start[state + 1] as usize]
    }

    /// Number of compiled patterns (non-empty instances).
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the catalogue compiled to nothing (no non-empty instances).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Finds every word-boundary occurrence of every compiled instance in
    /// `text`, byte-identically to [`crate::matcher::find_matches`] over
    /// the originating [`ConceptSet`].
    ///
    /// Candidates are ordered by `(start asc, len desc, pattern asc,
    /// lower offset asc)` before the greedy non-overlap sweep. The first
    /// two keys are the naive scanner's explicit sort; the last two
    /// reproduce its *stable-sort insertion order* (instances visited in
    /// declaration order, occurrences of one instance found left to
    /// right), so equal-span ties resolve identically.
    pub fn find_matches(&self, text: &str) -> Vec<ConceptMatch<'_>> {
        let mut out = Vec::new();
        self.find_matches_with(text, &mut MatchScratch::default(), &mut out);
        out
    }

    /// [`ConceptMatcher::find_matches`] into `out` (cleared first), using
    /// `scratch` for the intermediate buffers.
    pub fn find_matches_with<'m>(
        &'m self,
        text: &str,
        scratch: &mut MatchScratch,
        out: &mut Vec<ConceptMatch<'m>>,
    ) {
        out.clear();
        let MatchScratch {
            candidates,
            lower,
            map,
        } = scratch;
        candidates.clear();
        if self.patterns.is_empty() || text.is_empty() {
            return;
        }
        if text.is_ascii() {
            self.ascii_candidates(text, candidates);
        } else {
            lower_with_map(text, lower, map);
            self.unicode_candidates(lower, map, candidates);
        }
        self.resolve(candidates, out);
    }

    /// Fast path for ASCII text (virtually every token in practice):
    /// ASCII lowercasing is byte-for-byte, so lowered offsets *are*
    /// original offsets — no lowered copy, no offset map, and zero
    /// allocation for the common token with no matches.
    ///
    /// Equivalence with the generic path: for ASCII input,
    /// `lower_with_map` produces `to_ascii_lowercase` bytes with an
    /// identity offset map, and the case-folded byte classes give each
    /// byte the class of its lowercase form. ASCII case folding never
    /// changes alphanumeric-ness, and `char::is_alphanumeric` agrees with
    /// `u8::is_ascii_alphanumeric` on ASCII — so the DFA sees the same
    /// class stream and the boundary checks the same answers.
    fn ascii_candidates(&self, text: &str, candidates: &mut Vec<Candidate>) {
        let bytes = text.as_bytes();
        let mut row = 0;
        for (i, &raw) in bytes.iter().enumerate() {
            let (next, has_output) = self.step(row, raw);
            row = next;
            if !has_output {
                continue;
            }
            for &id in self.outputs(row) {
                let pattern = &self.patterns[id as usize];
                let end = i + 1;
                let begin = end - pattern.len;
                let before_ok = begin == 0
                    || !pattern.first_is_word
                    || !bytes[begin - 1].is_ascii_alphanumeric();
                let after_ok = end == bytes.len()
                    || !pattern.last_is_word
                    || !bytes[end].is_ascii_alphanumeric();
                if before_ok && after_ok {
                    candidates.push(Candidate {
                        start: begin,
                        len: pattern.len,
                        pattern: id,
                        lower_begin: begin,
                    });
                }
            }
        }
    }

    /// Generic path: walk the bytes of `lower`, the text lowercased with
    /// its offset `map` (shared with the naive scanner).
    fn unicode_candidates(&self, lower: &str, map: &[usize], candidates: &mut Vec<Candidate>) {
        let mut row = 0;
        for (i, b) in lower.bytes().enumerate() {
            let (next, has_output) = self.step(row, b);
            row = next;
            if !has_output {
                continue;
            }
            for &id in self.outputs(row) {
                let pattern = &self.patterns[id as usize];
                let end = i + 1;
                let begin = end - pattern.len;
                let before_ok = begin == 0
                    || !pattern.first_is_word
                    || !lower[..begin]
                        .chars()
                        .next_back()
                        .is_some_and(is_word_char);
                let after_ok = end == lower.len()
                    || !pattern.last_is_word
                    || !lower[end..].chars().next().is_some_and(is_word_char);
                if before_ok && after_ok {
                    let orig_start = map[begin];
                    candidates.push(Candidate {
                        start: orig_start,
                        len: map[end] - orig_start,
                        pattern: id,
                        lower_begin: begin,
                    });
                }
            }
        }
    }

    /// Tie-break sort and greedy non-overlap sweep shared by both paths.
    fn resolve<'m>(&'m self, candidates: &mut [Candidate], out: &mut Vec<ConceptMatch<'m>>) {
        candidates.sort_unstable_by(|a, b| {
            a.start
                .cmp(&b.start)
                .then(b.len.cmp(&a.len))
                .then(a.pattern.cmp(&b.pattern))
                .then(a.lower_begin.cmp(&b.lower_begin))
        });
        for c in candidates.iter() {
            if out.last().is_none_or(|prev| c.start >= prev.end()) {
                let pattern = &self.patterns[c.pattern as usize];
                out.push(ConceptMatch {
                    concept: &pattern.concept,
                    instance: &pattern.instance,
                    start: c.start,
                    len: c.len,
                });
            }
        }
    }

    /// The distinct concept names matched in `text`, in match order —
    /// the automaton counterpart of [`crate::matcher::matched_concepts`].
    pub fn matched_concepts(&self, text: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for m in self.find_matches(text) {
            if !out.iter().any(|c| c == m.concept) {
                out.push(m.concept.to_owned());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::{Concept, ConceptRole};
    use crate::matcher::find_matches;

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

    fn assert_agrees(set: &ConceptSet, text: &str) {
        let automaton = ConceptMatcher::new(set);
        assert_eq!(
            automaton.find_matches(text),
            find_matches(set, text),
            "automaton diverges from naive scanner on {text:?}"
        );
    }

    #[test]
    fn agrees_with_naive_on_paper_sentence() {
        assert_agrees(
            &set(),
            "University of California at Davis, B.S.(Computer Science), June 1996, GPA 3.8/4.0",
        );
    }

    #[test]
    fn agrees_on_word_boundaries_and_case() {
        for text in [
            "Universality is nice",
            "State College.",
            "UNIVERSITY education",
            "collegestudent",
            "",
            "University and University",
        ] {
            assert_agrees(&set(), text);
        }
    }

    #[test]
    fn overlapping_instances_resolve_longest_first() {
        let s: ConceptSet = [
            Concept::new("degree", ConceptRole::Content, ["Bachelor of Science"]),
            Concept::new("major", ConceptRole::Content, ["Science"]),
        ]
        .into_iter()
        .collect();
        let m = ConceptMatcher::new(&s);
        let ms = m.find_matches("Bachelor of Science");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].concept, "degree");
        assert_agrees(&s, "Bachelor of Science");
        assert_agrees(&s, "Science of Bachelor of Science");
    }

    #[test]
    fn equal_span_tie_goes_to_earlier_concept() {
        let s: ConceptSet = [
            Concept::new("a", ConceptRole::Content, ["shared"]),
            Concept::new("b", ConceptRole::Content, ["shared"]),
        ]
        .into_iter()
        .collect();
        let m = ConceptMatcher::new(&s);
        let ms = m.find_matches("shared words");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].concept, "a");
        assert_agrees(&s, "shared words shared");
    }

    #[test]
    fn prefix_and_suffix_patterns_coexist() {
        let s: ConceptSet = [
            Concept::new("x", ConceptRole::Content, ["uni", "university", "versity"]),
        ]
        .into_iter()
        .collect();
        for text in ["uni", "university", "uni versity", "the university."] {
            assert_agrees(&s, text);
        }
    }

    #[test]
    fn unicode_offsets_match_naive() {
        let s: ConceptSet = [Concept::new("date", ConceptRole::Content, ["june"])]
            .into_iter()
            .collect();
        let text = "İİ résumé June 1996";
        let m = ConceptMatcher::new(&s);
        let ms = m.find_matches(text);
        assert_eq!(ms.len(), 1);
        assert_eq!(&text[ms[0].start..ms[0].end()], "June");
        assert_agrees(&s, text);
    }

    #[test]
    fn empty_set_and_empty_instances_compile_to_nothing() {
        let empty = ConceptSet::new();
        let m = ConceptMatcher::new(&empty);
        assert!(m.is_empty());
        assert!(m.find_matches("University").is_empty());

        let mut c = Concept::new("x", ConceptRole::Content, ["keep"]);
        c.instances.push(String::new());
        let s: ConceptSet = [c].into_iter().collect();
        let m = ConceptMatcher::new(&s);
        assert_eq!(m.pattern_count(), 2, "x + keep, empty skipped");
        assert_agrees(&s, "keep x");
    }

    #[test]
    fn matched_concepts_agrees_with_naive() {
        let text = "B.S. June 1996 GPA 3.8";
        let m = ConceptMatcher::new(&set());
        assert_eq!(
            m.matched_concepts(text),
            crate::matcher::matched_concepts(&set(), text)
        );
    }

    #[test]
    fn repeated_occurrences_found_like_naive() {
        let s: ConceptSet = [Concept::new("x", ConceptRole::Content, ["aa", "aba"])]
            .into_iter()
            .collect();
        for text in ["aaa", "ababa", "aa aa aa", "aabaa"] {
            assert_agrees(&s, text);
        }
    }
}
