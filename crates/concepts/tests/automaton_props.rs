//! Property tests for the Aho–Corasick concept matcher: randomized
//! catalogues with deliberately overlapping / prefix / suffix instances,
//! unicode and empty-token edges, and the metamorphic invariant that a
//! concept which never matches cannot change existing matches.
//!
//! The differential half (automaton vs naive scanner on fuzzed streams
//! and golden fixtures) lives in `webre-check`'s `matcher-vs-naive`
//! oracle; these tests probe the automaton's own guarantees.

use webre_concepts::{find_matches, Concept, ConceptMatcher, ConceptRole, ConceptSet};
use webre_substrate::prop::{self, Gen};
use webre_substrate::{prop_assert, prop_assert_eq};

const CASES: u32 = 96;

/// Instance pool chosen so random catalogues are dense with overlaps:
/// `uni` is a prefix of `university`, `versity` a suffix; `science`
/// embeds in `bachelor of science`; `1996` in `june 1996`; plus
/// unicode (dotted capital İ lowercases to two chars, `é` is
/// multi-byte) and punctuation-only entries.
const INSTANCES: &[&str] = &[
    "uni",
    "university",
    "universality",
    "versity",
    "college",
    "state college",
    "b.s.",
    "b.s. degree",
    "degree",
    "science",
    "bachelor of science",
    "june",
    "june 1996",
    "1996",
    "gpa",
    "c++",
    "résumé",
    "sumé",
    "istanbul",
    "İstanbul",
];

/// Filler that shares prefixes/suffixes with the instance pool without
/// ever matching it at a word boundary.
const NOISE: &[&str] = &[
    "zorp", "the", "of", "at", ",", ";", " ", "  ", "universit", "ollege", "",
];

fn gen_set(g: &mut Gen) -> ConceptSet {
    let concepts = g.vec(1, 4, |g| {
        g.vec(1, 4, |g| (*g.pick(INSTANCES)).to_owned())
    });
    let mut set = ConceptSet::new();
    for (i, instances) in concepts.into_iter().enumerate() {
        set.add(Concept::new(
            format!("concept{i}"),
            ConceptRole::Content,
            instances,
        ));
    }
    set
}

fn gen_text(g: &mut Gen) -> String {
    let pieces = g.vec(0, 7, |g| {
        let piece = if g.bool(0.6) {
            *g.pick(INSTANCES)
        } else {
            *g.pick(NOISE)
        };
        // Random casing exercises the shared lowercase mapping.
        if g.bool(0.3) {
            piece.to_uppercase()
        } else {
            piece.to_owned()
        }
    });
    pieces.join(" ")
}

/// Structural sanity every match set must satisfy, independent of the
/// naive reference: in-bounds char-aligned spans, sorted and
/// non-overlapping, each span actually equal (case-insensitively) to the
/// instance it claims, and each concept/instance pair present in the set.
fn assert_well_formed(
    set: &ConceptSet,
    text: &str,
    matches: &[webre_concepts::ConceptMatch],
) -> Result<(), String> {
    let mut prev_end = 0usize;
    for m in matches {
        prop_assert!(m.len > 0, "empty match span");
        prop_assert!(m.end() <= text.len(), "span out of bounds");
        prop_assert!(
            text.is_char_boundary(m.start) && text.is_char_boundary(m.end()),
            "span not char-aligned in {text:?}: {m:?}"
        );
        prop_assert!(
            m.start >= prev_end,
            "overlapping/unsorted matches in {text:?}: {matches:?}"
        );
        prev_end = m.end();
        let span = &text[m.start..m.end()];
        prop_assert_eq!(
            span.to_lowercase(),
            m.instance.to_lowercase(),
            "span text disagrees with claimed instance in {:?}",
            text
        );
        let concept = set
            .get(&m.concept)
            .ok_or_else(|| format!("match names unknown concept {:?}", m.concept))?;
        prop_assert!(
            concept
                .instances
                .iter()
                .any(|i| i.eq_ignore_ascii_case(&m.instance) || *i == m.instance),
            "instance {:?} not in concept {:?}",
            m.instance,
            m.concept
        );
    }
    Ok(())
}

#[test]
fn matches_are_well_formed() {
    prop::check_cases("matches_are_well_formed", CASES, |g| {
        let set = gen_set(g);
        let matcher = ConceptMatcher::new(&set);
        let text = gen_text(g);
        assert_well_formed(&set, &text, &matcher.find_matches(&text))
    });
}

/// The automaton agrees with the naive scanner on catalogues built to
/// maximize prefix/suffix overlap between patterns.
#[test]
fn agrees_with_naive_on_overlapping_catalogues() {
    prop::check_cases("agrees_with_naive_on_overlapping_catalogues", CASES, |g| {
        let set = gen_set(g);
        let matcher = ConceptMatcher::new(&set);
        let text = gen_text(g);
        prop_assert_eq!(
            matcher.find_matches(&text),
            find_matches(&set, &text),
            "divergence on {:?}",
            text
        );
        Ok(())
    });
}

/// Adding a concept whose instances never occur in the text (at a word
/// boundary or otherwise) never changes the existing matches.
#[test]
fn unmatched_concept_is_inert() {
    prop::check_cases("unmatched_concept_is_inert", CASES, |g| {
        let mut set = gen_set(g);
        let text = gen_text(g);
        let before_matcher = ConceptMatcher::new(&set);
        let before = before_matcher.find_matches(&text);
        // `qq` cannot occur: no pool entry contains a double q.
        let inert = g.vec(1, 3, |g| format!("qq{}", g.int(0u32..1000)));
        set.add(Concept::new("inert", ConceptRole::Content, inert));
        let after_matcher = ConceptMatcher::new(&set);
        let after = after_matcher.find_matches(&text);
        prop_assert_eq!(after, before, "inert concept changed matches on {:?}", text);
        Ok(())
    });
}

/// Empty and whitespace-only tokens yield no matches, and catalogues with
/// empty instance strings behave as if those instances were absent.
#[test]
fn empty_edges_are_no_ops() {
    prop::check_cases("empty_edges_are_no_ops", CASES, |g| {
        let set = gen_set(g);
        let matcher = ConceptMatcher::new(&set);
        for text in ["", " ", "\t\n", "   "] {
            prop_assert!(
                matcher.find_matches(text).is_empty(),
                "matches in blank text {:?}",
                text
            );
        }
        // Splice empty instances into every concept; the compiled matcher
        // must be unaffected.
        let text = gen_text(g);
        let before = matcher.find_matches(&text);
        let concepts: Vec<Concept> = set.iter().cloned().collect();
        let mut padded = ConceptSet::new();
        for mut c in concepts {
            c.instances.insert(0, String::new());
            c.instances.push(String::new());
            padded.add(c);
        }
        let padded_matcher = ConceptMatcher::new(&padded);
        let after = padded_matcher.find_matches(&text);
        prop_assert_eq!(after, before, "empty instances changed matches");
        Ok(())
    });
}

/// Unicode-heavy inputs: multi-byte characters, case folding that grows
/// byte length (İ → i̇), and arbitrary generated text never panic and
/// produce char-aligned spans.
#[test]
fn unicode_never_panics_and_spans_align() {
    prop::check_cases("unicode_never_panics_and_spans_align", CASES, |g| {
        let set = gen_set(g);
        let matcher = ConceptMatcher::new(&set);
        let mut text = g.arbitrary_text(0, 40);
        if g.bool(0.5) {
            text.push_str(" İstanbul résumé ");
            text.push_str(*g.pick(INSTANCES));
        }
        let matches = matcher.find_matches(&text);
        assert_well_formed(&set, &text, &matches)?;
        prop_assert_eq!(matches, find_matches(&set, &text), "divergence on {:?}", text);
        Ok(())
    });
}

/// A pattern that is a strict prefix or suffix of a longer pattern in the
/// same catalogue loses to the longer pattern when both match at an
/// overlapping position — pinned deterministically for the canonical
/// prefix (`uni`/`university`) and suffix (`degree`/`b.s. degree`) pairs.
#[test]
fn longest_match_wins_for_nested_patterns() {
    let mut set = ConceptSet::new();
    set.add(Concept::new("short", ConceptRole::Content, ["uni", "degree"]));
    set.add(Concept::new(
        "long",
        ConceptRole::Content,
        ["university", "b.s. degree"],
    ));
    let matcher = ConceptMatcher::new(&set);

    let m = matcher.find_matches("university");
    assert_eq!(m.len(), 1);
    assert_eq!(m[0].concept, "long");
    assert_eq!(m[0].instance, "university");

    let m = matcher.find_matches("a B.S. degree holder");
    assert_eq!(m.len(), 1);
    assert_eq!(m[0].concept, "long");
    assert_eq!(m[0].instance, "b.s. degree");

    // Standing alone, the short patterns still match.
    let m = matcher.find_matches("uni degree");
    assert_eq!(m.len(), 2);
    assert!(m.iter().all(|x| x.concept == "short"));
}
