//! Baseline schemas the paper compares against (Section 1).
//!
//! * **DataGuide** (Goldman & Widom, VLDB'97): the *upper bound* schema —
//!   every label path occurring in *any* document. Precise but bloated:
//!   one noisy document inflates the schema.
//! * **Lower bound** schema: only the label paths occurring in *every*
//!   document. Robust but usually near-empty for heterogeneous corpora.
//!
//! The majority schema sits between the two; the A3 experiment measures
//! schema size and per-document conformance for all three.

use crate::frequent::FrequentPathMiner;
use crate::majority::MajoritySchema;
use crate::paths::DocPaths;

/// Builds the DataGuide (upper bound) schema: support threshold just above
/// zero, so every observed path is kept.
pub fn dataguide(corpus: &[DocPaths]) -> Option<MajoritySchema> {
    FrequentPathMiner {
        sup_threshold: f64::MIN_POSITIVE,
        ratio_threshold: 0.0,
        constraints: None,
        max_len: None,
    }
    .mine(corpus)
    .map(|o| o.schema)
}

/// Builds the lower bound schema: only paths in every document survive.
pub fn lower_bound(corpus: &[DocPaths]) -> Option<MajoritySchema> {
    FrequentPathMiner {
        sup_threshold: 1.0,
        ratio_threshold: 0.0,
        constraints: None,
        max_len: None,
    }
    .mine(corpus)
    .map(|o| o.schema)
}

/// Fraction of corpus documents all of whose paths are covered by the
/// schema (structural conformance at the path level).
pub fn path_conformance(schema: &MajoritySchema, corpus: &[DocPaths]) -> f64 {
    if corpus.is_empty() {
        return 1.0;
    }
    let conforming = corpus
        .iter()
        .filter(|d| d.paths().all(|p| schema.contains(p)))
        .count();
    conforming as f64 / corpus.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::extract_paths;
    use webre_xml::parse_xml;

    fn corpus(xmls: &[&str]) -> Vec<DocPaths> {
        xmls.iter()
            .map(|x| extract_paths(&parse_xml(x).unwrap()))
            .collect()
    }

    fn p(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn dataguide_contains_every_path() {
        let docs = corpus(&["<r><a/></r>", "<r><b><c/></b></r>"]);
        let dg = dataguide(&docs).unwrap();
        assert!(dg.contains(&p(&["r", "a"])));
        assert!(dg.contains(&p(&["r", "b", "c"])));
        assert_eq!(dg.len(), 4);
    }

    #[test]
    fn lower_bound_contains_only_universal_paths() {
        let docs = corpus(&["<r><a/><b/></r>", "<r><a/></r>"]);
        let lb = lower_bound(&docs).unwrap();
        assert!(lb.contains(&p(&["r", "a"])));
        assert!(!lb.contains(&p(&["r", "b"])));
        assert_eq!(lb.len(), 2);
    }

    #[test]
    fn schema_sizes_are_ordered() {
        // lower bound ⊆ majority ⊆ dataguide.
        let docs = corpus(&[
            "<r><a/><b/><c/></r>",
            "<r><a/><b/></r>",
            "<r><a/><b/></r>",
            "<r><a/></r>",
        ]);
        let dg = dataguide(&docs).unwrap();
        let lb = lower_bound(&docs).unwrap();
        let majority = FrequentPathMiner {
            sup_threshold: 0.5,
            ratio_threshold: 0.0,
            ..Default::default()
        }
        .mine(&docs)
        .unwrap()
        .schema;
        assert!(lb.len() <= majority.len());
        assert!(majority.len() <= dg.len());
        assert_eq!(lb.len(), 2); // r, a
        assert_eq!(majority.len(), 3); // r, a, b
        assert_eq!(dg.len(), 4); // r, a, b, c
    }

    #[test]
    fn conformance_is_total_for_dataguide() {
        let docs = corpus(&["<r><a/></r>", "<r><b/></r>", "<r><a/><b/></r>"]);
        let dg = dataguide(&docs).unwrap();
        assert_eq!(path_conformance(&dg, &docs), 1.0);
    }

    #[test]
    fn conformance_is_partial_for_majority() {
        let docs = corpus(&[
            "<r><a/></r>",
            "<r><a/></r>",
            "<r><a/></r>",
            "<r><a/><z/></r>",
        ]);
        let majority = FrequentPathMiner {
            sup_threshold: 0.5,
            ratio_threshold: 0.0,
            ..Default::default()
        }
        .mine(&docs)
        .unwrap()
        .schema;
        let conf = path_conformance(&majority, &docs);
        assert!((conf - 0.75).abs() < 1e-12, "conf = {conf}");
    }

    #[test]
    fn empty_corpus_has_no_baselines() {
        assert!(dataguide(&[]).is_none());
        assert!(lower_bound(&[]).is_none());
    }
}
