//! Frequent-path mining (Section 3.2).
//!
//! For a label path `p`, `support(p) = freq(p, S) / |D|` where `freq`
//! counts the documents whose path set contains `p` (a document's paths
//! form a set, so each document contributes each prefix once — this keeps
//! `support ∈ [0, 1]` with `support(p) = 1` iff `p` occurs in every
//! document). Because support naturally decreases with path length, the
//! miner additionally applies the *support ratio*
//! `supportRatio(p) = support(p) / support(p₀)` for `p = p₀ ∘ e`, with
//! `supportRatio(root) = 1`.
//!
//! A path is frequent iff `support ≥ supThreshold` and
//! `supportRatio ≥ ratioThreshold`. Support is anti-monotone over prefixes,
//! so once a prefix fails the support threshold none of its extensions are
//! explored — the pruning the Section 4.2 experiment quantifies, optionally
//! strengthened by concept constraints.

use crate::majority::{MajoritySchema, SchemaNode};
use crate::paths::{DocPaths, LabelPath};
use std::collections::BTreeSet;
use webre_concepts::ConstraintSet;
use webre_obs::{count, counter, span, stage};
use webre_tree::NodeId;

/// The corpus interface the miner actually needs. A plain `[DocPaths]`
/// slice answers every query by scanning; [`crate::CorpusIndex`] answers
/// from precomputed tables so documents can be accreted one at a time
/// (the serving subsystem's live corpus). Both implementations are
/// exercised against each other by differential tests — the miner itself
/// is shared, so results are identical by construction.
pub trait CorpusView {
    /// Number of documents.
    fn doc_count(&self) -> usize;
    /// Number of documents containing `path`.
    fn frequency(&self, path: &[String]) -> usize;
    /// Child labels observed directly under `prefix`, in sorted order.
    fn child_labels(&self, prefix: &[String]) -> Vec<String>;
    /// Root labels with their document counts, in deterministic
    /// (count-descending, label-ascending) order.
    fn root_votes(&self) -> Vec<(String, usize)>;
}

impl CorpusView for [DocPaths] {
    fn doc_count(&self) -> usize {
        self.len()
    }

    fn frequency(&self, path: &[String]) -> usize {
        crate::paths::doc_frequency(self, path)
    }

    fn child_labels(&self, prefix: &[String]) -> Vec<String> {
        let mut candidates: BTreeSet<&str> = BTreeSet::new();
        for doc in self {
            for path in doc.paths() {
                if path.len() == prefix.len() + 1 && path.starts_with(prefix) {
                    candidates.insert(path.last().expect("non-empty"));
                }
            }
        }
        candidates.into_iter().map(str::to_owned).collect()
    }

    fn root_votes(&self) -> Vec<(String, usize)> {
        let mut votes: Vec<(String, usize)> = Vec::new();
        for d in self {
            match votes.iter_mut().find(|(l, _)| *l == d.root_label) {
                Some((_, n)) => *n += 1,
                None => votes.push((d.root_label.clone(), 1)),
            }
        }
        votes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        votes
    }
}

/// Configuration and entry point for frequent-path mining.
#[derive(Clone, Debug)]
pub struct FrequentPathMiner {
    /// Minimum document support for a path to be frequent.
    pub sup_threshold: f64,
    /// Minimum support ratio relative to the parent path.
    pub ratio_threshold: f64,
    /// Optional concept constraints for pruning (Section 4.2).
    pub constraints: Option<ConstraintSet>,
    /// Optional cap on path length (nodes per path, root included).
    pub max_len: Option<usize>,
}

impl Default for FrequentPathMiner {
    fn default() -> Self {
        FrequentPathMiner {
            sup_threshold: 0.5,
            ratio_threshold: 0.5,
            constraints: None,
            max_len: None,
        }
    }
}

/// The result of a mining run.
#[derive(Clone, Debug)]
pub struct MiningOutcome {
    /// The discovered majority schema.
    pub schema: MajoritySchema,
    /// Candidate prefixes tested (the Section 4.2 "nodes explored" count).
    pub nodes_explored: usize,
    /// Candidates accepted as frequent.
    pub nodes_accepted: usize,
}

/// Candidate-path counters accumulated by one mining run. `explored` and
/// `accepted` surface in [`MiningOutcome`]; `pruned` (support-threshold
/// cuts, the anti-monotone short-circuit) is reported through the
/// observability context only.
#[derive(Clone, Copy, Debug, Default)]
struct MineCounters {
    explored: usize,
    accepted: usize,
    pruned: usize,
}

impl MineCounters {
    fn report(&self) {
        count(counter::PATHS_EXPLORED, self.explored as u64);
        if self.accepted > 0 {
            count(counter::PATHS_ACCEPTED, self.accepted as u64);
        }
        if self.pruned > 0 {
            count(counter::PATHS_PRUNED, self.pruned as u64);
        }
    }
}

impl FrequentPathMiner {
    /// Mines the corpus. The root label is the most common document root.
    ///
    /// Returns `None` for an empty corpus or when the root itself fails the
    /// support threshold.
    pub fn mine(&self, corpus: &[DocPaths]) -> Option<MiningOutcome> {
        self.mine_view(corpus)
    }

    /// Mines any [`CorpusView`] — the same algorithm [`mine`](Self::mine)
    /// runs, reachable for incrementally accreted corpora
    /// ([`crate::CorpusIndex`]). The run opens a `mine-frequent-paths`
    /// span and reports explored/accepted/pruned candidate counts.
    pub fn mine_view(&self, corpus: &(impl CorpusView + ?Sized)) -> Option<MiningOutcome> {
        span(stage::MINE, || self.mine_in_span(corpus))
    }

    fn mine_in_span(&self, corpus: &(impl CorpusView + ?Sized)) -> Option<MiningOutcome> {
        if corpus.doc_count() == 0 {
            return None;
        }
        let root_label = corpus.root_votes()[0].0.clone();

        let mut counters = MineCounters {
            explored: 1,
            ..MineCounters::default()
        };
        let root_path = vec![root_label.clone()];
        let root_count = corpus.frequency(&root_path);
        let root_support = root_count as f64 / corpus.doc_count() as f64;
        if root_support < self.sup_threshold {
            counters.pruned += 1;
            counters.report();
            return None;
        }
        counters.accepted += 1;
        let mut schema =
            MajoritySchema::new(root_label, root_support, root_count, corpus.doc_count());
        let root = schema.tree.root();
        self.extend(
            corpus,
            &mut schema,
            root,
            &root_path,
            root_support,
            &mut counters,
        );
        counters.report();
        Some(MiningOutcome {
            schema,
            nodes_explored: counters.explored,
            nodes_accepted: counters.accepted,
        })
    }

    fn extend(
        &self,
        corpus: &(impl CorpusView + ?Sized),
        schema: &mut MajoritySchema,
        node: NodeId,
        prefix: &LabelPath,
        prefix_support: f64,
        counters: &mut MineCounters,
    ) {
        if self.max_len.is_some_and(|m| prefix.len() >= m) {
            return;
        }
        // Candidate child labels observed in documents containing the
        // prefix, in deterministic order.
        for label in corpus.child_labels(prefix) {
            counters.explored += 1;
            let mut path = prefix.clone();
            path.push(label.clone());
            if let Some(cs) = &self.constraints {
                let refs: Vec<&str> = path.iter().map(String::as_str).collect();
                if !cs.admits_path(&refs) {
                    continue;
                }
            }
            let count = corpus.frequency(&path);
            let support = count as f64 / corpus.doc_count() as f64;
            if support < self.sup_threshold {
                counters.pruned += 1;
                continue; // anti-monotone: no extension can succeed
            }
            let ratio = if prefix_support > 0.0 {
                support / prefix_support
            } else {
                0.0
            };
            if ratio < self.ratio_threshold {
                continue;
            }
            counters.accepted += 1;
            let child = schema.tree.append_child(
                node,
                SchemaNode {
                    label,
                    support,
                    doc_count: count,
                },
            );
            self.extend(corpus, schema, child, &path, support, counters);
        }
    }
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

    fn p(parts: &[&str]) -> LabelPath {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    /// The paper's Figure 2 trees A, B, C.
    fn figure2() -> Vec<DocPaths> {
        corpus(&[
            // Tree A
            "<resume><objective/><education><degree><date/><institution/></degree>\
             <degree><date/><institution/></degree></education></resume>",
            // Tree B
            "<resume><contact/><education><degree><date/></degree>\
             <institution><degree/></institution><date/></education></resume>",
            // Tree C
            "<resume><contact/><education><institution><degree/><date/></institution>\
             <institution><degree/><date/></institution></education></resume>",
        ])
    }

    #[test]
    fn education_is_frequent_in_figure2() {
        let outcome = FrequentPathMiner {
            sup_threshold: 0.9,
            ratio_threshold: 0.0,
            ..Default::default()
        }
        .mine(&figure2())
        .unwrap();
        let schema = &outcome.schema;
        assert_eq!(schema.root_label(), "resume");
        assert!(schema.contains(&p(&["resume", "education"])));
        // objective occurs in only one of three documents.
        assert!(!schema.contains(&p(&["resume", "objective"])));
        // contact occurs in two of three.
        assert!(!schema.contains(&p(&["resume", "contact"])));
    }

    #[test]
    fn lower_threshold_admits_more_structure() {
        let outcome = FrequentPathMiner {
            sup_threshold: 0.6,
            ratio_threshold: 0.0,
            ..Default::default()
        }
        .mine(&figure2())
        .unwrap();
        let schema = &outcome.schema;
        assert!(schema.contains(&p(&["resume", "contact"])));
        assert!(schema.contains(&p(&["resume", "education", "degree"])));
        assert!(schema.contains(&p(&["resume", "education", "institution"])));
        assert!(schema.contains(&p(&["resume", "education", "degree", "date"])));
        assert!(!schema.contains(&p(&["resume", "objective"])));
    }

    #[test]
    fn support_values_are_document_fractions() {
        let outcome = FrequentPathMiner {
            sup_threshold: 0.0,
            ratio_threshold: 0.0,
            ..Default::default()
        }
        .mine(&figure2())
        .unwrap();
        let schema = &outcome.schema;
        let edu = schema.find(&p(&["resume", "education"])).unwrap();
        assert!((schema.tree.value(edu).support - 1.0).abs() < 1e-12);
        let obj = schema.find(&p(&["resume", "objective"])).unwrap();
        assert!((schema.tree.value(obj).support - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_threshold_prunes_rare_children_of_common_parents() {
        // x present everywhere; y under x in only one document of four.
        let docs = corpus(&[
            "<r><x><y/></x></r>",
            "<r><x/></r>",
            "<r><x/></r>",
            "<r><x/></r>",
        ]);
        let with_ratio = FrequentPathMiner {
            sup_threshold: 0.2,
            ratio_threshold: 0.5,
            ..Default::default()
        }
        .mine(&docs)
        .unwrap();
        assert!(!with_ratio.schema.contains(&p(&["r", "x", "y"])));
        let without_ratio = FrequentPathMiner {
            sup_threshold: 0.2,
            ratio_threshold: 0.0,
            ..Default::default()
        }
        .mine(&docs)
        .unwrap();
        assert!(without_ratio.schema.contains(&p(&["r", "x", "y"])));
    }

    #[test]
    fn support_is_antimonotone_in_schema() {
        let outcome = FrequentPathMiner {
            sup_threshold: 0.0,
            ratio_threshold: 0.0,
            ..Default::default()
        }
        .mine(&figure2())
        .unwrap();
        let schema = &outcome.schema;
        for id in schema.tree.descendants(schema.tree.root()).collect::<Vec<_>>() {
            if let Some(parent) = schema.tree.parent(id) {
                assert!(
                    schema.tree.value(id).support <= schema.tree.value(parent).support + 1e-12
                );
            }
        }
    }

    #[test]
    fn constraints_prune_candidates() {
        use webre_concepts::Constraint;
        let docs = corpus(&[
            "<r><a><a/></a></r>",
            "<r><a><a/></a></r>",
        ]);
        let unconstrained = FrequentPathMiner {
            sup_threshold: 0.5,
            ratio_threshold: 0.0,
            ..Default::default()
        }
        .mine(&docs)
        .unwrap();
        assert!(unconstrained.schema.contains(&p(&["r", "a", "a"])));
        let constrained = FrequentPathMiner {
            sup_threshold: 0.5,
            ratio_threshold: 0.0,
            constraints: Some([Constraint::NoRepeat].into_iter().collect()),
            ..Default::default()
        }
        .mine(&docs)
        .unwrap();
        assert!(!constrained.schema.contains(&p(&["r", "a", "a"])));
        assert!(constrained.schema.contains(&p(&["r", "a"])));
    }

    #[test]
    fn max_len_caps_path_depth() {
        let docs = corpus(&["<r><a><b><c/></b></a></r>", "<r><a><b><c/></b></a></r>"]);
        let outcome = FrequentPathMiner {
            sup_threshold: 0.5,
            ratio_threshold: 0.0,
            max_len: Some(3),
            ..Default::default()
        }
        .mine(&docs)
        .unwrap();
        assert!(outcome.schema.contains(&p(&["r", "a", "b"])));
        assert!(!outcome.schema.contains(&p(&["r", "a", "b", "c"])));
    }

    #[test]
    fn empty_corpus_mines_nothing() {
        assert!(FrequentPathMiner::default().mine(&[]).is_none());
    }

    #[test]
    fn explored_counts_accepted_and_rejected() {
        let outcome = FrequentPathMiner {
            sup_threshold: 0.9,
            ratio_threshold: 0.0,
            ..Default::default()
        }
        .mine(&figure2())
        .unwrap();
        // Every accepted node was explored; rejected candidates (objective,
        // contact, education's children) add to explored only.
        assert!(outcome.nodes_explored > outcome.nodes_accepted);
        assert_eq!(outcome.nodes_accepted, outcome.schema.len());
    }
}
