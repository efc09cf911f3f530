//! Incremental corpus accretion for live schema discovery.
//!
//! The batch pipeline extracts all [`DocPaths`] up front and hands the
//! miner a slice, which answers every `doc_frequency` query by scanning
//! the whole corpus — O(documents) per candidate path. A long-running
//! service accretes documents one at a time and recomputes the schema
//! repeatedly, so [`CorpusIndex`] maintains, as documents arrive, the
//! tables the miner's [`CorpusView`] and the DTD rules' [`DtdView`]
//! read:
//!
//! * one [`PathStats`] per distinct label path: document frequency (each
//!   document contributes each of its label paths once — path sets, per
//!   Section 3.2), the ordering rule's position sum and count, and the
//!   repetition rule's documents per recorded multiplicity;
//! * a children index `prefix → sorted child labels`, the candidate
//!   generator of the frequent-path search;
//! * root-label votes for majority-root election.
//!
//! Accreting a document is O(paths in that document); mining then runs
//! with O(1) frequency lookups instead of O(n) scans, and DTD derivation
//! reads O(1) aggregates per schema path, never the documents. The
//! documents themselves are still retained, for the two consumers that
//! need whole documents: the order-dependent group-pattern extension
//! ([`crate::DtdConfig::group_patterns`], off by default), which reads
//! their child sequences through [`DtdView::child_sequences`], and WAL
//! compaction, which rewrites each shard's log from
//! [`CorpusIndex::stored_docs`].
//!
//! # Shape interning
//!
//! Documents repeat structural *shapes*, and a `DocPaths` is a costly
//! way to keep one: ~4.5 KB of heap for one converted resume, ~21 KB
//! for a ~25 KiB multi-resume page. The index therefore
//! stores each distinct shape once, in the flat form of `shape.rs` —
//! three allocations, labels as ids into one label table per index —
//! and each accreted document as a 4-byte shape id in arrival order. A
//! push builds the document's shape into a reused buffer, so a repeated
//! shape allocates nothing, and copies it out only when it is new.
//! Equality is exact (hash buckets, keyed by a hash of the shape, are
//! confirmed with a full comparison), so [`CorpusIndex::docs`] rebuilds
//! precisely the accreted multiset in arrival order.
//!
//! A push reads each of the document's entries once: one lookup in the
//! per-path aggregates and one in the label table. The children index
//! changes only when a path is new to the index, so only a new path
//! looks its prefix up there.
//!
//! The index is append-only by design: document *removal* would require
//! decrementing every table, and no current workload retires documents
//! from a live corpus. A version counter increments on every push so
//! snapshot consumers (the `/schema` endpoint) can cheaply detect
//! staleness.

use crate::dtd_rules::DtdView;
use crate::frequent::CorpusView;
use crate::paths::{DocPaths, LabelPath};
use crate::shape::{Labels, PathTrie, Shape, StoredDoc};
use crate::sharded::{PathStats, PathTable};
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};

/// An append-only corpus with the miner's query tables kept incrementally.
#[derive(Clone, Debug, Default)]
pub struct CorpusIndex {
    /// The names behind every shape's label ids.
    labels: Labels,
    /// Distinct document shapes, in first-arrival order.
    shapes: Vec<Shape>,
    /// One shape id per accreted document, in arrival order.
    order: Vec<u32>,
    /// Shape fingerprint → candidate shape ids (collision bucket).
    intern: HashMap<u64, Vec<u32>>,
    /// The shape of the document being pushed; copied into `shapes`
    /// only when new.
    scratch: Shape,
    /// One aggregate per distinct label path.
    stats: HashMap<LabelPath, PathStats>,
    children: HashMap<LabelPath, BTreeSet<String>>,
    root_votes: HashMap<String, usize>,
    version: u64,
}

impl CorpusIndex {
    /// An empty index.
    pub fn new() -> Self {
        CorpusIndex::default()
    }

    /// Builds an index from an existing batch of documents.
    pub fn from_docs(docs: impl IntoIterator<Item = impl Borrow<DocPaths>>) -> Self {
        let mut index = CorpusIndex::new();
        for doc in docs {
            index.push(doc.borrow());
        }
        index
    }

    /// Accretes one document, updating every table. O(paths in `doc`);
    /// keys and labels are cloned only when they are new to a table, and
    /// the document's shape is copied only when it is new to the index.
    pub fn push(&mut self, doc: &DocPaths) {
        for entry in doc.entries() {
            let path = &entry.path;
            if let Some(stats) = self.stats.get_mut(path.as_slice()) {
                // A known path is already in the children index.
                stats.add_doc(entry);
                continue;
            }
            self.stats.insert(path.clone(), PathStats::of(entry));
            if let Some((label, prefix)) = path.split_last().filter(|(_, p)| !p.is_empty()) {
                match self.children.get_mut(prefix) {
                    Some(labels) => {
                        labels.insert(label.clone());
                    }
                    None => {
                        self.children
                            .insert(prefix.to_vec(), BTreeSet::from([label.clone()]));
                    }
                }
            }
        }
        match self.root_votes.get_mut(&doc.root_label) {
            Some(votes) => *votes += 1,
            None => {
                self.root_votes.insert(doc.root_label.clone(), 1);
            }
        }
        let labels = &mut self.labels;
        self.scratch.build(doc, |name| labels.intern(name));
        let id = self.intern_scratch();
        self.order.push(id);
        self.version += 1;
    }

    /// Returns the id of the shape in `scratch`, storing a copy if
    /// unseen. Bucket hits are confirmed with full equality, so two
    /// documents share an id exactly when they are equal.
    fn intern_scratch(&mut self) -> u32 {
        let bucket = self.intern.entry(self.scratch.fingerprint()).or_default();
        for &id in bucket.iter() {
            if self.shapes[id as usize] == self.scratch {
                return id;
            }
        }
        let id = u32::try_from(self.shapes.len()).expect("shape table overflow");
        // A clone allocates each array at its exact length.
        self.shapes.push(self.scratch.clone());
        bucket.push(id);
        id
    }

    /// The accreted documents, in arrival order with repetitions, as the
    /// index stores them.
    pub fn stored_docs(&self) -> impl Iterator<Item = StoredDoc<'_>> + '_ {
        self.order.iter().map(|&id| StoredDoc {
            shape: &self.shapes[id as usize],
            labels: &self.labels,
        })
    }

    /// The accreted documents, in arrival order with repetitions, each
    /// rebuilt as a `DocPaths` (see [`StoredDoc::to_doc_paths`]).
    pub fn docs(&self) -> impl Iterator<Item = DocPaths> + '_ {
        self.stored_docs().map(|doc| doc.to_doc_paths())
    }

    /// Number of accreted documents.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no document has been accreted yet.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of distinct document shapes interned.
    pub fn distinct_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// Monotone counter, bumped once per accreted document.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The aggregate of one label path, `None` when no accreted
    /// document contains it.
    pub(crate) fn stats_of(&self, path: &[String]) -> Option<&PathStats> {
        self.stats.get(path)
    }

    /// Merges another index into this one: tables add pointwise, the
    /// children relation unions, and `other`'s documents append after
    /// this index's. Absorbing indexes built over disjoint document sets
    /// yields exactly the index of the concatenation.
    pub fn absorb(&mut self, other: CorpusIndex) {
        for (path, stats) in other.stats {
            self.stats.entry(path).or_default().merge_from(&stats);
        }
        // webre::allow(nondet-iter): each entry extends its own BTreeSet, which sorts itself
        for (prefix, labels) in other.children {
            self.children.entry(prefix).or_default().extend(labels);
        }
        for (label, votes) in other.root_votes {
            *self.root_votes.entry(label).or_insert(0) += votes;
        }
        // Re-intern `other`'s shapes over our labels (ids are
        // index-local), then remap its arrival order onto ours.
        let relabel: Vec<u32> = other
            .labels
            .names()
            .iter()
            .map(|name| self.labels.intern(name))
            .collect();
        let remap: Vec<u32> = other
            .shapes
            .into_iter()
            .map(|mut shape| {
                shape.relabel(&relabel);
                self.scratch = shape;
                self.intern_scratch()
            })
            .collect();
        self.order
            .extend(other.order.iter().map(|&id| remap[id as usize]));
        self.version += other.version;
    }

    /// The mergeable [`PathTable`] aggregate of this index's documents,
    /// built from the per-path aggregates in O(distinct paths).
    pub fn table(&self) -> PathTable {
        let mut table = PathTable::new();
        self.merge_into(&mut table);
        table
    }

    /// Adds this index's documents and per-path aggregates into `table`.
    pub(crate) fn merge_into(&self, table: &mut PathTable) {
        table.doc_count += self.len();
        for (path, stats) in &self.stats {
            table.merge_path(path, stats);
        }
    }
}

impl CorpusView for CorpusIndex {
    fn doc_count(&self) -> usize {
        self.order.len()
    }

    fn frequency(&self, path: &[String]) -> usize {
        self.stats.get(path).map_or(0, |stats| stats.frequency)
    }

    fn child_labels(&self, prefix: &[String]) -> Vec<String> {
        self.children
            .get(prefix)
            .map(|set| set.iter().cloned().collect())
            .unwrap_or_default()
    }

    fn root_votes(&self) -> Vec<(String, usize)> {
        let mut votes: Vec<(String, usize)> = self
            .root_votes
            .iter()
            .map(|(l, n)| (l.clone(), *n))
            .collect();
        votes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        votes
    }
}

impl DtdView for CorpusIndex {
    fn path_stats(&self, path: &[String]) -> PathStats {
        self.stats_of(path).cloned().unwrap_or_default()
    }

    fn child_sequences(&self, paths: &[LabelPath]) -> Vec<Vec<Vec<&str>>> {
        let mut out = vec![Vec::new(); paths.len()];
        let trie = PathTrie::new(paths, &self.labels);
        let mut node_of = Vec::new();
        for &id in &self.order {
            let shape = &self.shapes[id as usize];
            trie.collect(shape, &self.labels, &mut node_of, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequent::FrequentPathMiner;
    use crate::paths::extract_paths;
    use webre_xml::parse_xml;

    fn corpus(xmls: &[&str]) -> Vec<DocPaths> {
        xmls.iter()
            .map(|x| extract_paths(&parse_xml(x).unwrap()))
            .collect()
    }

    const FIGURE2: &[&str] = &[
        "<resume><objective/><education><degree><date/><institution/></degree>\
         <degree><date/><institution/></degree></education></resume>",
        "<resume><contact/><education><degree><date/></degree>\
         <institution><degree/></institution><date/></education></resume>",
        "<resume><contact/><education><institution><degree/><date/></institution>\
         <institution><degree/><date/></institution></education></resume>",
    ];

    #[test]
    fn index_answers_match_slice_answers() {
        let docs = corpus(FIGURE2);
        let index = CorpusIndex::from_docs(docs.clone());
        assert_eq!(index.len(), 3);
        assert_eq!(index.version(), 3);
        // Every path known to any document agrees on frequency; children
        // and root votes agree wholesale.
        let mut universe: Vec<&LabelPath> =
            docs.iter().flat_map(DocPaths::paths).collect();
        universe.sort();
        universe.dedup();
        for path in universe {
            assert_eq!(
                CorpusView::frequency(&index, path),
                docs[..].frequency(path),
                "frequency diverges on {path:?}"
            );
            assert_eq!(
                index.child_labels(path),
                docs[..].child_labels(path),
                "children diverge under {path:?}"
            );
        }
        assert_eq!(index.root_votes(), docs[..].root_votes());
        // And on paths no document contains.
        let missing = vec!["resume".to_owned(), "zzz".to_owned()];
        assert_eq!(CorpusView::frequency(&index, &missing), 0);
        assert!(index.child_labels(&missing).is_empty());
    }

    #[test]
    fn mining_index_equals_mining_slice() {
        let docs = corpus(FIGURE2);
        let index = CorpusIndex::from_docs(docs.clone());
        for (sup, ratio) in [(0.9, 0.0), (0.6, 0.0), (0.5, 0.5), (0.2, 0.3)] {
            let miner = FrequentPathMiner {
                sup_threshold: sup,
                ratio_threshold: ratio,
                ..Default::default()
            };
            let batch = miner.mine(&docs).unwrap();
            let incremental = miner.mine_view(&index).unwrap();
            assert_eq!(batch.schema.render(), incremental.schema.render());
            assert_eq!(batch.nodes_explored, incremental.nodes_explored);
            assert_eq!(batch.nodes_accepted, incremental.nodes_accepted);
        }
    }

    #[test]
    fn accretion_is_order_insensitive_for_mining() {
        let docs = corpus(FIGURE2);
        let forward = CorpusIndex::from_docs(docs.clone());
        let backward = CorpusIndex::from_docs(docs.into_iter().rev());
        let miner = FrequentPathMiner {
            sup_threshold: 0.6,
            ratio_threshold: 0.0,
            ..Default::default()
        };
        assert_eq!(
            miner.mine_view(&forward).unwrap().schema.render(),
            miner.mine_view(&backward).unwrap().schema.render()
        );
    }

    #[test]
    fn empty_index_mines_nothing() {
        let index = CorpusIndex::new();
        assert!(index.is_empty());
        assert!(FrequentPathMiner::default().mine_view(&index).is_none());
    }

    #[test]
    fn duplicate_shapes_are_interned_once_and_replayed_in_order() {
        let docs = corpus(FIGURE2);
        let mut index = CorpusIndex::new();
        // Push the corpus three times over: 9 documents, 3 shapes.
        for _ in 0..3 {
            for doc in &docs {
                index.push(doc);
            }
        }
        assert_eq!(index.len(), 9);
        assert_eq!(index.distinct_shapes(), 3);
        // Arrival order (with repetitions) is preserved exactly.
        let replayed: Vec<DocPaths> = index.docs().collect();
        assert_eq!(replayed.len(), 9);
        for (i, doc) in replayed.iter().enumerate() {
            assert_eq!(*doc, docs[i % 3], "doc {i} diverges");
        }
        // Interning is invisible to the aggregate view.
        assert_eq!(
            index.table(),
            crate::PathTable::from_docs(
                docs.iter().cycle().take(9).collect::<Vec<_>>().into_iter()
            )
        );
    }

    #[test]
    fn absorb_reinterns_the_other_index_shapes() {
        let docs = corpus(FIGURE2);
        let mut a = CorpusIndex::from_docs(docs.clone());
        let b = CorpusIndex::from_docs(docs.clone());
        a.absorb(b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.distinct_shapes(), 3, "absorb must not duplicate shapes");
        let replayed: Vec<DocPaths> = a.docs().collect();
        for (i, doc) in replayed.iter().enumerate() {
            assert_eq!(*doc, docs[i % 3], "doc {i} diverges");
        }
    }

    #[test]
    fn version_tracks_pushes() {
        let mut index = CorpusIndex::new();
        assert_eq!(index.version(), 0);
        for (i, doc) in corpus(FIGURE2).iter().enumerate() {
            index.push(doc);
            assert_eq!(index.version(), i as u64 + 1);
        }
    }

    /// A random label-tree corpus: documents mostly share one root so
    /// mining usually clears the support threshold.
    fn random_corpus(rng: &mut webre_substrate::rand::rngs::StdRng) -> Vec<DocPaths> {
        use webre_substrate::rand::seq::SliceRandom;
        use webre_substrate::rand::Rng;
        const LABELS: &[&str] = &["a", "b", "c", "d"];
        fn random_element(
            rng: &mut webre_substrate::rand::rngs::StdRng,
            label: &str,
            depth: u32,
        ) -> String {
            let arity = if depth == 0 { 0 } else { rng.gen_range(0..=3u32) };
            if arity == 0 {
                return format!("<{label}/>");
            }
            let children: String = (0..arity)
                .map(|_| {
                    let child = *LABELS.choose(rng).expect("non-empty");
                    random_element(rng, child, depth - 1)
                })
                .collect();
            format!("<{label}>{children}</{label}>")
        }
        let n = rng.gen_range(2..=6usize);
        (0..n)
            .map(|_| {
                let root = if rng.gen_bool(0.85) { "r" } else { "s" };
                let xml = random_element(rng, root, 3);
                extract_paths(&parse_xml(&xml).unwrap())
            })
            .collect()
    }

    #[test]
    fn incremental_mining_equals_batch_mining_on_random_corpora() {
        use webre_substrate::rand::seq::SliceRandom;
        use webre_substrate::rand::{Rng, SeedableRng};
        const SUPS: &[f64] = &[0.0, 0.25, 0.5, 0.75];
        const RATIOS: &[f64] = &[0.0, 0.3, 0.8];
        for seed in 0..40u64 {
            let mut rng = webre_substrate::rand::rngs::StdRng::seed_from_u64(seed);
            let docs = random_corpus(&mut rng);
            let index = CorpusIndex::from_docs(docs.clone());
            let miner = FrequentPathMiner {
                sup_threshold: *SUPS.choose(&mut rng).unwrap(),
                ratio_threshold: *RATIOS.choose(&mut rng).unwrap(),
                max_len: rng.gen_bool(0.25).then(|| rng.gen_range(1..=3usize)),
                constraints: None,
            };
            match (miner.mine(&docs), miner.mine_view(&index)) {
                (None, None) => {}
                (Some(batch), Some(incremental)) => {
                    assert_eq!(
                        batch.schema.render(),
                        incremental.schema.render(),
                        "seed {seed}: schemas diverge"
                    );
                    assert_eq!(batch.nodes_explored, incremental.nodes_explored, "seed {seed}");
                    assert_eq!(batch.nodes_accepted, incremental.nodes_accepted, "seed {seed}");
                }
                (batch, incremental) => panic!(
                    "seed {seed}: batch mined {} but incremental mined {}",
                    if batch.is_some() { "a schema" } else { "nothing" },
                    if incremental.is_some() { "a schema" } else { "nothing" },
                ),
            }
        }
    }

    #[test]
    fn random_accretion_order_never_changes_the_index_answers() {
        use webre_substrate::rand::seq::SliceRandom;
        use webre_substrate::rand::SeedableRng;
        for seed in 0..20u64 {
            let mut rng = webre_substrate::rand::rngs::StdRng::seed_from_u64(seed);
            let docs = random_corpus(&mut rng);
            let mut shuffled = docs.clone();
            shuffled.shuffle(&mut rng);
            let (a, b) = (
                CorpusIndex::from_docs(docs.clone()),
                CorpusIndex::from_docs(shuffled),
            );
            // Table-level equality, not just equal mining output: every
            // path in the universe answers identically.
            let mut universe: Vec<&LabelPath> =
                docs.iter().flat_map(DocPaths::paths).collect();
            universe.sort();
            universe.dedup();
            for path in universe {
                assert_eq!(
                    CorpusView::frequency(&a, path),
                    CorpusView::frequency(&b, path),
                    "seed {seed}: frequency diverges on {path:?}"
                );
                assert_eq!(
                    a.child_labels(path),
                    b.child_labels(path),
                    "seed {seed}: children diverge under {path:?}"
                );
            }
            assert_eq!(a.root_votes(), b.root_votes(), "seed {seed}");
        }
    }

    #[test]
    fn minority_root_is_outvoted() {
        let docs = corpus(&["<cv><a/></cv>", "<resume><a/></resume>", "<resume><b/></resume>"]);
        let index = CorpusIndex::from_docs(docs);
        assert_eq!(index.root_votes()[0].0, "resume");
        let outcome = FrequentPathMiner {
            sup_threshold: 0.5,
            ratio_threshold: 0.0,
            ..Default::default()
        }
        .mine_view(&index)
        .unwrap();
        assert_eq!(outcome.schema.root_label(), "resume");
    }
}
