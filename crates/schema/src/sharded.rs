//! Sharded corpora and the mergeable per-path table.
//!
//! Everything mining and DTD derivation read is an *associative*
//! aggregate over documents: document-support counts add,
//! sibling-position sums add, the per-multiplicity document counts add,
//! root votes add, and the candidate-children relation is a set union.
//! [`PathStats`] holds one path's share of that algebra. It is what
//! makes a corpus shardable: each shard maintains its own
//! [`CorpusIndex`], and merging the per-shard [`PathTable`]s yields
//! byte-for-byte the table a single index over the union would have
//! produced, regardless of how documents were split or in which order
//! shards are merged. `crates/check`'s `shard-merge-vs-batch` oracle
//! holds this identity under random corpora, shard counts, mining
//! thresholds and DTD configurations.
//!
//! [`ShardedCorpus`] routes each document to a shard by content hash and
//! implements [`CorpusView`] and [`DtdView`] over the union by summing
//! per-shard answers, so mining a sharded corpus explores the exact node
//! set (and produces the exact schema and DTD) batch processing over the
//! concatenated documents would.

use crate::dtd_rules::DtdView;
use crate::frequent::CorpusView;
use crate::incremental::CorpusIndex;
use crate::paths::{DocPaths, LabelPath, PathEntry};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// One label path's aggregate over a document set: what the miner reads
/// (document frequency) and what the two DTD rules read (position sums
/// for ordering, per-multiplicity document counts for repetition). Merge
/// is pointwise addition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathStats {
    /// Documents containing the path (each counts once — path *sets*,
    /// per Section 3.2).
    pub(crate) frequency: usize,
    /// Sum of the 0-based sibling positions of the path's nodes. Positions
    /// are integers, so the `f64` sum is exact and order-insensitive.
    pub(crate) pos_sum: f64,
    /// Number of nodes the positions were taken over.
    pub(crate) pos_count: u64,
    /// `(num, documents)` ascending by `num`: how many documents recorded
    /// the multiplicity `⟨p, num⟩` (`num ≥ 1`).
    pub(crate) multiplicity: Vec<(u32, usize)>,
}

impl PathStats {
    /// The aggregate of one document's entry for the path.
    pub(crate) fn of(entry: &PathEntry) -> Self {
        let mut stats = PathStats::default();
        stats.add_doc(entry);
        stats
    }

    /// Adds one document's contribution: its entry for the path.
    pub(crate) fn add_doc(&mut self, entry: &PathEntry) {
        self.frequency += 1;
        self.pos_sum += entry.pos_sum;
        self.pos_count += entry.pos_count;
        if entry.multiplicity > 0 {
            self.add_multiplicity(entry.multiplicity, 1);
        }
    }

    pub(crate) fn add_multiplicity(&mut self, num: u32, docs: usize) {
        match self.multiplicity.binary_search_by_key(&num, |&(n, _)| n) {
            Ok(i) => self.multiplicity[i].1 += docs,
            Err(i) => self.multiplicity.insert(i, (num, docs)),
        }
    }

    /// Pointwise addition of another aggregate of the same path.
    pub(crate) fn merge_from(&mut self, other: &PathStats) {
        self.frequency += other.frequency;
        self.pos_sum += other.pos_sum;
        self.pos_count += other.pos_count;
        for &(num, docs) in &other.multiplicity {
            self.add_multiplicity(num, docs);
        }
    }

    /// Documents that recorded a multiplicity of at least `threshold`.
    /// A document lacking the path records none (its multiplicity reads
    /// as 0), so for `threshold == 0` the repetition rule counts the
    /// corpus's whole document count instead of this value.
    pub(crate) fn docs_with_multiplicity_at_least(&self, threshold: u32) -> usize {
        self.multiplicity
            .iter()
            .filter(|(num, _)| *num >= threshold)
            .map(|(_, docs)| docs)
            .sum()
    }
}

/// The mergeable aggregate of a document set: one [`PathStats`] per
/// label path — everything the miner needs (support counts, candidate
/// children, root votes) and everything the DTD rules need — with merge
/// = pointwise addition.
///
/// Keys are held in a `BTreeMap` so every traversal of the table is in
/// sorted path order — serialization and queries are deterministic no
/// matter what order documents or merges arrived in.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathTable {
    /// Documents aggregated into this table.
    pub doc_count: usize,
    /// The aggregate of every label path some document contains.
    pub paths: BTreeMap<LabelPath, PathStats>,
}

impl PathTable {
    /// An empty table.
    pub fn new() -> Self {
        PathTable::default()
    }

    /// The table of a document batch.
    pub fn from_docs<'a>(docs: impl IntoIterator<Item = &'a DocPaths>) -> Self {
        let mut table = PathTable::new();
        for doc in docs {
            table.add_doc(doc);
        }
        table
    }

    /// Aggregates one document. O(paths in `doc` · log table); a key is
    /// cloned only the first time its path is seen.
    pub fn add_doc(&mut self, doc: &DocPaths) {
        for entry in doc.entries() {
            match self.paths.get_mut(entry.path.as_slice()) {
                Some(stats) => stats.add_doc(entry),
                None => {
                    self.paths.insert(entry.path.clone(), PathStats::of(entry));
                }
            }
        }
        self.doc_count += 1;
    }

    /// Adds `stats` into the entry of `path`, cloning the key only when
    /// the path is new to the table. Does not touch `doc_count`.
    pub(crate) fn merge_path(&mut self, path: &[String], stats: &PathStats) {
        match self.paths.get_mut(path) {
            Some(entry) => entry.merge_from(stats),
            None => {
                self.paths.insert(path.to_vec(), stats.clone());
            }
        }
    }

    /// Pointwise addition of another table — the merge half of the
    /// merge ≡ batch identity.
    pub fn merge_from(&mut self, other: &PathTable) {
        self.doc_count += other.doc_count;
        for (path, stats) in &other.paths {
            self.merge_path(path, stats);
        }
    }

    /// Merges a sequence of tables into one.
    pub fn merged<'a>(tables: impl IntoIterator<Item = &'a PathTable>) -> PathTable {
        let mut out = PathTable::new();
        for table in tables {
            out.merge_from(table);
        }
        out
    }

    /// Average sibling position of a path, `None` when unobserved.
    pub fn average_position(&self, path: &[String]) -> Option<f64> {
        self.paths
            .get(path)
            .filter(|stats| stats.pos_count > 0)
            .map(|stats| stats.pos_sum / stats.pos_count as f64)
    }

    /// Number of distinct label paths with support.
    pub fn distinct_paths(&self) -> usize {
        self.paths.len()
    }
}

impl CorpusView for PathTable {
    fn doc_count(&self) -> usize {
        self.doc_count
    }

    fn frequency(&self, path: &[String]) -> usize {
        self.paths.get(path).map_or(0, |stats| stats.frequency)
    }

    fn child_labels(&self, prefix: &[String]) -> Vec<String> {
        // Paths extending `prefix` are contiguous in lexicographic key
        // order, and among them the depth-(+1) keys appear sorted by
        // their final label — a bounded range scan yields the children
        // already in the sorted order the other `CorpusView` impls use.
        let mut out = Vec::new();
        let start: LabelPath = prefix.to_vec();
        for (path, _) in self
            .paths
            .range::<LabelPath, _>((Bound::Included(&start), Bound::Unbounded))
        {
            if !path.starts_with(prefix) {
                break;
            }
            if path.len() == prefix.len() + 1 {
                out.push(path.last().expect("non-empty path").clone());
            }
        }
        out
    }

    fn root_votes(&self) -> Vec<(String, usize)> {
        // Every document contributes exactly one length-1 path — its
        // root — so root votes are the depth-1 slice of the table rather
        // than separate state.
        let mut votes: Vec<(String, usize)> = self
            .paths
            .iter()
            .filter(|(path, _)| path.len() == 1)
            .map(|(path, stats)| (path[0].clone(), stats.frequency))
            .collect();
        votes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        votes
    }
}

impl DtdView for PathTable {
    fn path_stats(&self, path: &[String]) -> PathStats {
        self.paths.get(path).cloned().unwrap_or_default()
    }
}

/// A live corpus split across N independent [`CorpusIndex`] shards by
/// content hash, with a [`CorpusView`] over the union.
#[derive(Clone, Debug)]
pub struct ShardedCorpus {
    shards: Vec<CorpusIndex>,
}

impl ShardedCorpus {
    /// A corpus with `shards` empty shards (at least one).
    pub fn new(shards: usize) -> Self {
        ShardedCorpus {
            shards: vec![CorpusIndex::new(); shards.max(1)],
        }
    }

    /// A corpus over the given shards, in id order (one empty shard
    /// when given none). WAL replay builds each shard on its own.
    pub fn from_shards(mut shards: Vec<CorpusIndex>) -> Self {
        if shards.is_empty() {
            shards.push(CorpusIndex::new());
        }
        ShardedCorpus { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a content hash routes to.
    pub fn shard_of(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    /// Accretes a document into the shard its content hash selects;
    /// returns that shard's id.
    pub fn push(&mut self, hash: u64, doc: &DocPaths) -> usize {
        let shard = self.shard_of(hash);
        self.shards[shard].push(doc);
        shard
    }

    /// Accretes a document into an explicit shard, one the caller has
    /// already routed to with [`ShardedCorpus::shard_of`].
    pub fn push_to(&mut self, shard: usize, doc: &DocPaths) {
        self.shards[shard].push(doc);
    }

    /// The shards, in id order.
    pub fn shards(&self) -> &[CorpusIndex] {
        &self.shards
    }

    /// The accreted documents in shard order, then arrival order within
    /// a shard — the order DTD group-pattern detection reads them in —
    /// each rebuilt as a `DocPaths`.
    pub fn docs(&self) -> impl Iterator<Item = DocPaths> + '_ {
        self.shards.iter().flat_map(CorpusIndex::docs)
    }

    /// Total documents across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(CorpusIndex::len).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of shard versions — increases on every push, so snapshot
    /// staleness detection works exactly as with one index.
    pub fn version(&self) -> u64 {
        self.shards.iter().map(CorpusIndex::version).sum()
    }

    /// The merged [`PathTable`] over all shards, built from the shards'
    /// per-path aggregates in O(distinct paths · shards).
    pub fn table(&self) -> PathTable {
        let mut table = PathTable::new();
        for shard in &self.shards {
            shard.merge_into(&mut table);
        }
        table
    }
}

impl CorpusView for ShardedCorpus {
    fn doc_count(&self) -> usize {
        self.len()
    }

    fn frequency(&self, path: &[String]) -> usize {
        self.shards.iter().map(|s| s.frequency(path)).sum()
    }

    fn child_labels(&self, prefix: &[String]) -> Vec<String> {
        let mut union: BTreeSet<String> = BTreeSet::new();
        for shard in &self.shards {
            union.extend(shard.child_labels(prefix));
        }
        union.into_iter().collect()
    }

    fn root_votes(&self) -> Vec<(String, usize)> {
        let mut tally: BTreeMap<String, usize> = BTreeMap::new();
        for shard in &self.shards {
            for (label, count) in shard.root_votes() {
                *tally.entry(label).or_insert(0) += count;
            }
        }
        let mut votes: Vec<(String, usize)> = tally.into_iter().collect();
        votes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        votes
    }
}

impl DtdView for ShardedCorpus {
    fn path_stats(&self, path: &[String]) -> PathStats {
        let mut total = PathStats::default();
        for stats in self.shards.iter().filter_map(|shard| shard.stats_of(path)) {
            total.merge_from(stats);
        }
        total
    }

    /// Shard order, then arrival order within a shard.
    fn child_sequences(&self, paths: &[LabelPath]) -> Vec<Vec<Vec<&str>>> {
        let mut out = vec![Vec::new(); paths.len()];
        for shard in &self.shards {
            for (all, more) in out.iter_mut().zip(shard.child_sequences(paths)) {
                all.extend(more);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequent::FrequentPathMiner;
    use crate::paths::extract_paths;
    use webre_substrate::rand::rngs::StdRng;
    use webre_substrate::rand::seq::SliceRandom;
    use webre_substrate::rand::{Rng, SeedableRng};
    use webre_xml::parse_xml;

    fn corpus(xmls: &[&str]) -> Vec<DocPaths> {
        xmls.iter()
            .map(|x| extract_paths(&parse_xml(x).unwrap()))
            .collect()
    }

    /// Small random label-tree corpus (mirrors the incremental tests).
    fn random_corpus(rng: &mut StdRng) -> Vec<DocPaths> {
        const LABELS: &[&str] = &["a", "b", "c", "d"];
        fn element(rng: &mut StdRng, label: &str, depth: u32) -> String {
            let arity = if depth == 0 { 0 } else { rng.gen_range(0..=3u32) };
            if arity == 0 {
                return format!("<{label}/>");
            }
            let children: String = (0..arity)
                .map(|_| {
                    let label = *LABELS.choose(rng).unwrap();
                    element(rng, label, depth - 1)
                })
                .collect();
            format!("<{label}>{children}</{label}>")
        }
        let n = rng.gen_range(2..=8usize);
        (0..n)
            .map(|_| {
                let root = if rng.gen_bool(0.85) { "r" } else { "s" };
                extract_paths(&parse_xml(&element(rng, root, 3)).unwrap())
            })
            .collect()
    }

    #[test]
    fn table_from_docs_matches_slice_answers() {
        let docs = corpus(&[
            "<r><a/><b/><a/></r>",
            "<r><b/><c><a/></c></r>",
            "<r><a/></r>",
        ]);
        let table = PathTable::from_docs(&docs);
        assert_eq!(table.doc_count(), 3);
        let mut universe: Vec<&LabelPath> = docs.iter().flat_map(DocPaths::paths).collect();
        universe.sort();
        universe.dedup();
        for path in universe {
            assert_eq!(
                CorpusView::frequency(&table, path),
                docs[..].frequency(path),
                "frequency diverges on {path:?}"
            );
            assert_eq!(
                table.child_labels(path),
                docs[..].child_labels(path),
                "children diverge under {path:?}"
            );
            assert_eq!(
                table.average_position(path),
                crate::paths::average_position(&docs, path),
                "positions diverge on {path:?}"
            );
        }
        assert_eq!(table.root_votes(), docs[..].root_votes());
    }

    #[test]
    fn merge_equals_batch_for_any_split_point() {
        let docs = corpus(&[
            "<r><a/><b/></r>",
            "<r><b/><b/><b/></r>",
            "<s><a/></s>",
            "<r><c><a/></c></r>",
        ]);
        let batch = PathTable::from_docs(&docs);
        for split in 0..=docs.len() {
            let (left, right) = docs.split_at(split);
            let mut merged = PathTable::from_docs(left);
            merged.merge_from(&PathTable::from_docs(right));
            assert_eq!(merged, batch, "split at {split}");
        }
    }

    #[test]
    fn merge_is_order_insensitive() {
        let docs = corpus(&["<r><a/></r>", "<r><b/></r>", "<s><c/></s>"]);
        let parts: Vec<PathTable> = docs
            .iter()
            .map(|d| PathTable::from_docs(std::iter::once(d)))
            .collect();
        let forward = PathTable::merged(&parts);
        let backward = PathTable::merged(parts.iter().rev());
        assert_eq!(forward, backward);
        assert_eq!(forward, PathTable::from_docs(&docs));
    }

    #[test]
    fn sharded_view_answers_match_union_slice() {
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let docs = random_corpus(&mut rng);
            let shard_count = rng.gen_range(1..=4usize);
            let mut sharded = ShardedCorpus::new(shard_count);
            for (i, doc) in docs.iter().enumerate() {
                // Any deterministic hash works; route by index mix.
                sharded.push((i as u64).wrapping_mul(0x9E37_79B9), doc);
            }
            assert_eq!(sharded.len(), docs.len());
            let mut universe: Vec<&LabelPath> =
                docs.iter().flat_map(DocPaths::paths).collect();
            universe.sort();
            universe.dedup();
            for path in universe {
                assert_eq!(
                    CorpusView::frequency(&sharded, path),
                    docs[..].frequency(path),
                    "seed {seed}: frequency diverges on {path:?}"
                );
                assert_eq!(
                    sharded.child_labels(path),
                    docs[..].child_labels(path),
                    "seed {seed}: children diverge under {path:?}"
                );
            }
            assert_eq!(sharded.root_votes(), docs[..].root_votes(), "seed {seed}");
        }
    }

    #[test]
    fn mining_sharded_equals_mining_batch() {
        const SUPS: &[f64] = &[0.0, 0.25, 0.5, 0.75];
        const RATIOS: &[f64] = &[0.0, 0.3, 0.8];
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let docs = random_corpus(&mut rng);
            let mut sharded = ShardedCorpus::new(rng.gen_range(1..=5usize));
            for (i, doc) in docs.iter().enumerate() {
                sharded.push(i as u64, doc);
            }
            let miner = FrequentPathMiner {
                sup_threshold: *SUPS.choose(&mut rng).unwrap(),
                ratio_threshold: *RATIOS.choose(&mut rng).unwrap(),
                max_len: rng.gen_bool(0.25).then(|| rng.gen_range(1..=3usize)),
                constraints: None,
            };
            // Three routes to the same schema: batch slice, sharded
            // view, merged table.
            let batch = miner.mine(&docs);
            let sharded_outcome = miner.mine_view(&sharded);
            let table_outcome = miner.mine_view(&sharded.table());
            match (batch, sharded_outcome, table_outcome) {
                (None, None, None) => {}
                (Some(b), Some(s), Some(t)) => {
                    assert_eq!(b.schema.render(), s.schema.render(), "seed {seed}");
                    assert_eq!(b.schema.render(), t.schema.render(), "seed {seed}");
                    assert_eq!(b.nodes_explored, s.nodes_explored, "seed {seed}");
                    assert_eq!(b.nodes_explored, t.nodes_explored, "seed {seed}");
                    assert_eq!(b.nodes_accepted, s.nodes_accepted, "seed {seed}");
                    assert_eq!(b.nodes_accepted, t.nodes_accepted, "seed {seed}");
                }
                (b, s, t) => panic!(
                    "seed {seed}: divergent mining presence (batch {}, sharded {}, table {})",
                    b.is_some(),
                    s.is_some(),
                    t.is_some()
                ),
            }
        }
    }

    #[test]
    fn shard_routing_is_stable_by_hash() {
        let mut sharded = ShardedCorpus::new(4);
        let docs = corpus(&["<r><a/></r>"]);
        let shard = sharded.push(42, &docs[0]);
        assert_eq!(shard, sharded.shard_of(42));
        assert_eq!(sharded.shards()[shard].len(), 1);
        assert_eq!(sharded.version(), 1);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let sharded = ShardedCorpus::new(0);
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.shard_of(u64::MAX), 0);
    }

    #[test]
    fn empty_table_mines_nothing() {
        assert!(FrequentPathMiner::default()
            .mine_view(&PathTable::new())
            .is_none());
        assert!(PathTable::new().root_votes().is_empty());
    }
}
