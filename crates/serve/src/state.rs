//! The live corpus: incrementally accreted documents, sharded by content
//! hash, with a versioned, lazily recomputed schema snapshot and
//! optional durability.
//!
//! `POST /corpus/docs` and `POST /corpus/xml` accrete documents into a
//! [`ShardedCorpus`] (O(paths) per document); `GET /schema[/dtd]` reads
//! a [`Snapshot`]. Recomputation is *coalesced*: accreting a document
//! only invalidates the cached snapshot, and the next schema read mines
//! once for however many documents arrived in between — a burst of N
//! writes costs one recompute, not N. This write-invalidate /
//! read-recompute batching is what keeps accretion fast under load.
//!
//! Sharding: each document routes to `hash % shards`; mining and DTD
//! derivation both run over the union view, which sums the shards'
//! per-path aggregates — a recompute costs O(schema paths × shards) and
//! never walks the documents (only the opt-in group-pattern extension
//! does). Both are held equal to single-index batch processing by the
//! `shard-merge-vs-batch` differential oracle in `webre-check`.
//!
//! Durability: with a [`CorpusStore`] attached, every accretion appends
//! the document's canonical record to its shard's WAL *after* the
//! in-memory push, inside the same write lock, so log order equals
//! accretion order. Restarting on the same data directory replays the
//! logs into an identical corpus (same documents in the same shards),
//! which makes `GET /schema` and `GET /schema/dtd` byte-identical across
//! a restart. Conversion statistics are process-local and reset.
//!
//! Concurrency: one `RwLock` around the whole state. Writers (accrete)
//! hold it only for the index push and the WAL append — conversion and
//! record serialization happen *before* the lock, so the critical
//! section is short and panic-free. Readers share the lock; the first
//! reader after a write upgrades to recompute, double-checking under the
//! write lock so racing readers recompute at most once.

use crate::engine::Engine;
use crate::persist::CorpusStore;
use std::io;
use std::sync::{Arc, RwLock};
use webre_convert::ConvertStats;
use webre_obs::{scoped, Ctx};
use webre_schema::{
    derive_dtd_from, doc_to_record, extract_paths, DocPaths, MajoritySchema, PathTable,
    ShardedCorpus,
};
use webre_substrate::wal::checksum;
use webre_xml::{Dtd, XmlDocument};

/// An immutable view of the discovered schema at some corpus version.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Corpus version this snapshot was computed at (== documents
    /// accreted so far).
    pub version: u64,
    /// Documents in the corpus.
    pub docs: usize,
    /// Rendered majority schema, `None` while the corpus is empty or
    /// the root fails the support threshold.
    pub schema_text: Option<String>,
    /// Serialized DTD, `None` under the same conditions.
    pub dtd_text: Option<String>,
    /// The structured schema + DTD the mapping planner needs (`POST
    /// /map`); `None` exactly when the rendered forms are.
    pub mapping: Option<(MajoritySchema, Dtd)>,
}

struct Inner {
    corpus: ShardedCorpus,
    /// Durable log, absent for a purely in-memory corpus.
    store: Option<CorpusStore>,
    stats: ConvertStats,
    /// Cached snapshot; `None` marks it stale (writes invalidate).
    snapshot: Option<Arc<Snapshot>>,
}

/// Shared, thread-safe live corpus.
pub struct LiveCorpus {
    inner: RwLock<Inner>,
    /// Whether a store is attached. It is fixed at construction, so
    /// writers read it without taking the lock.
    has_store: bool,
}

impl Default for LiveCorpus {
    fn default() -> Self {
        LiveCorpus::in_memory(1)
    }
}

impl LiveCorpus {
    /// An empty, single-shard, in-memory corpus.
    pub fn new() -> Self {
        LiveCorpus::default()
    }

    /// An empty in-memory corpus with `shards` shards.
    pub fn in_memory(shards: usize) -> Self {
        LiveCorpus::build(ShardedCorpus::new(shards), None)
    }

    /// A corpus recovered from (and persisted through) `store`.
    pub fn durable(corpus: ShardedCorpus, store: CorpusStore) -> Self {
        LiveCorpus::build(corpus, Some(store))
    }

    fn build(corpus: ShardedCorpus, store: Option<CorpusStore>) -> Self {
        LiveCorpus {
            has_store: store.is_some(),
            inner: RwLock::new(Inner {
                corpus,
                store,
                stats: ConvertStats::default(),
                snapshot: None,
            }),
        }
    }

    /// Accretes one converted document. Returns `(version, docs)` after
    /// the push. The caller converts *before* calling so no fallible or
    /// slow work happens under the write lock; an `Err` means the WAL
    /// append failed (the document is in memory but its durability is
    /// not guaranteed).
    pub fn accrete(&self, doc: &XmlDocument, stats: &ConvertStats) -> io::Result<(u64, usize)> {
        // Route by a hash of the canonical serialization so the shard a
        // document lands in depends only on its content.
        let hash = checksum(webre_xml::to_xml(doc).as_bytes());
        self.accrete_paths(hash, extract_paths(doc), stats)
    }

    /// Accretes an already-extracted document under an explicit routing
    /// hash (the `/corpus/xml` fast path hashes the request body).
    pub fn accrete_paths(
        &self,
        hash: u64,
        paths: DocPaths,
        stats: &ConvertStats,
    ) -> io::Result<(u64, usize)> {
        // Serialize outside the lock; only a durable corpus needs the
        // record.
        let record = self.has_store.then(|| doc_to_record(&paths));
        let mut inner = self.write();
        let shard = inner.corpus.shard_of(hash);
        inner.corpus.push_to(shard, paths);
        inner.stats.merge(stats);
        inner.snapshot = None;
        let Inner { corpus, store, .. } = &mut *inner;
        if let (Some(store), Some(record)) = (store.as_mut(), record) {
            // The record is pre-serialized, so only the append itself
            // runs under the lock (see module docs).
            // webre::allow(lock-across-blocking): the WAL append must happen inside the write lock — log order equals accretion order is the recovery invariant
            store.log_doc(shard, &record, &corpus.shards()[shard])?;
        }
        Ok((inner.corpus.version(), inner.corpus.len()))
    }

    /// The current snapshot, recomputing at most once per corpus version.
    /// A recompute records mining and DTD-derivation spans; cache hits
    /// record nothing.
    pub fn snapshot(&self, engine: &Engine) -> Arc<Snapshot> {
        if let Some(snapshot) = self.read().snapshot.clone() {
            return snapshot;
        }
        let mut inner = self.write();
        // Double-check: a racing reader may have recomputed already.
        if let Some(snapshot) = inner.snapshot.clone() {
            return snapshot;
        }
        let (schema_text, dtd_text, mapping) = match engine.miner.mine_view(&inner.corpus) {
            None => (None, None, None),
            Some(outcome) => {
                let corpus = &inner.corpus;
                let dtd = derive_dtd_from(
                    &outcome.schema,
                    corpus,
                    || corpus.docs(),
                    &engine.dtd_config,
                );
                (
                    Some(outcome.schema.render()),
                    Some(dtd.to_dtd_string()),
                    Some((outcome.schema, dtd)),
                )
            }
        };
        let snapshot = Arc::new(Snapshot {
            version: inner.corpus.version(),
            docs: inner.corpus.len(),
            schema_text,
            dtd_text,
            mapping,
        });
        inner.snapshot = Some(Arc::clone(&snapshot));
        snapshot
    }

    /// [`LiveCorpus::snapshot`] with `ctx` installed around it. Kept
    /// because the repository benchmark (`perfbench/`, outside the
    /// workspace), which may not change, calls it by this name.
    pub fn snapshot_obs(&self, engine: &Engine, ctx: Ctx<'_>) -> Arc<Snapshot> {
        scoped(ctx, || self.snapshot(engine))
    }

    /// The merged frequent-path table with the version and doc count it
    /// was taken at — the `GET /corpus/table` payload. Built from the
    /// shards' per-path aggregates, O(distinct paths).
    pub fn table(&self) -> (PathTable, u64, usize) {
        let inner = self.read();
        (
            inner.corpus.table(),
            inner.corpus.version(),
            inner.corpus.len(),
        )
    }

    /// Aggregate conversion statistics over every accreted document.
    pub fn stats(&self) -> ConvertStats {
        self.read().stats
    }

    /// Documents accreted so far.
    pub fn len(&self) -> usize {
        self.read().corpus.len()
    }

    /// Whether no document has been accreted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards the corpus is split across.
    pub fn shard_count(&self) -> usize {
        self.read().corpus.shard_count()
    }

    /// Forces any batched WAL appends to stable storage. A no-op for an
    /// in-memory corpus.
    pub fn sync_to_disk(&self) -> io::Result<()> {
        // Called from shutdown/admin paths, never the request hot path.
        match self.write().store.as_mut() {
            // webre::allow(lock-across-blocking): fsync under the write lock is the durability barrier — no append can land between flushing and the caller observing "synced"
            Some(store) => store.sync_to_disk(),
            None => Ok(()),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        // Writers never panic while holding the lock (all fallible work
        // under it returns Results), so recovering from poison is safe.
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::StoreConfig;
    use std::path::PathBuf;

    fn engine() -> Engine {
        Engine::resume_domain()
    }

    fn convert(engine: &Engine, html: &str) -> (XmlDocument, ConvertStats) {
        engine.converter.convert_str(html)
    }

    #[test]
    fn empty_corpus_has_no_schema() {
        let corpus = LiveCorpus::new();
        let snapshot = corpus.snapshot(&engine());
        assert_eq!(snapshot.version, 0);
        assert_eq!(snapshot.docs, 0);
        assert!(snapshot.schema_text.is_none());
        assert!(snapshot.dtd_text.is_none());
    }

    #[test]
    fn accretion_bumps_version_and_snapshot_follows() {
        let engine = engine();
        let corpus = LiveCorpus::new();
        let html = "<h2>Education</h2><ul><li>Stanford University, M.S., 1996</li></ul>";
        for i in 1..=3u64 {
            let (doc, stats) = convert(&engine, html);
            let (version, docs) = corpus.accrete(&doc, &stats).unwrap();
            assert_eq!(version, i);
            assert_eq!(docs, i as usize);
        }
        let snapshot = corpus.snapshot(&engine);
        assert_eq!(snapshot.version, 3);
        let schema = snapshot.schema_text.as_ref().expect("schema discovered");
        assert!(schema.contains("resume"), "{schema}");
        let dtd = snapshot.dtd_text.as_ref().expect("dtd derived");
        assert!(dtd.contains("<!ELEMENT resume"), "{dtd}");
    }

    #[test]
    fn sharded_in_memory_corpus_mines_like_single_shard() {
        let engine = engine();
        let single = LiveCorpus::in_memory(1);
        let sharded = LiveCorpus::in_memory(4);
        for html in [
            "<h2>Education</h2><ul><li>Stanford University, M.S., 1996</li></ul>",
            "<h2>Skills</h2><p>C++, Java</p>",
            "<h2>Education</h2><ul><li>MIT, Ph.D., 2001</li></ul>",
        ] {
            let (doc, stats) = convert(&engine, html);
            single.accrete(&doc, &stats).unwrap();
            sharded.accrete(&doc, &stats).unwrap();
        }
        assert_eq!(sharded.shard_count(), 4);
        let a = single.snapshot(&engine);
        let b = sharded.snapshot(&engine);
        assert_eq!(a.schema_text, b.schema_text);
        // The frequent-path table is shard-layout independent too.
        assert_eq!(single.table().0, sharded.table().0);
    }

    #[test]
    fn snapshot_is_cached_until_invalidated() {
        let engine = engine();
        let corpus = LiveCorpus::new();
        let (doc, stats) = convert(&engine, "<h2>Skills</h2><p>C++, Java</p>");
        corpus.accrete(&doc, &stats).unwrap();
        let first = corpus.snapshot(&engine);
        let second = corpus.snapshot(&engine);
        assert!(
            Arc::ptr_eq(&first, &second),
            "unchanged corpus must reuse the cached snapshot"
        );
        corpus.accrete(&doc, &stats).unwrap();
        let third = corpus.snapshot(&engine);
        assert!(!Arc::ptr_eq(&second, &third), "accretion must invalidate");
        assert_eq!(third.version, 2);
    }

    #[test]
    fn burst_of_writes_coalesces_to_one_recompute() {
        // Not directly observable without instrumenting the miner, but
        // the version arithmetic pins the contract: after N accretions
        // and one read, the snapshot carries version N (a per-write
        // recompute would have materialized intermediate versions).
        let engine = engine();
        let corpus = LiveCorpus::new();
        let (doc, stats) = convert(&engine, "<h2>Objective</h2><p>a job</p>");
        for _ in 0..10 {
            corpus.accrete(&doc, &stats).unwrap();
        }
        assert_eq!(corpus.snapshot(&engine).version, 10);
    }

    #[test]
    fn stats_aggregate_across_documents() {
        let engine = engine();
        let corpus = LiveCorpus::new();
        let (doc, stats) = convert(&engine, "<p>zorp blorp, qux flux</p>");
        corpus.accrete(&doc, &stats).unwrap();
        corpus.accrete(&doc, &stats).unwrap();
        assert_eq!(corpus.stats().tokens_total, 2 * stats.tokens_total);
        assert_eq!(corpus.len(), 2);
    }

    #[test]
    fn concurrent_accretion_and_reads_are_consistent() {
        let engine = Arc::new(engine());
        let corpus = Arc::new(LiveCorpus::in_memory(3));
        let html = "<h2>Education</h2><ul><li>MIT, Ph.D., 2001</li></ul>";
        let (doc, stats) = convert(&engine, html);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (corpus, engine, doc, stats) =
                (Arc::clone(&corpus), Arc::clone(&engine), doc.clone(), stats);
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    corpus.accrete(&doc, &stats).unwrap();
                    let snapshot = corpus.snapshot(&engine);
                    assert!(snapshot.docs as u64 <= snapshot.version);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snapshot = corpus.snapshot(&engine);
        assert_eq!(snapshot.version, 100);
        assert_eq!(snapshot.docs, 100);
        assert!(snapshot.schema_text.is_some());
    }

    #[test]
    fn durable_corpus_snapshot_survives_a_restart_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!(
            "webre-state-durable-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            data_dir: PathBuf::from(&dir),
            shards: 2,
            sync_every: 4,
            compact_min: 8,
        };
        let engine = engine();
        let first_snapshot;
        {
            let (store, sharded, report) = CorpusStore::open(&cfg).unwrap();
            assert_eq!(report.docs, 0);
            let corpus = LiveCorpus::durable(sharded, store);
            for html in [
                "<h2>Education</h2><ul><li>Stanford University, M.S., 1996</li></ul>",
                "<h2>Skills</h2><p>C++, Java</p>",
                "<h2>Education</h2><ul><li>MIT, Ph.D., 2001</li></ul>",
                "<h2>Objective</h2><p>research</p>",
            ] {
                let (doc, stats) = convert(&engine, html);
                corpus.accrete(&doc, &stats).unwrap();
            }
            first_snapshot = corpus.snapshot(&engine);
            corpus.sync_to_disk().unwrap();
        }
        let (store, sharded, report) = CorpusStore::open(&cfg).unwrap();
        assert_eq!(report.docs, 4);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        let corpus = LiveCorpus::durable(sharded, store);
        let restored = corpus.snapshot(&engine);
        assert_eq!(restored.version, first_snapshot.version);
        assert_eq!(restored.schema_text, first_snapshot.schema_text);
        assert_eq!(restored.dtd_text, first_snapshot.dtd_text);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
