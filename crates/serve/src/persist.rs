//! Durable corpus storage: a per-shard write-ahead log plus compacted
//! snapshots, built on [`webre_substrate::wal`].
//!
//! # Layout
//!
//! A data directory holds, per shard `i`:
//!
//! ```text
//! <data-dir>/meta.json            shard count + format version
//! <data-dir>/shard-<i>.snapshot   compacted log: every doc at compaction time
//! <data-dir>/shard-<i>.wal        tail log: docs accreted since
//! ```
//!
//! Both files use the same framing ([`webre_substrate::wal`] records
//! whose payloads are canonical [`webre_schema::doc_to_record`] JSON), so
//! a snapshot is nothing more than a pre-compacted log and replay is one
//! code path: snapshot records first, then the tail.
//!
//! # Recovery
//!
//! Replay tolerates a crash at any byte: the torn or corrupt suffix of a
//! tail log is reported as a warning, skipped, and truncated away before
//! the appender reopens, so the next append never hides fresh records
//! behind a corrupt region. Every record before the corruption is
//! replayed — the recovered corpus is exactly the live corpus at the
//! moment the last intact record was appended.
//!
//! # Compaction
//!
//! When a shard's tail holds at least as many records as its snapshot
//! (and at least `compact_min`), the shard is compacted: the full shard
//! is rewritten atomically as a new snapshot and the tail is truncated.
//! The threshold doubles with the snapshot, so compaction cost is
//! amortized O(1) writes per accreted document (geometric policy).
//!
//! # Durability policy
//!
//! Appends reach the file descriptor immediately; `fsync` is batched
//! every `sync_every` records per shard ([`webre_substrate::wal::WalWriter`]).
//! [`CorpusStore::sync_to_disk`] forces the remainder out — the server
//! calls it on drain.

use std::fs::OpenOptions;
use std::io;
use std::path::{Path, PathBuf};
use webre_schema::{doc_from_record, doc_to_record, CorpusIndex, ShardedCorpus};
use webre_substrate::json::Json;
use webre_substrate::wal::{
    append_record, decode_records, write_file_atomic, WalWriter,
};

/// On-disk format version, bumped on incompatible layout changes.
const FORMAT_VERSION: u64 = 1;

/// How a [`CorpusStore`] is opened.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Directory holding the meta file and per-shard logs; created if
    /// absent.
    pub data_dir: PathBuf,
    /// Shard count for a *fresh* directory. An existing directory's
    /// recorded count always wins (documents must replay into the shard
    /// they were logged under).
    pub shards: usize,
    /// Records per fsync batch, per shard (`1` = fsync every append).
    pub sync_every: usize,
    /// Minimum tail length before a compaction can trigger.
    pub compact_min: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            data_dir: PathBuf::from("webre-data"),
            shards: 4,
            sync_every: 64,
            compact_min: 1024,
        }
    }
}

/// What replay found when the store was opened.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Documents restored across all shards.
    pub docs: usize,
    /// Shard count in effect (from the meta file, or the config for a
    /// fresh directory).
    pub shards: usize,
    /// Human-readable recovery notes: corrupt tails skipped, undecodable
    /// records dropped, shard-count overrides. Empty on a clean open.
    pub warnings: Vec<String>,
}

struct ShardLog {
    wal: WalWriter,
    /// Records currently in the tail log.
    tail_records: usize,
    /// Documents in the snapshot file at its last write.
    snapshot_docs: usize,
}

/// The durable half of a sharded live corpus: one WAL + snapshot pair
/// per shard. All methods take `&mut self`; the serving layer drives it
/// from inside the corpus write lock so log order matches accretion
/// order.
pub struct CorpusStore {
    dir: PathBuf,
    sync_every: usize,
    compact_min: usize,
    shards: Vec<ShardLog>,
}

fn snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.snapshot"))
}

fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.json")
}

/// Reads the recorded shard count, or stamps the directory with
/// `configured` on first open. A mismatch between the two is resolved in
/// favour of the disk (and noted), because records already routed to N
/// shards cannot be re-routed without rewriting every log.
fn resolve_shards(
    dir: &Path,
    configured: usize,
    warnings: &mut Vec<String>,
) -> io::Result<usize> {
    let path = meta_path(dir);
    if let Ok(text) = std::fs::read_to_string(&path) {
        let recorded = Json::parse(&text)
            .ok()
            .and_then(|m| m.get("shards").and_then(Json::as_f64))
            .map(|n| n as usize)
            .filter(|n| *n >= 1);
        match recorded {
            Some(n) => {
                if n != configured {
                    warnings.push(format!(
                        "data dir was created with {n} shard(s); ignoring --shards {configured}"
                    ));
                }
                return Ok(n);
            }
            None => warnings.push(format!(
                "unreadable meta file {}; rewriting with {configured} shard(s)",
                path.display()
            )),
        }
    }
    let shards = configured.max(1);
    let meta = Json::Obj(vec![
        ("format".to_owned(), Json::Num(FORMAT_VERSION as f64)),
        ("shards".to_owned(), Json::Num(shards as f64)),
    ]);
    write_file_atomic(&path, format!("{meta}\n").as_bytes())?;
    Ok(shards)
}

/// Replays one log file into `corpus` shard `shard`. Returns the number
/// of records applied and, for tail logs, truncates any corrupt suffix
/// so the reopened appender continues from the intact prefix.
fn replay_log(
    path: &Path,
    shard: usize,
    corpus: &mut ShardedCorpus,
    truncate_corruption: bool,
    warnings: &mut Vec<String>,
) -> io::Result<usize> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let decoded = decode_records(&bytes);
    let mut applied = 0usize;
    for record in &decoded.records {
        match doc_from_record(record) {
            Ok(doc) => {
                corpus.push_to(shard, doc);
                applied += 1;
            }
            // The frame checksum passed, so the payload is as written;
            // an undecodable record is version skew, not bit rot. Drop
            // it loudly rather than refusing to start.
            Err(e) => warnings.push(format!(
                "{}: skipping undecodable record: {e}",
                path.display()
            )),
        }
    }
    if let Some(corruption) = decoded.corruption {
        warnings.push(format!(
            "{}: {corruption}; recovered {applied} record(s), dropping {} corrupt byte(s)",
            path.display(),
            bytes.len() - decoded.clean_len
        ));
        if truncate_corruption {
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(decoded.clean_len as u64)?;
        }
    }
    Ok(applied)
}

impl CorpusStore {
    /// Opens (or initializes) a data directory, replaying its contents.
    /// Returns the store, the recovered corpus, and a replay report.
    pub fn open(config: &StoreConfig) -> io::Result<(CorpusStore, ShardedCorpus, ReplayReport)> {
        std::fs::create_dir_all(&config.data_dir)?;
        let mut report = ReplayReport::default();
        let shard_count =
            resolve_shards(&config.data_dir, config.shards, &mut report.warnings)?;
        report.shards = shard_count;
        let mut corpus = ShardedCorpus::new(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let snapshot_docs = replay_log(
                &snapshot_path(&config.data_dir, shard),
                shard,
                &mut corpus,
                false,
                &mut report.warnings,
            )?;
            let tail_records = replay_log(
                &wal_path(&config.data_dir, shard),
                shard,
                &mut corpus,
                true,
                &mut report.warnings,
            )?;
            report.docs += snapshot_docs + tail_records;
            let wal = WalWriter::open_append(
                &wal_path(&config.data_dir, shard),
                config.sync_every,
            )?;
            shards.push(ShardLog {
                wal,
                tail_records,
                snapshot_docs,
            });
        }
        let store = CorpusStore {
            dir: config.data_dir.clone(),
            sync_every: config.sync_every.max(1),
            compact_min: config.compact_min.max(1),
            shards,
        };
        Ok((store, corpus, report))
    }

    /// Shard count this store was opened with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Appends one document record to `shard`'s tail log, compacting the
    /// shard when the tail has outgrown the snapshot. `index` must be
    /// the in-memory shard *after* the document was pushed — compaction
    /// snapshots it verbatim.
    pub fn log_doc(&mut self, shard: usize, record: &[u8], index: &CorpusIndex) -> io::Result<()> {
        let log = &mut self.shards[shard];
        log.wal.write_record(record)?;
        log.tail_records += 1;
        if log.tail_records >= self.compact_min.max(log.snapshot_docs) {
            self.compact(shard, index)?;
        }
        Ok(())
    }

    /// Rewrites `shard`'s snapshot from the in-memory index and empties
    /// its tail. The snapshot write is atomic (temp + rename), so a
    /// crash during compaction leaves the previous snapshot + full tail
    /// intact.
    fn compact(&mut self, shard: usize, index: &CorpusIndex) -> io::Result<()> {
        let mut buf = Vec::new();
        for doc in index.docs() {
            append_record(&mut buf, &doc_to_record(doc));
        }
        write_file_atomic(&snapshot_path(&self.dir, shard), &buf)?;
        // Only once the snapshot durably covers every document may the
        // tail be discarded.
        let log = &mut self.shards[shard];
        log.wal = WalWriter::create(&wal_path(&self.dir, shard), self.sync_every)?;
        log.snapshot_docs = index.len();
        log.tail_records = 0;
        Ok(())
    }

    /// Forces every shard's batched appends to stable storage.
    pub fn sync_to_disk(&mut self) -> io::Result<()> {
        for log in &mut self.shards {
            log.wal.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_schema::extract_paths;
    use webre_xml::parse_xml;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "webre-persist-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &Path, shards: usize, compact_min: usize) -> StoreConfig {
        StoreConfig {
            data_dir: dir.to_path_buf(),
            shards,
            sync_every: 2,
            compact_min,
        }
    }

    fn ingest(store: &mut CorpusStore, corpus: &mut ShardedCorpus, hash: u64, xml: &str) {
        let doc = extract_paths(&parse_xml(xml).unwrap());
        let record = doc_to_record(&doc);
        let shard = corpus.shard_of(hash);
        corpus.push_to(shard, doc);
        store
            .log_doc(shard, &record, &corpus.shards()[shard])
            .unwrap();
    }

    #[test]
    fn replay_restores_exactly_what_was_logged() {
        let dir = temp_dir("replay");
        let cfg = config(&dir, 3, 1024);
        let (mut store, mut corpus, report) = CorpusStore::open(&cfg).unwrap();
        assert_eq!(report.docs, 0);
        assert!(report.warnings.is_empty());
        for i in 0..20u64 {
            ingest(&mut store, &mut corpus, i, "<r><a/><b><c/></b></r>");
        }
        store.sync_to_disk().unwrap();
        drop(store);
        let (_, restored, report) = CorpusStore::open(&cfg).unwrap();
        assert_eq!(report.docs, 20);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert_eq!(restored.len(), corpus.len());
        assert_eq!(restored.table(), corpus.table());
        // Shard layout survives too, not just the union.
        for (a, b) in restored.shards().iter().zip(corpus.shards()) {
            assert!(a.docs().eq(b.docs()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_the_corpus_and_shrinks_the_tail() {
        let dir = temp_dir("compact");
        let cfg = config(&dir, 1, 4);
        let (mut store, mut corpus, _) = CorpusStore::open(&cfg).unwrap();
        for i in 0..50u64 {
            ingest(&mut store, &mut corpus, i, "<r><x/><y/></r>");
        }
        // With compact_min 4 and a geometric policy, the tail must stay
        // well below the total (compactions clearly happened).
        assert!(store.shards[0].snapshot_docs >= 4);
        assert!(store.shards[0].tail_records < 50);
        store.sync_to_disk().unwrap();
        drop(store);
        let (_, restored, report) = CorpusStore::open(&cfg).unwrap();
        assert_eq!(report.docs, 50);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert_eq!(restored.table(), corpus.table());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The compaction property a snapshot built by concatenating log
    /// bytes relies on: re-encoding the shard writes exactly the frames
    /// it was logged, in log order.
    #[test]
    fn compacted_snapshot_is_every_logged_frame_in_order() {
        let dir = temp_dir("frames");
        let shards = 3;
        let cfg = config(&dir, shards, 4);
        let (mut store, mut corpus, _) = CorpusStore::open(&cfg).unwrap();
        let mut logged: Vec<Vec<Vec<u8>>> = vec![Vec::new(); shards];
        for i in 0..90u64 {
            // Distinct shapes, with some repeats so interning is exercised.
            let xml = format!(
                "<r>{}<b><c/>{}</b></r>",
                "<a/>".repeat((i % 7) as usize + 1),
                "<d/>".repeat((i % 5) as usize)
            );
            let doc = extract_paths(&parse_xml(&xml).unwrap());
            let record = doc_to_record(&doc);
            let shard = corpus.shard_of(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            corpus.push_to(shard, doc);
            store
                .log_doc(shard, &record, &corpus.shards()[shard])
                .unwrap();
            logged[shard].push(record);
        }
        store.sync_to_disk().unwrap();
        for (shard, records) in logged.iter().enumerate() {
            let snapshot_docs = store.shards[shard].snapshot_docs;
            // compact_min 4 with a geometric policy: 4, then 8, then 16 …
            assert!(
                snapshot_docs >= 8,
                "shard {shard} compacted fewer than twice"
            );
            let frames = |records: &[Vec<u8>]| {
                let mut buf = Vec::new();
                for record in records {
                    append_record(&mut buf, record);
                }
                buf
            };
            let snapshot = std::fs::read(snapshot_path(&dir, shard)).unwrap();
            assert!(
                snapshot == frames(&records[..snapshot_docs]),
                "shard {shard}: snapshot differs from its logged frames"
            );
            let tail = std::fs::read(wal_path(&dir, shard)).unwrap();
            assert!(
                tail == frames(&records[snapshot_docs..]),
                "shard {shard}: tail differs from the frames logged since"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_is_skipped_with_a_warning_and_truncated() {
        let dir = temp_dir("corrupt");
        let cfg = config(&dir, 1, 1024);
        let (mut store, mut corpus, _) = CorpusStore::open(&cfg).unwrap();
        for i in 0..5u64 {
            ingest(&mut store, &mut corpus, i, "<r><a/></r>");
        }
        store.sync_to_disk().unwrap();
        drop(store);
        // Tear the last record: chop a few bytes off the tail log.
        let path = wal_path(&dir, 0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut store, mut restored, report) = CorpusStore::open(&cfg).unwrap();
        assert_eq!(report.docs, 4, "torn final record costs exactly itself");
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(report.warnings[0].contains("torn"), "{:?}", report.warnings);
        // The corrupt suffix is gone: appending and replaying again must
        // yield 5 docs (4 recovered + 1 new), not resurrect garbage.
        ingest(&mut store, &mut restored, 99, "<r><b/></r>");
        store.sync_to_disk().unwrap();
        drop(store);
        let (_, again, report) = CorpusStore::open(&cfg).unwrap();
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert_eq!(again.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recorded_shard_count_beats_the_config() {
        let dir = temp_dir("meta");
        let (mut store, mut corpus, _) = CorpusStore::open(&config(&dir, 2, 1024)).unwrap();
        for i in 0..6u64 {
            ingest(&mut store, &mut corpus, i, "<r><a/></r>");
        }
        store.sync_to_disk().unwrap();
        drop(store);
        // Reopen asking for 5 shards; the directory says 2.
        let (store, restored, report) = CorpusStore::open(&config(&dir, 5, 1024)).unwrap();
        assert_eq!(store.shard_count(), 2);
        assert_eq!(restored.shard_count(), 2);
        assert_eq!(report.docs, 6);
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(report.warnings[0].contains("2 shard"), "{:?}", report.warnings);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
