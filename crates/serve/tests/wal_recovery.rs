//! Crash-recovery property tests for the durable corpus store.
//!
//! The contract under test: for ANY prefix of a shard's write-ahead log
//! — including a torn final record — and for any single corrupted byte,
//! reopening the store never panics and yields exactly the corpus that
//! was live when the last intact record was appended. A corrupt suffix
//! is skipped with a warning and truncated away, so subsequent appends
//! replay cleanly.

use std::path::{Path, PathBuf};
use webre_serve::persist::{CorpusStore, StoreConfig};
use webre_schema::{doc_to_record, extract_paths, DocPaths, PathTable, ShardedCorpus};
use webre_xml::parse_xml;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webre-walrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> StoreConfig {
    StoreConfig {
        data_dir: dir.to_path_buf(),
        shards: 1,
        sync_every: 1,
        // Never compact: the whole history stays in the tail log, so
        // prefixes of the file are exactly prefixes of the ingest.
        compact_min: usize::MAX,
    }
}

fn docs() -> Vec<DocPaths> {
    [
        "<resume><education><degree/></education></resume>",
        "<resume><education><degree/><degree/></education><contact/></resume>",
        "<resume><skills/></resume>",
        "<resume><education/><skills><skill/><skill/></skills></resume>",
        "<resume><contact/><contact/></resume>",
        "<resume><objective/><education><degree><date/></degree></education></resume>",
    ]
    .iter()
    .map(|xml| extract_paths(&parse_xml(xml).unwrap()))
    .collect()
}

/// Ingests `docs` through a store in `dir` and returns the WAL bytes.
fn build_log(dir: &Path, docs: &[DocPaths]) -> Vec<u8> {
    let (mut store, mut corpus, _) = CorpusStore::open(&config(dir)).unwrap();
    for doc in docs {
        let record = doc_to_record(doc);
        corpus.push_to(0, doc);
        store.log_doc(0, &record, &corpus.shards()[0]).unwrap();
    }
    store.sync_to_disk().unwrap();
    std::fs::read(dir.join("shard-0.wal")).unwrap()
}

/// Expected corpus after the first `n` documents.
fn prefix_table(docs: &[DocPaths], n: usize) -> PathTable {
    PathTable::from_docs(&docs[..n])
}

/// Reopens the store over a log image and returns (corpus, warnings).
fn recover(dir: &Path, wal_bytes: &[u8]) -> (ShardedCorpus, Vec<String>) {
    std::fs::write(dir.join("shard-0.wal"), wal_bytes).unwrap();
    let (_, corpus, report) = CorpusStore::open(&config(dir)).unwrap();
    (corpus, report.warnings)
}

#[test]
fn every_log_prefix_recovers_the_corpus_at_that_point() {
    let dir = temp_dir("prefix");
    let docs = docs();
    let log = build_log(&dir, &docs);
    // Record boundaries: scanning the intact log gives us, for each byte
    // count, how many whole records fit.
    let mut boundaries = vec![0usize];
    {
        let decoded = webre_substrate::wal::decode_records(&log);
        assert_eq!(decoded.records.len(), docs.len());
        let mut offset = 0usize;
        for record in &decoded.records {
            offset += webre_substrate::wal::HEADER_LEN + record.len();
            boundaries.push(offset);
        }
    }
    for cut in 0..=log.len() {
        let complete = boundaries.iter().filter(|b| **b <= cut).count() - 1;
        let (corpus, warnings) = recover(&dir, &log[..cut]);
        assert_eq!(
            corpus.len(),
            complete,
            "cut at byte {cut}: wrong doc count"
        );
        assert_eq!(
            corpus.table(),
            prefix_table(&docs, complete),
            "cut at byte {cut}: recovered corpus diverges from the live corpus at that point"
        );
        let torn = !boundaries.contains(&cut);
        assert_eq!(
            !warnings.is_empty(),
            torn,
            "cut at byte {cut}: torn tails (and only torn tails) must warn: {warnings:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_checksum_drops_the_suffix_not_the_store() {
    let dir = temp_dir("flip");
    let docs = docs();
    let log = build_log(&dir, &docs);
    let boundaries: Vec<usize> = {
        let decoded = webre_substrate::wal::decode_records(&log);
        let mut offsets = vec![0usize];
        for record in &decoded.records {
            offsets.push(offsets.last().unwrap() + webre_substrate::wal::HEADER_LEN + record.len());
        }
        offsets
    };
    // Flip one payload byte inside each record in turn: recovery keeps
    // exactly the records before the flipped one.
    for (i, window) in boundaries.windows(2).enumerate() {
        let mut bad = log.clone();
        let payload_at = window[0] + webre_substrate::wal::HEADER_LEN;
        assert!(payload_at < window[1]);
        bad[payload_at] ^= 0x01;
        let (corpus, warnings) = recover(&dir, &bad);
        assert_eq!(corpus.len(), i, "flip in record {i}");
        assert_eq!(corpus.table(), prefix_table(&docs, i), "flip in record {i}");
        assert_eq!(warnings.len(), 1, "flip in record {i}: {warnings:?}");
        assert!(
            warnings[0].contains("checksum"),
            "flip in record {i}: {warnings:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn appending_after_recovery_continues_from_the_intact_prefix() {
    let dir = temp_dir("append");
    let docs = docs();
    let log = build_log(&dir, &docs);
    // Tear the log mid-way through the last record.
    std::fs::write(dir.join("shard-0.wal"), &log[..log.len() - 2]).unwrap();
    let (mut store, mut corpus, report) = CorpusStore::open(&config(&dir)).unwrap();
    assert_eq!(corpus.len(), docs.len() - 1);
    assert_eq!(report.warnings.len(), 1);
    // The torn suffix was truncated; a fresh append must be replayable.
    let extra = extract_paths(&parse_xml("<resume><awards/></resume>").unwrap());
    let record = doc_to_record(&extra);
    corpus.push_to(0, &extra);
    store.log_doc(0, &record, &corpus.shards()[0]).unwrap();
    store.sync_to_disk().unwrap();
    drop(store);
    let (_, recovered, report) = CorpusStore::open(&config(&dir)).unwrap();
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    assert_eq!(recovered.len(), docs.len());
    let mut expected: Vec<DocPaths> = docs[..docs.len() - 1].to_vec();
    expected.push(extra);
    assert_eq!(recovered.table(), PathTable::from_docs(&expected));
    std::fs::remove_dir_all(&dir).unwrap();
}
