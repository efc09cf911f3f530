//! Write-ahead-log file format helpers: length-prefixed, checksummed
//! records with a torn-tail-tolerant decoder and an fsync-batching
//! appender.
//!
//! The serving layer persists its live corpus as an append-only log of
//! records (one per accreted document) plus periodic snapshot files that
//! use the *same* framing (a snapshot is just a compacted log). This
//! module owns only the byte-level format so it can be property-tested
//! in isolation and reused by any future durable state:
//!
//! ```text
//! record := len:u32le checksum:u64le payload:[len bytes]
//! log    := record*  (possibly followed by a torn tail)
//! ```
//!
//! The checksum is FNV-1a over the payload. A decoder encountering a
//! truncated header, truncated payload, oversized length, or checksum
//! mismatch stops there and reports the corruption alongside every
//! record that decoded cleanly before it — a crash mid-append must never
//! take down replay, only cost the half-written suffix.
//!
//! Durability policy lives in [`WalWriter`]: every append reaches the
//! file descriptor immediately (surviving a process crash), while
//! `fsync` runs only once per `sync_every` appends (batching the
//! machine-crash guarantee so ingest throughput is not bounded by disk
//! flush latency). Callers issue a final [`WalWriter::sync`] on graceful
//! shutdown.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Bytes of framing before each payload (`u32` length + `u64` checksum).
pub const HEADER_LEN: usize = 4 + 8;

/// Upper bound a decoder will believe for a record length. Anything
/// larger is treated as corruption rather than attempted as an
/// allocation: no legitimate corpus record approaches this.
pub const MAX_RECORD_LEN: usize = 256 << 20;

/// FNV-1a over arbitrary bytes — the record checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write(bytes);
    hash.finish()
}

/// [`checksum`] fed in pieces: the hash of everything written, as one
/// byte string. As a [`std::fmt::Write`] it hashes text as it is
/// formatted, without a buffer.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Hashes `bytes` after everything written so far.
    pub fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Appends one framed record to `out`.
pub fn append_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One framed record as a standalone byte vector.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    append_record(&mut out, payload);
    out
}

/// Why decoding stopped before the end of the buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Fewer than [`HEADER_LEN`] bytes remain at `offset`.
    TruncatedHeader { offset: usize },
    /// The header promises more payload than the buffer holds.
    TruncatedPayload {
        offset: usize,
        expected: usize,
        available: usize,
    },
    /// The length field exceeds [`MAX_RECORD_LEN`].
    OversizedLength { offset: usize, length: usize },
    /// The payload does not hash to the stored checksum.
    ChecksumMismatch { offset: usize },
}

impl Corruption {
    /// Byte offset of the first record that failed to decode; everything
    /// before it is intact.
    pub fn offset(&self) -> usize {
        match self {
            Corruption::TruncatedHeader { offset }
            | Corruption::TruncatedPayload { offset, .. }
            | Corruption::OversizedLength { offset, .. }
            | Corruption::ChecksumMismatch { offset } => *offset,
        }
    }
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Corruption::TruncatedHeader { offset } => {
                write!(f, "torn record header at byte {offset}")
            }
            Corruption::TruncatedPayload {
                offset,
                expected,
                available,
            } => write!(
                f,
                "torn record payload at byte {offset}: header promises {expected} bytes, {available} present"
            ),
            Corruption::OversizedLength { offset, length } => write!(
                f,
                "implausible record length {length} at byte {offset} (max {MAX_RECORD_LEN})"
            ),
            Corruption::ChecksumMismatch { offset } => {
                write!(f, "checksum mismatch in record at byte {offset}")
            }
        }
    }
}

/// The result of decoding a log buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct Decoded<'a> {
    /// Every record that decoded cleanly, in log order.
    pub records: Vec<&'a [u8]>,
    /// The corruption that stopped decoding, or `None` when the buffer
    /// ends exactly on a record boundary.
    pub corruption: Option<Corruption>,
    /// Length of the intact prefix (the offset a writer may safely
    /// truncate to before appending fresh records).
    pub clean_len: usize,
}

/// Decodes a log buffer into records, stopping at the first sign of
/// corruption. Never panics, never allocates beyond the record list.
pub fn decode_records(bytes: &[u8]) -> Decoded<'_> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < HEADER_LEN {
            return Decoded {
                records,
                corruption: Some(Corruption::TruncatedHeader { offset }),
                clean_len: offset,
            };
        }
        let len_bytes: [u8; 4] = bytes[offset..offset + 4].try_into().expect("4-byte slice");
        let length = u32::from_le_bytes(len_bytes) as usize;
        if length > MAX_RECORD_LEN {
            return Decoded {
                records,
                corruption: Some(Corruption::OversizedLength { offset, length }),
                clean_len: offset,
            };
        }
        if remaining < HEADER_LEN + length {
            return Decoded {
                records,
                corruption: Some(Corruption::TruncatedPayload {
                    offset,
                    expected: length,
                    available: remaining - HEADER_LEN,
                }),
                clean_len: offset,
            };
        }
        let sum_bytes: [u8; 8] = bytes[offset + 4..offset + 12]
            .try_into()
            .expect("8-byte slice");
        let stored = u64::from_le_bytes(sum_bytes);
        let payload = &bytes[offset + HEADER_LEN..offset + HEADER_LEN + length];
        if checksum(payload) != stored {
            return Decoded {
                records,
                corruption: Some(Corruption::ChecksumMismatch { offset }),
                clean_len: offset,
            };
        }
        records.push(payload);
        offset += HEADER_LEN + length;
    }
    Decoded {
        records,
        corruption: None,
        clean_len: offset,
    }
}

/// An appender with batched fsync.
///
/// Appends write through to the OS immediately — a process crash loses
/// nothing already appended — while `File::sync_data` runs once per
/// `sync_every` appends, bounding what a *machine* crash can lose to the
/// current batch. `sync_every == 1` degrades to fsync-per-record.
pub struct WalWriter {
    file: File,
    sync_every: usize,
    unsynced: usize,
    records: u64,
}

impl WalWriter {
    /// Opens `path` for appending (creating it if absent) with the given
    /// fsync batch size.
    pub fn open_append(path: &Path, sync_every: usize) -> io::Result<WalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(WalWriter {
            file,
            sync_every: sync_every.max(1),
            unsynced: 0,
            records: 0,
        })
    }

    /// Creates (truncating) `path` with the given fsync batch size.
    pub fn create(path: &Path, sync_every: usize) -> io::Result<WalWriter> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(WalWriter {
            file,
            sync_every: sync_every.max(1),
            unsynced: 0,
            records: 0,
        })
    }

    /// Appends one record. Returns whether this append triggered a batch
    /// fsync. (Named `write_record`, not `append`, so the in-tree lint's
    /// name-based Result resolution does not collide with the arena
    /// tree's non-Result `append`.)
    pub fn write_record(&mut self, payload: &[u8]) -> io::Result<bool> {
        self.file.write_all(&encode_record(payload))?;
        self.records += 1;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Forces any batched appends to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Records appended through this writer (excludes pre-existing file
    /// content).
    pub fn records_appended(&self) -> u64 {
        self.records
    }
}

/// Writes `bytes` to `path` atomically: a sibling temp file is written,
/// fsynced, and renamed over the destination, so readers see either the
/// old content or the new — never a torn file. The parent directory is
/// fsynced afterwards so the rename itself survives a crash.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_owned());
    name.push_str(".tmp");
    let tmp = parent.join(name);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename. Directory fsync is advisory on some platforms;
    // a failure after a successful rename leaves the data correct.
    // webre::allow(dropped-result): rename already happened; dir sync is best-effort hardening
    let _ = File::open(parent).and_then(|d| d.sync_all());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log(payloads: &[&[u8]]) -> Vec<u8> {
        let mut log = Vec::new();
        for p in payloads {
            append_record(&mut log, p);
        }
        log
    }

    #[test]
    fn round_trips_records() {
        let payloads: Vec<&[u8]> = vec![b"", b"a", b"hello world", &[0u8, 255, 7]];
        let log = sample_log(&payloads);
        let decoded = decode_records(&log);
        assert_eq!(decoded.records, payloads);
        assert_eq!(decoded.corruption, None);
        assert_eq!(decoded.clean_len, log.len());
    }

    #[test]
    fn empty_log_decodes_to_nothing() {
        let decoded = decode_records(&[]);
        assert!(decoded.records.is_empty());
        assert_eq!(decoded.corruption, None);
        assert_eq!(decoded.clean_len, 0);
    }

    #[test]
    fn every_truncation_point_yields_an_intact_prefix() {
        // For any prefix of a valid log, decoding returns exactly the
        // records that fit entirely inside the prefix, and classifies
        // the cut as a torn header/payload (never a panic, never a
        // bogus record).
        let payloads: Vec<&[u8]> = vec![b"first", b"second record", b"", b"tail"];
        let log = sample_log(&payloads);
        // Record boundaries.
        let mut boundaries = vec![0usize];
        for p in &payloads {
            boundaries.push(boundaries.last().unwrap() + HEADER_LEN + p.len());
        }
        for cut in 0..=log.len() {
            let decoded = decode_records(&log[..cut]);
            let complete = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(
                decoded.records.len(),
                complete,
                "cut at byte {cut}: wrong record count"
            );
            assert_eq!(decoded.records, &payloads[..complete]);
            assert_eq!(decoded.clean_len, boundaries[complete]);
            if boundaries.contains(&cut) {
                assert_eq!(decoded.corruption, None, "cut at boundary {cut}");
            } else {
                let corruption = decoded.corruption.expect("mid-record cut must report");
                assert_eq!(corruption.offset(), boundaries[complete]);
            }
        }
    }

    #[test]
    fn flipped_byte_is_a_checksum_mismatch() {
        let payloads: Vec<&[u8]> = vec![b"alpha", b"beta", b"gamma"];
        let log = sample_log(&payloads);
        // Flip one payload byte of the middle record.
        let middle_payload_at = (HEADER_LEN + 5) + HEADER_LEN;
        let mut bad = log.clone();
        bad[middle_payload_at] ^= 0x40;
        let decoded = decode_records(&bad);
        assert_eq!(decoded.records, &payloads[..1]);
        assert_eq!(
            decoded.corruption,
            Some(Corruption::ChecksumMismatch {
                offset: HEADER_LEN + 5
            })
        );
    }

    #[test]
    fn absurd_length_is_rejected_without_allocating() {
        let mut log = Vec::new();
        log.extend_from_slice(&(u32::MAX).to_le_bytes());
        log.extend_from_slice(&0u64.to_le_bytes());
        log.extend_from_slice(b"garbage");
        let decoded = decode_records(&log);
        assert!(decoded.records.is_empty());
        assert!(matches!(
            decoded.corruption,
            Some(Corruption::OversizedLength { offset: 0, .. })
        ));
    }

    #[test]
    fn writer_appends_and_batches_fsync() {
        let dir = std::env::temp_dir().join(format!("webre-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let mut writer = WalWriter::create(&path, 3).unwrap();
        let mut synced = 0;
        for i in 0..7u32 {
            if writer.write_record(format!("record-{i}").as_bytes()).unwrap() {
                synced += 1;
            }
        }
        assert_eq!(synced, 2, "batch size 3 over 7 appends fsyncs twice");
        assert_eq!(writer.records_appended(), 7);
        writer.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let decoded = decode_records(&bytes);
        assert_eq!(decoded.records.len(), 7);
        assert_eq!(decoded.records[6], b"record-6");
        assert_eq!(decoded.corruption, None);
        // Reopening for append continues the same log.
        let mut writer = WalWriter::open_append(&path, 1).unwrap();
        writer.write_record(b"after-reopen").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(decode_records(&bytes).records.len(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = std::env::temp_dir().join(format!("webre-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        write_file_atomic(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        write_file_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        // No temp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
