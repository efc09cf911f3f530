//! `webre-substrate` — the std-only substrate under the whole workspace.
//!
//! The build environment for this repository is hermetic: no crate may be
//! fetched from a registry. This crate provides deterministic, in-tree
//! replacements for the handful of external libraries the workspace used
//! to depend on:
//!
//! * [`rand`] — a seedable PRNG (SplitMix64 seeding a Xoshiro256\*\*
//!   generator) with the `rand`-crate surface the corpus generator uses
//!   (`gen_range`, `gen_bool`, `choose`, `choose_multiple`, `shuffle`);
//! * [`json`] — a minimal JSON value type with parser and (pretty)
//!   serializer plus `ToJson`/`FromJson` traits and derive-like macros,
//!   replacing `serde`/`serde_json`;
//! * [`prop`] — a deterministic property-testing harness (seeded case
//!   generation, shrinking-lite by size scaling, failure-seed reporting),
//!   replacing `proptest`;
//! * [`bench`] — a monotonic-clock micro-benchmark harness with a
//!   criterion-shaped API that prints median/p95 per iteration and emits
//!   JSON-lines records, replacing `criterion`;
//! * [`sync`] — a bounded MPMC channel (mutex + condvar) with
//!   non-blocking `try_send`, the backpressure primitive under the
//!   `webre-serve` job queue, replacing `crossbeam-channel`;
//! * [`http`] — a minimal HTTP/1.1 codec (no chunked encoding, no TLS),
//!   replacing `httparse`/`hyper`-class dependencies: an incremental
//!   [`http::RequestParser`] that the readiness-driven serve core feeds
//!   byte ranges as they arrive, its client-side mirror
//!   [`http::ResponseParser`], and [`http::Client`], the one blocking
//!   client every well-formed exchange in the workspace goes through;
//! * [`poll`] — a readiness-polling abstraction (level-triggered `epoll`
//!   on Linux via direct syscalls, a portable sweep fallback elsewhere)
//!   that multiplexes thousands of non-blocking sockets on one thread,
//!   replacing `mio`;
//! * [`wal`] — length-prefixed, checksummed record framing with a
//!   torn-tail-tolerant decoder and an fsync-batching appender, the file
//!   format under the durable corpus;
//! * [`ring`] — a consistent-hash ring with virtual nodes, routing
//!   content hashes across corpus shards and server instances.
//!
//! Everything in here is `std`-only and deterministic under a fixed seed;
//! there is no ambient entropy anywhere (the bench harness reads the clock,
//! but only to *measure*, never to *decide*).

pub mod bench;
pub mod http;
pub mod json;
pub mod poll;
pub mod prop;
pub mod rand;
pub mod ring;
pub mod sync;
pub mod wal;
