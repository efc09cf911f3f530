//! Schema discovery: frequent paths, majority schema and DTD derivation
//! (Section 3 of the paper).
//!
//! A set of XML documents produced by the conversion process is reduced to
//! label paths ([`paths`]); paths frequent under a support threshold and a
//! support-ratio threshold form the *majority schema* ([`frequent`],
//! [`majority`]); ordering and repetition information is then recovered to
//! emit a DTD ([`dtd_rules`]).
//!
//! [`baselines`] provides the two classical alternatives the paper argues
//! against — the DataGuide upper-bound schema and the lower-bound schema —
//! and [`search_space`] reproduces the Section 4.2 constraint-pruning
//! experiment.

pub mod baselines;
pub mod codec;
pub mod dtd_rules;
pub mod frequent;
pub mod incremental;
pub mod majority;
pub mod paths;
pub mod search_space;
pub mod sharded;

pub use codec::{doc_from_record, doc_to_record};
pub use dtd_rules::{derive_dtd, derive_dtd_from, DtdConfig, DtdView};
pub use frequent::{CorpusView, FrequentPathMiner, MiningOutcome};
pub use incremental::CorpusIndex;
pub use majority::{MajoritySchema, SchemaNode};
pub use paths::{average_position, doc_frequency, extract_paths, DocPaths, LabelPath, PathEntry};
pub use sharded::{PathStats, PathTable, ShardedCorpus};
