//! Document mapping: converting non-conforming XML documents so that they
//! conform to the majority DTD.
//!
//! The paper's Quixote prototype includes a Document Mapping Component
//! (described in the companion thesis, [13] in the paper) that "converts
//! non-conforming XML documents using a tree-edit distance algorithm so
//! that they eventually conform to the derived DTD and can easily be
//! integrated into an XML document repository". The paper's headline claim
//! for the majority schema is precisely that such conversion is only
//! reasonable against a majority schema — a DataGuide or lower-bound schema
//! would not suffice.
//!
//! * [`edit_script`](mod@edit_script) — the classical unit-cost ordered tree-edit distance
//!   (insert, delete, relabel; Zhang & Shasha 1989) and the optimal edit
//!   script (match / relabel / delete / insert per node) backtracked from
//!   the same dynamic program;
//! * `mapper` — the schema-guided transformation that edits a document
//!   into DTD conformance (relocating, demoting, inserting and reordering
//!   elements) and counts each kind of edit;
//! * [`filter`] — admissible lower bounds on the edit distance (label
//!   histogram + leaf/depth invariants) cheap enough to run on every
//!   document;
//! * [`planner`] — the one entry point, [`MapPlanner::plan`]: the tiered
//!   planner (conformant / rejected / exact) that runs the transform and
//!   short-circuits the quadratic dynamic program whenever the filter
//!   already decides the outcome, plus the shared JSON rendering used by
//!   `POST /map`, `webre map --json` and the `map-vs-batch` oracle.
//!
//! The reference the edit-script DP is tested against lives on the check
//! side, as `webre_check::reference::ref_tree_distance`.

pub mod edit_script;
pub mod filter;
mod mapper;
pub mod planner;

pub use edit_script::{edit_script, EditOp};
pub use filter::{lower_bound, TreeProfile};
pub use planner::{canonical_sort, render_json, MapPlanner, MapTier, PlannedMap};
