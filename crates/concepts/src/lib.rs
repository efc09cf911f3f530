//! Topic concepts, concept instances and concept constraints.
//!
//! Section 2.2 of the paper: the only mandatory user input to document
//! conversion is a set of *topic concepts*; each concept carries *concept
//! instances* (text patterns/keywords, always including the concept name
//! itself). Optional *concept constraints* — `parent(c1, c2)`,
//! `sibling(c1, c2)`, `depth(c) ⊙ d`, all negatable — describe how concepts
//! can be structured and are used to prune the schema-discovery search
//! space (Section 4.2).
//!
//! * [`concept`] — [`Concept`], [`ConceptSet`] and roles (title vs content
//!   names, Section 4.2's split);
//! * [`matcher`] — position-aware instance matching inside tokens, the
//!   engine of the concept instance rule (including the multi-instance
//!   decomposition case);
//! * [`automaton`] — the Aho–Corasick fast path: the whole catalogue
//!   compiled once into a byte-level DFA, match-equivalent to [`matcher`]
//!   (enforced by the `matcher-vs-naive` oracle);
//! * [`constraints`] — the constraint algebra and path admission checks;
//! * [`discovery`] — automatic extraction of new concept instances from
//!   labeled tokens (the paper's Section 5 future work);
//! * [`resume`] — the built-in resume domain used by the experiments:
//!   24 concepts, 233 instances, 11 title names and 13 content names,
//!   mirroring the paper's setup.

pub mod automaton;
pub mod concept;
pub mod constraints;
pub mod discovery;
pub mod matcher;
pub mod resume;

pub use automaton::{ConceptMatcher, MatchScratch};
pub use concept::{Concept, ConceptRole, ConceptSet, Domain};
pub use constraints::{Comparator, Constraint, ConstraintSet};
pub use matcher::{find_matches, ConceptMatch};
