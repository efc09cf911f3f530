//! HTML substrate for the `webre` workspace.
//!
//! The paper consumes "legacy" HTML gathered by a topic crawler: tag soup
//! written by many different authors, marked up for visual rendering only.
//! This crate provides everything the document conversion process needs from
//! the HTML side:
//!
//! * [`lexer`] — a tokenizer producing start/end tags, text, comments and
//!   doctypes, with entity decoding and RAWTEXT handling for
//!   `<script>`/`<style>`.
//! * [`parser`] — a forgiving tag-soup parser building an ordered
//!   [`webre_tree::Tree`] of [`HtmlNode`]s: implied end tags (`<p>`, `<li>`,
//!   table cells, …), void elements, stray end tags.
//! * [`taxonomy`] — the element classification the restructuring rules rely
//!   on: block-level vs text-level elements, the paper's *group tags* with
//!   their priorities, and its *list tags*.
//! * [`tidy`] — an HTML-Tidy-like cleanup pass (drop comments/scripts,
//!   normalize whitespace, repair heading nesting) that the paper reports
//!   improves extraction accuracy.
//! * [`serialize`] — render a tree back to HTML text.
//!
//! # Example
//!
//! ```
//! use webre_html::parse;
//!
//! let doc = parse("<ul><li>B.S. <b>Computer Science</b><li>GPA 3.8</ul>");
//! let root = doc.tree.root();
//! // Both <li> elements were closed implicitly.
//! let ul = doc.tree.first_child(root).unwrap();
//! assert_eq!(doc.tree.children(ul).count(), 2);
//! ```

pub mod entities;
pub mod lexer;
pub mod node;
pub mod parser;
pub mod serialize;
pub mod taxonomy;
pub mod tidy;

pub use node::{Attribute, HtmlDocument, HtmlNode};
pub use parser::parse;
pub use serialize::to_html;
pub use taxonomy::{ElementClass, KnownTag, Tag};
pub use tidy::tidy;
