//! Reduction of XML documents to label paths (Section 3.2).
//!
//! An XML document's schematic structure is an ordered tree; the paper
//! reduces it to the *set* of label paths emanating from the root ("two
//! different node paths can have the same label path", and using a set
//! keeps the discovery from being biased toward multiple occurrences of the
//! same path in a few documents). Alongside the path set, cheap pieces of
//! bookkeeping are recorded during the same walk:
//!
//! * the **multiplicity** `⟨p, num⟩` of sibling nodes of the same type, fed
//!   to the repetition rule of Section 3.3;
//! * the **sibling position** of each node, fed to the ordering rule;
//! * the **child label sequence** of each non-leaf node, fed to the
//!   group-pattern extension.
//!
//! A [`DocPaths`] holds all of it as one table with one [`PathEntry`] per
//! distinct label path, sorted by path, so every record of a path shares
//! its single key; a child sequence names each child by its entry's
//! index instead of a copy of its label. [`extract_paths`] builds the
//! table in one linear walk: each element's children are listed once (a
//! child's position is its index among them, its multiplicity its
//! label's count among them), and a path is cloned only the first time
//! the walk reaches it.

use std::collections::HashMap;
use webre_tree::NodeId;
use webre_xml::{XmlDocument, XmlNode};

/// A label path from the document root: `["resume", "education", "degree"]`.
pub type LabelPath = Vec<String>;

/// Everything one document records for one distinct label path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathEntry {
    /// The label path.
    pub path: LabelPath,
    /// `⟨p, num⟩`: the maximum number of same-label siblings observed for
    /// a node ending this path (0 when none was recorded).
    pub multiplicity: u32,
    /// Sum of the 0-based sibling positions of the path's nodes (for
    /// averaging in the ordering rule).
    pub pos_sum: f64,
    /// Number of nodes the positions were taken over.
    pub pos_count: u64,
    /// The element-child sequences of each non-leaf node ending this
    /// path, in document order, each child given as the index of its own
    /// entry in [`DocPaths::entries`] (see [`DocPaths::label_sequences`])
    /// — the raw material for discovering repetitive group patterns like
    /// `(degree, date)+` (the paper's XTRACT-style extension at the end
    /// of Section 3.3).
    pub child_sequences: Vec<Vec<u32>>,
}

/// The path-level view of one XML document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DocPaths {
    /// The root element label.
    pub root_label: String,
    /// One entry per label path occurring in the document (each node
    /// contributes the path from the root to itself, so the set covers
    /// all prefixes), strictly ascending by path.
    entries: Vec<PathEntry>,
    /// Total element nodes in the document.
    pub node_count: usize,
}

impl DocPaths {
    /// A document from entries in any order whose child sequences are
    /// given by label. `Err` describes a path listed twice or a child
    /// label naming no entry.
    pub(crate) fn from_labelled(
        root_label: String,
        node_count: usize,
        mut items: Vec<(PathEntry, Vec<Vec<String>>)>,
    ) -> Result<Self, String> {
        items.sort_unstable_by(|a, b| a.0.path.cmp(&b.0.path));
        if let Some(w) = items.windows(2).find(|w| w[0].0.path == w[1].0.path) {
            return Err(format!("path {:?} is listed twice", w[0].0.path));
        }
        let (mut entries, labelled): (Vec<PathEntry>, Vec<_>) = items.into_iter().unzip();
        for (i, sequences) in labelled.iter().enumerate() {
            let mut resolved = Vec::with_capacity(sequences.len());
            for sequence in sequences {
                let parent = &entries[i].path;
                let child = |label: &String| {
                    entries
                        .binary_search_by(|e| {
                            e.path
                                .iter()
                                .cmp(parent.iter().chain(std::iter::once(label)))
                        })
                        .map(|j| j as u32)
                        .map_err(|_| format!("child {label:?} of {parent:?} has no path entry"))
                };
                resolved.push(
                    sequence
                        .iter()
                        .map(child)
                        .collect::<Result<Vec<u32>, _>>()?,
                );
            }
            entries[i].child_sequences = resolved;
        }
        Ok(DocPaths {
            root_label,
            entries,
            node_count,
        })
    }

    /// The entries, ascending by path.
    pub fn entries(&self) -> &[PathEntry] {
        &self.entries
    }

    /// The entry of a label path, if the document contains it.
    pub fn entry(&self, path: &[String]) -> Option<&PathEntry> {
        self.entries
            .binary_search_by(|e| e.path.as_slice().cmp(path))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// The last label of the entry at `index`: how a child sequence
    /// names a child.
    pub fn label_at(&self, index: u32) -> &str {
        self.entries[index as usize]
            .path
            .last()
            .expect("paths are non-empty")
    }

    /// An entry's child sequences with each child as its label.
    pub fn label_sequences<'a>(
        &'a self,
        entry: &'a PathEntry,
    ) -> impl Iterator<Item = Vec<String>> + 'a {
        entry.child_sequences.iter().map(|sequence| {
            sequence
                .iter()
                .map(|&c| self.label_at(c).to_owned())
                .collect()
        })
    }

    /// Every label path of the document, ascending.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = &LabelPath> + '_ {
        self.entries.iter().map(|e| &e.path)
    }

    /// Whether the document contains the given label path.
    pub fn contains(&self, path: &[String]) -> bool {
        self.entry(path).is_some()
    }

    /// The recorded multiplicity for a label path (0 if the document
    /// lacks it).
    pub fn multiplicity_of(&self, path: &[String]) -> u32 {
        self.entry(path).map_or(0, |e| e.multiplicity)
    }

    /// Maximum path length (nodes on the longest root path).
    pub fn max_depth(&self) -> usize {
        self.paths().map(Vec::len).max().unwrap_or(0)
    }
}

/// Extracts the path-level view of a document in a single linear walk.
pub fn extract_paths(doc: &XmlDocument) -> DocPaths {
    let root_label = doc.root_name().to_owned();
    let root = doc.root();
    if !matches!(doc.tree.value(root), XmlNode::Element { .. }) {
        return DocPaths {
            root_label,
            ..DocPaths::default()
        };
    }
    let mut entries = vec![PathEntry {
        path: vec![root_label.clone()],
        multiplicity: 1,
        pos_sum: 0.0,
        pos_count: 1,
        child_sequences: Vec::new(),
    }];
    // (parent entry, child label) → child entry; labels borrow the document.
    let mut index: HashMap<(u32, &str), u32> = HashMap::new();
    // Same-label sibling counts of the element being visited, by entry;
    // each is taken back to 0 as soon as it is read.
    let mut tally: Vec<u32> = vec![0];
    // The element children of the element being visited, with their entries.
    let mut kids: Vec<(NodeId, u32)> = Vec::new();
    // Pre-order walk, so child sequences keep document order.
    let mut stack: Vec<(NodeId, u32)> = vec![(root, 0)];
    let mut node_count = 0;
    while let Some((id, at)) = stack.pop() {
        node_count += 1;
        kids.clear();
        for child in doc.tree.children(id) {
            let XmlNode::Element { name, .. } = doc.tree.value(child) else {
                continue;
            };
            let fresh = u32::try_from(entries.len()).expect("fewer than 2^32 paths");
            let entry = *index.entry((at, name.as_str())).or_insert(fresh);
            if entry == fresh {
                let parent = &entries[at as usize].path;
                let mut path = Vec::with_capacity(parent.len() + 1);
                path.extend_from_slice(parent);
                path.push(name.clone());
                entries.push(PathEntry {
                    path,
                    ..PathEntry::default()
                });
                tally.push(0);
            }
            tally[entry as usize] += 1;
            kids.push((child, entry));
        }
        if kids.is_empty() {
            continue;
        }
        let sequence = kids.iter().map(|&(_, entry)| entry).collect();
        entries[at as usize].child_sequences.push(sequence);
        for (position, &(_, entry)) in kids.iter().enumerate() {
            let e = &mut entries[entry as usize];
            e.multiplicity = e
                .multiplicity
                .max(std::mem::take(&mut tally[entry as usize]));
            e.pos_sum += position as f64;
            e.pos_count += 1;
        }
        stack.extend(kids.iter().rev());
    }
    // Sort by path, then renumber the children in every sequence.
    let mut order: Vec<u32> = (0..entries.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| entries[a as usize].path.cmp(&entries[b as usize].path));
    let mut rank = vec![0u32; order.len()];
    for (new, &old) in order.iter().enumerate() {
        rank[old as usize] = new as u32;
    }
    let mut sorted: Vec<PathEntry> = order
        .iter()
        .map(|&old| std::mem::take(&mut entries[old as usize]))
        .collect();
    for child in sorted
        .iter_mut()
        .flat_map(|e| e.child_sequences.iter_mut().flatten())
    {
        *child = rank[*child as usize];
    }
    DocPaths {
        root_label,
        entries: sorted,
        node_count,
    }
}

/// Average 0-based sibling position of a label path across a corpus,
/// considering only documents that contain the path. `None` if no document
/// contains it.
pub fn average_position(corpus: &[DocPaths], path: &[String]) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0u64;
    for entry in corpus.iter().filter_map(|doc| doc.entry(path)) {
        sum += entry.pos_sum;
        count += entry.pos_count;
    }
    (count > 0).then(|| sum / count as f64)
}

/// Number of documents in the corpus containing the label path.
pub fn doc_frequency(corpus: &[DocPaths], path: &[String]) -> usize {
    corpus.iter().filter(|d| d.contains(path)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_xml::parse_xml;

    fn doc(xml: &str) -> DocPaths {
        extract_paths(&parse_xml(xml).unwrap())
    }

    fn p(parts: &[&str]) -> LabelPath {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn collects_all_label_paths() {
        let d = doc("<resume><education><degree/><date/></education><contact/></resume>");
        assert_eq!(d.root_label, "resume");
        assert_eq!(d.node_count, 5);
        assert!(d.contains(&p(&["resume"])));
        assert!(d.contains(&p(&["resume", "education"])));
        assert!(d.contains(&p(&["resume", "education", "degree"])));
        assert!(d.contains(&p(&["resume", "contact"])));
        assert!(!d.contains(&p(&["resume", "degree"])));
        assert_eq!(d.paths().len(), 5);
        assert_eq!(d.max_depth(), 3);
    }

    #[test]
    fn duplicate_node_paths_collapse_to_one_label_path() {
        let d = doc("<resume><education/><education/><education/></resume>");
        assert_eq!(d.paths().len(), 2);
        assert_eq!(d.multiplicity_of(&p(&["resume", "education"])), 3);
    }

    #[test]
    fn multiplicity_takes_maximum_over_nodes() {
        let d = doc(
            "<r><e><x/></e><e><x/><x/><x/></e></r>",
        );
        assert_eq!(d.multiplicity_of(&p(&["r", "e", "x"])), 3);
        assert_eq!(d.multiplicity_of(&p(&["r", "e"])), 2);
    }

    #[test]
    fn positions_average_within_document() {
        let d = doc("<r><a/><b/><a/></r>");
        // a occurs at positions 0 and 2; b at position 1.
        let a = d.entry(&p(&["r", "a"])).unwrap();
        assert_eq!((a.pos_sum, a.pos_count), (2.0, 2));
        let b = d.entry(&p(&["r", "b"])).unwrap();
        assert_eq!((b.pos_sum, b.pos_count), (1.0, 1));
    }

    #[test]
    fn corpus_helpers() {
        let corpus = vec![
            doc("<r><a/><b/></r>"),
            doc("<r><b/><a/></r>"),
            doc("<r><a/></r>"),
        ];
        assert_eq!(doc_frequency(&corpus, &p(&["r", "a"])), 3);
        assert_eq!(doc_frequency(&corpus, &p(&["r", "b"])), 2);
        assert_eq!(doc_frequency(&corpus, &p(&["r", "z"])), 0);
        // a at positions 0, 1, 0 → average 1/3.
        let avg = average_position(&corpus, &p(&["r", "a"])).unwrap();
        assert!((avg - 1.0 / 3.0).abs() < 1e-12);
        assert!(average_position(&corpus, &p(&["r", "z"])).is_none());
    }

    #[test]
    fn child_sequences_recorded_per_node() {
        let d = doc("<r><e><a/><b/></e><e><a/><b/><a/><b/></e></r>");
        let seqs: Vec<Vec<String>> = d
            .label_sequences(d.entry(&p(&["r", "e"])).unwrap())
            .collect();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0], ["a", "b"]);
        assert_eq!(seqs[1], ["a", "b", "a", "b"]);
        // Leaves record no sequence.
        assert!(d
            .entry(&p(&["r", "e", "a"]))
            .unwrap()
            .child_sequences
            .is_empty());
    }

    #[test]
    fn text_nodes_do_not_contribute_paths() {
        let d = doc("<r>hello<a/>world</r>");
        assert_eq!(d.paths().len(), 2);
        assert_eq!(d.node_count, 2);
    }
}
