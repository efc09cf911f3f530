//! Interned document shapes: the flat form a live corpus keeps for each
//! distinct document.
//!
//! A [`DocPaths`] is the convenient form of a document: one `String` per
//! label of every path, one `Vec` per path and per child sequence —
//! ~4.5 KB of heap for one converted resume, ~21 KB for a multi-resume
//! page. A [`Shape`] holds the same facts in three flat arrays:
//!
//! * one entry per label path, in the document's path order: its parent
//!   entry, its last label as an id into the corpus's [`Labels`], its
//!   multiplicity and its position sum and count;
//! * every child sequence's end offset, grouped by entry;
//! * every child of every sequence, as the index of the child's entry.
//!
//! The path order is the pre-order of the document's path trie, so an
//! entry's parent precedes it and a path is rebuilt by following parents.
//! A path set that is not prefix-closed (only a hand-written or damaged
//! WAL record has one: extraction records every prefix) gets an
//! *unlisted* entry for each missing prefix, so rebuilding stays exact.
//!
//! Equality of two shapes built over one label table is equality of the
//! documents they were built from, which is what interning relies on.
//! [`StoredDoc`] pairs a shape with its label table: WAL compaction
//! encodes it ([`crate::codec::encode`]), tests rebuild the `DocPaths`
//! from it, and the group-pattern extension reads its child sequences
//! ([`PathTrie`]) without rebuilding anything.

use crate::paths::{DocPaths, LabelPath, PathEntry};
use std::collections::HashMap;

/// Label-id bit marking an entry for a prefix the document does not list.
const UNLISTED: u32 = 1 << 31;
/// The parent of a one-label path.
const NO_PARENT: u32 = u32::MAX;

/// Label names by dense id, each distinct label stored once.
#[derive(Clone, Debug, Default)]
pub(crate) struct Labels {
    names: Vec<Box<str>>,
    ids: HashMap<Box<str>, u32>,
}

impl Labels {
    /// The id of `name`, assigned on first sight.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len())
            .ok()
            .filter(|&id| id < UNLISTED)
            .expect("fewer than 2^31 distinct labels");
        self.names.push(name.into());
        self.ids.insert(name.into(), id);
        id
    }

    /// The id of `name`, if it was ever interned.
    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Every name, indexed by id.
    pub(crate) fn names(&self) -> &[Box<str>] {
        &self.names
    }
}

/// One label path of a shape; an unlisted prefix records zeros.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Entry {
    /// The entry of the path without its last label, or [`NO_PARENT`].
    parent: u32,
    /// The last label's id, with [`UNLISTED`] set for an unlisted prefix.
    label: u32,
    pub(crate) multiplicity: u32,
    /// One past the entry's last sequence in [`Shape::seq_ends`]; its
    /// first is the previous entry's `seqs_end`.
    seqs_end: u32,
    pub(crate) pos_sum: f64,
    pub(crate) pos_count: u64,
}

impl Entry {
    /// Whether the document lists this path (not only a longer one).
    pub(crate) fn listed(&self) -> bool {
        self.label & UNLISTED == 0
    }

    /// The last label's id.
    pub(crate) fn label(&self) -> u32 {
        self.label & !UNLISTED
    }
}

/// One document's path table in three flat arrays (see the module doc).
/// Label ids refer to the [`Labels`] the shape was built with.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Shape {
    root: u32,
    node_count: usize,
    entries: Vec<Entry>,
    /// End offset of each child sequence in `children`.
    seq_ends: Vec<u32>,
    children: Vec<u32>,
}

fn index_u32(n: usize) -> u32 {
    u32::try_from(n).expect("fewer than 2^32 entries per document")
}

impl Shape {
    /// Rebuilds `self` as the shape of `doc`, reusing its buffers;
    /// `label` names each label by id.
    pub(crate) fn build<'d>(&mut self, doc: &'d DocPaths, mut label: impl FnMut(&'d str) -> u32) {
        let entries = doc.entries();
        self.root = label(&doc.root_label);
        self.node_count = doc.node_count;
        self.entries.clear();
        self.seq_ends.clear();
        self.children.clear();
        let sequences = entries.iter().map(|e| e.child_sequences.len()).sum();
        let children = entries
            .iter()
            .flat_map(|e| &e.child_sequences)
            .map(Vec::len)
            .sum();
        self.entries.reserve(entries.len());
        self.seq_ends.reserve(sequences);
        self.children.reserve(children);
        // Each path shares its first `common` labels with the previous
        // one; the entry at that depth is found by climbing the previous
        // entry's parents.
        let mut prev: &[String] = &[];
        for entry in entries {
            let path = &entry.path;
            let common = prev.iter().zip(path).take_while(|(a, b)| a == b).count();
            let mut parent = match self.entries.len().checked_sub(1) {
                Some(last) => index_u32(last),
                None => NO_PARENT,
            };
            for _ in common..prev.len() {
                parent = self.entries[parent as usize].parent;
            }
            for (depth, name) in path.iter().enumerate().skip(common) {
                let id = label(name);
                assert!(id < UNLISTED, "label ids stay below the unlisted bit");
                let at = index_u32(self.entries.len());
                self.entries.push(if depth + 1 == path.len() {
                    Entry {
                        parent,
                        label: id,
                        multiplicity: entry.multiplicity,
                        seqs_end: 0,
                        pos_sum: entry.pos_sum,
                        pos_count: entry.pos_count,
                    }
                } else {
                    Entry {
                        parent,
                        label: id | UNLISTED,
                        multiplicity: 0,
                        seqs_end: 0,
                        pos_sum: 0.0,
                        pos_count: 0,
                    }
                });
                parent = at;
            }
            prev = path;
        }
        // A document's entry i is the shape's entry i unless unlisted
        // prefixes were added.
        let at: Vec<u32> = if self.entries.len() == entries.len() {
            Vec::new()
        } else {
            (0..self.entries.len())
                .filter(|&i| self.entries[i].listed())
                .map(index_u32)
                .collect()
        };
        let mut next = entries.iter();
        for i in 0..self.entries.len() {
            if self.entries[i].listed() {
                let entry = next.next().expect("one document entry per listed entry");
                for sequence in &entry.child_sequences {
                    self.children.extend(sequence.iter().map(|&child| {
                        if at.is_empty() {
                            child
                        } else {
                            at[child as usize]
                        }
                    }));
                    self.seq_ends.push(index_u32(self.children.len()));
                }
            }
            self.entries[i].seqs_end = index_u32(self.seq_ends.len());
        }
    }

    /// The shape of `doc` over labels of its own: every entry's label
    /// gets a fresh id, and `names` is indexed by those ids. How
    /// [`crate::doc_to_record`] encodes a document no index has stored.
    pub(crate) fn local(doc: &DocPaths) -> (Shape, Vec<&str>) {
        let mut names = Vec::with_capacity(doc.entries().len() + 1);
        let mut shape = Shape::default();
        shape.build(doc, |name| {
            names.push(name);
            index_u32(names.len() - 1)
        });
        (shape, names)
    }

    /// A content hash of the shape, consistent with `==`: equal shapes
    /// hash equal (`-0.0` and `0.0` position sums alike).
    pub(crate) fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(PRIME);
        mix(u64::from(self.root));
        mix(self.node_count as u64);
        for e in &self.entries {
            mix(u64::from(e.parent) << 32 | u64::from(e.label));
            mix(u64::from(e.multiplicity) << 32 | u64::from(e.seqs_end));
            mix(if e.pos_sum == 0.0 {
                0
            } else {
                e.pos_sum.to_bits()
            });
            mix(e.pos_count);
        }
        for &v in self.seq_ends.iter().chain(&self.children) {
            mix(u64::from(v));
        }
        h
    }

    /// Replaces every label id `l` with `map[l]`.
    pub(crate) fn relabel(&mut self, map: &[u32]) {
        self.root = map[self.root as usize];
        for e in &mut self.entries {
            e.label = map[e.label() as usize] | (e.label & UNLISTED);
        }
    }

    /// The root label's id.
    pub(crate) fn root(&self) -> u32 {
        self.root
    }

    /// Total element nodes of the document.
    pub(crate) fn node_count(&self) -> usize {
        self.node_count
    }

    /// The entries, in path order.
    pub(crate) fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Moves `path` from the previous entry's path to entry `i`'s,
    /// given as entry indices from the root; call it for every entry in
    /// order.
    pub(crate) fn descend(&self, path: &mut Vec<u32>, i: usize) {
        let parent = self.entries[i].parent;
        while path.last().is_some_and(|&top| top != parent) {
            path.pop();
        }
        path.push(index_u32(i));
    }

    /// Entry `i`'s child sequences, each child as its entry index.
    pub(crate) fn sequences(&self, i: usize) -> impl Iterator<Item = &[u32]> + '_ {
        let first = match i {
            0 => 0,
            _ => self.entries[i - 1].seqs_end as usize,
        };
        (first..self.entries[i].seqs_end as usize).map(move |s| {
            let start = match s {
                0 => 0,
                _ => self.seq_ends[s - 1] as usize,
            };
            &self.children[start..self.seq_ends[s] as usize]
        })
    }
}

/// A stored document: an interned shape read through its corpus's label
/// table.
#[derive(Clone, Copy, Debug)]
pub struct StoredDoc<'a> {
    pub(crate) shape: &'a Shape,
    pub(crate) labels: &'a Labels,
}

impl StoredDoc<'_> {
    fn name(&self, id: u32) -> &str {
        &self.labels.names()[id as usize]
    }

    /// The document as a [`DocPaths`], equal to the one it was stored
    /// from. Builds every path and sequence anew: for tests, not for a
    /// path that runs per stored document.
    pub fn to_doc_paths(&self) -> DocPaths {
        let shape = self.shape;
        // Listed entries renumbered past the unlisted ones.
        let mut rank = vec![0u32; shape.entries.len()];
        let mut listed = 0u32;
        for (i, e) in shape.entries.iter().enumerate() {
            rank[i] = listed;
            listed += u32::from(e.listed());
        }
        let mut entries = Vec::with_capacity(listed as usize);
        let mut path = Vec::new();
        for (i, e) in shape.entries.iter().enumerate() {
            shape.descend(&mut path, i);
            if !e.listed() {
                continue;
            }
            entries.push(PathEntry {
                path: path
                    .iter()
                    .map(|&p| self.name(shape.entries[p as usize].label()).to_owned())
                    .collect(),
                multiplicity: e.multiplicity,
                pos_sum: e.pos_sum,
                pos_count: e.pos_count,
                child_sequences: shape
                    .sequences(i)
                    .map(|s| s.iter().map(|&c| rank[c as usize]).collect())
                    .collect(),
            });
        }
        DocPaths::from_sorted(self.name(shape.root).to_owned(), shape.node_count, entries)
    }
}

/// Views over one label table compare their shapes; views over two
/// rebuild and compare their documents (no production path does).
impl PartialEq for StoredDoc<'_> {
    fn eq(&self, other: &Self) -> bool {
        if std::ptr::eq(self.labels, other.labels) {
            self.shape == other.shape
        } else {
            self.to_doc_paths() == other.to_doc_paths()
        }
    }
}

/// A set of label paths as a trie over one label table's ids, for
/// collecting the child sequences stored shapes record at those paths.
pub(crate) struct PathTrie {
    /// (parent node or [`NO_PARENT`], label id) → node.
    nodes: HashMap<(u32, u32), u32>,
    /// The indices of the requested paths ending at each node.
    ends: Vec<Vec<usize>>,
}

impl PathTrie {
    /// The trie of `paths`; a path naming a label the table lacks is
    /// left out, as no stored shape can contain it.
    pub(crate) fn new(paths: &[LabelPath], labels: &Labels) -> PathTrie {
        let mut trie = PathTrie {
            nodes: HashMap::new(),
            ends: Vec::new(),
        };
        'paths: for (k, path) in paths.iter().enumerate() {
            let mut node = NO_PARENT;
            for name in path {
                let Some(id) = labels.get(name) else {
                    continue 'paths;
                };
                let fresh = index_u32(trie.ends.len());
                node = *trie.nodes.entry((node, id)).or_insert(fresh);
                if node == fresh {
                    trie.ends.push(Vec::new());
                }
            }
            if node != NO_PARENT {
                trie.ends[node as usize].push(k);
            }
        }
        trie
    }

    /// Appends to `out[k]` the child label sequences `shape` records at
    /// requested path `k`, in entry order. `node_of` is scratch.
    pub(crate) fn collect<'a>(
        &self,
        shape: &Shape,
        labels: &'a Labels,
        node_of: &mut Vec<Option<u32>>,
        out: &mut [Vec<Vec<&'a str>>],
    ) {
        node_of.clear();
        for (i, e) in shape.entries.iter().enumerate() {
            let parent = match e.parent {
                NO_PARENT => Some(NO_PARENT),
                p => node_of[p as usize],
            };
            let node = parent.and_then(|p| self.nodes.get(&(p, e.label())).copied());
            node_of.push(node);
            let Some(node) = node.filter(|_| e.listed()) else {
                continue;
            };
            for &k in &self.ends[node as usize] {
                out[k].extend(shape.sequences(i).map(|s| {
                    s.iter()
                        .map(|&c| &*labels.names()[shape.entries[c as usize].label() as usize])
                        .collect::<Vec<&str>>()
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::doc_from_record;
    use crate::paths::extract_paths;
    use webre_xml::parse_xml;

    fn doc(xml: &str) -> DocPaths {
        extract_paths(&parse_xml(xml).unwrap())
    }

    fn shape(doc: &DocPaths, labels: &mut Labels) -> Shape {
        let mut shape = Shape::default();
        shape.build(doc, |name| labels.intern(name));
        shape
    }

    #[test]
    fn shape_rebuilds_its_document() {
        let mut labels = Labels::default();
        for xml in [
            "<r/>",
            "<r><a><x/></a>text<a/><b/></r>",
            "<resume><education><degree><date/></degree><degree><date/></degree>\
             </education><contact/></resume>",
        ] {
            let d = doc(xml);
            let s = shape(&d, &mut labels);
            assert_eq!(s.entries.len(), d.entries().len(), "{xml}");
            let stored = StoredDoc {
                shape: &s,
                labels: &labels,
            };
            assert_eq!(stored.to_doc_paths(), d, "{xml}");
        }
    }

    #[test]
    fn unlisted_prefixes_rebuild_exactly() {
        // Neither ["x"] nor ["x", "y"] is listed, and the root label
        // names no path.
        let record = br#"{"root":"r","nodes":3,"paths":[{"p":["r"],"m":1,"s":0,"n":1,"q":[["a"]]},{"p":["r","a"],"m":2,"s":1,"n":2},{"p":["x","y","z"],"m":1,"s":0,"n":1,"q":[["w"]]},{"p":["x","y","z","w"],"m":1,"s":0,"n":1}]}"#;
        let d = doc_from_record(record).unwrap();
        let mut labels = Labels::default();
        let s = shape(&d, &mut labels);
        assert_eq!(s.entries.len(), d.entries().len() + 2);
        let stored = StoredDoc {
            shape: &s,
            labels: &labels,
        };
        assert_eq!(stored.to_doc_paths(), d);
        assert_eq!(crate::codec::encode(stored), record.to_vec());
    }

    #[test]
    fn equal_shapes_are_equal_documents() {
        let mut labels = Labels::default();
        let a = doc("<r><a/><b/><a/></r>");
        let b = doc("<r><b/><a/><a/></r>");
        let (sa, sa2, sb) = (
            shape(&a, &mut labels),
            shape(&a.clone(), &mut labels),
            shape(&b, &mut labels),
        );
        assert_eq!(sa, sa2);
        assert_eq!(sa.fingerprint(), sa2.fingerprint());
        assert_ne!(sa, sb);
        // Over two label tables, views compare their documents.
        let mut other = Labels::default();
        other.intern("b");
        let sc = shape(&a, &mut other);
        assert_ne!(sa, sc, "ids differ");
        assert_eq!(
            StoredDoc {
                shape: &sa,
                labels: &labels
            },
            StoredDoc {
                shape: &sc,
                labels: &other
            }
        );
        assert_ne!(
            StoredDoc {
                shape: &sb,
                labels: &labels
            },
            StoredDoc {
                shape: &sc,
                labels: &other
            }
        );
    }

    #[test]
    fn trie_collects_sequences_at_requested_paths() {
        let mut labels = Labels::default();
        let d = doc("<r><e><a/><b/></e><e><a/><b/><a/><b/></e><z/></r>");
        let s = shape(&d, &mut labels);
        let paths: Vec<LabelPath> = [&["r", "e"][..], &["r"], &["r", "q"], &["r", "e"]]
            .iter()
            .map(|p| p.iter().map(|l| (*l).to_owned()).collect())
            .collect();
        let trie = PathTrie::new(&paths, &labels);
        let mut out = vec![Vec::new(); paths.len()];
        trie.collect(&s, &labels, &mut Vec::new(), &mut out);
        assert_eq!(out[0], [vec!["a", "b"], vec!["a", "b", "a", "b"]]);
        assert_eq!(out[1], [vec!["e", "e", "z"]]);
        assert!(out[2].is_empty());
        assert_eq!(out[3], out[0]);
    }
}
