//! JSON codecs for [`DocPaths`] and [`PathTable`] — the WAL record
//! payload and the `/corpus/table` wire format.
//!
//! Both codecs are **canonical**: entries are emitted in sorted path
//! order, so serializing the same value always yields the same bytes
//! (WAL replay and cross-process table exchange both compare outputs
//! byte-for-byte downstream). Numbers survive exactly — position sums
//! are integral `f64`s within the safe range, and the substrate
//! serializer prints shortest round-trip forms.
//!
//! A [`DocPaths`] record is `{"root": label, "nodes": elements, "paths":
//! [entry, ...]}` with one entry per [`crate::PathEntry`], in the
//! document's path order: `{"p": path, "m": multiplicity, "s": position
//! sum, "n": position count, "q": [child sequence, ...]}`, `"q"` present
//! only for a path with child sequences, each child named by its label.
//! One encoder writes these bytes from a document's flat shape (see
//! `shape.rs`) through the substrate string and number writers,
//! without building a `Json` tree: [`encode`] for a document a corpus
//! stores, and [`doc_to_record`] for a `DocPaths`, whose shape it builds
//! over labels of its own. `webre-check` keeps the tree-building encoder
//! as its reference, and they agree byte for byte.
//!
//! [`doc_from_record`] is the mirror: it reads the bytes once with the
//! substrate pull [`Reader`], building each entry's path once and keeping
//! child labels borrowed from the record until every entry is read. It
//! then sorts the entries (a no-op check for records as written) and
//! resolves each child label against its parent's direct children, which
//! follow the parent in path order. It accepts exactly what
//! `webre-check`'s `Json`-tree reference decoder `ref_doc_from_record`
//! accepts, quirks included: keys in any order, unknown keys skipped, the
//! first of duplicate keys winning, a non-array `"q"` read as no
//! sequences, numbers cast with `as`, and entries in any order. It
//! refuses a path listed twice or a child label with no path entry.
//!
//! A [`PathTable`] entry is `{"p": path, "f": documents, "s": position
//! sum, "n": position count, "m": [[num, documents], ...]}`, the last
//! listing the documents per recorded multiplicity in ascending `num`.

use crate::paths::{DocPaths, PathEntry};
use crate::shape::{Shape, StoredDoc};
use crate::sharded::{PathStats, PathTable};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use webre_substrate::json::{
    write_number, write_string, FromJson, Json, JsonError, Reader, ToJson,
};

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(message.into()))
}

fn path_json(path: &[String]) -> Json {
    Json::Arr(path.iter().map(|l| Json::Str(l.clone())).collect())
}

fn path_from(value: &Json) -> Result<Vec<String>, JsonError> {
    let Some(items) = value.as_arr() else {
        return err(format!("path must be an array, got {value}"));
    };
    let mut path = Vec::with_capacity(items.len());
    for item in items {
        match item.as_str() {
            Some(label) => path.push(label.to_owned()),
            None => return err(format!("path label must be a string, got {item}")),
        }
    }
    if path.is_empty() {
        return err("path must be non-empty");
    }
    Ok(path)
}

fn get_num(obj: &Json, key: &str) -> Result<f64, JsonError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| JsonError(format!("missing numeric field {key:?} in {obj}")))
}

/// Writes labels as a JSON array of strings.
fn write_labels<'a>(out: &mut String, labels: impl IntoIterator<Item = &'a str>) -> fmt::Result {
    out.push('[');
    for (i, label) in labels.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, label)?;
    }
    out.push(']');
    Ok(())
}

/// The one record encoder: writes `shape` with each label id named by
/// `names`.
fn write_record<N: AsRef<str>>(out: &mut String, shape: &Shape, names: &[N]) -> fmt::Result {
    let name = |id: u32| names[id as usize].as_ref();
    out.push_str("{\"root\":");
    write_string(out, name(shape.root()))?;
    out.push_str(",\"nodes\":");
    write_number(out, shape.node_count() as f64)?;
    out.push_str(",\"paths\":[");
    let entries = shape.entries();
    let mut path = Vec::new();
    let mut first = true;
    for (i, entry) in entries.iter().enumerate() {
        shape.descend(&mut path, i);
        if !entry.listed() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"p\":");
        write_labels(out, path.iter().map(|&p| name(entries[p as usize].label())))?;
        out.push_str(",\"m\":");
        write_number(out, f64::from(entry.multiplicity))?;
        out.push_str(",\"s\":");
        write_number(out, entry.pos_sum)?;
        out.push_str(",\"n\":");
        write_number(out, entry.pos_count as f64)?;
        let mut sequences = shape.sequences(i).peekable();
        if sequences.peek().is_some() {
            out.push_str(",\"q\":[");
            for (j, sequence) in sequences.enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_labels(
                    out,
                    sequence.iter().map(|&c| name(entries[c as usize].label())),
                )?;
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("]}");
    Ok(())
}

impl ToJson for PathTable {
    fn to_json(&self) -> Json {
        // The table is a BTreeMap, already in canonical sorted order.
        let entries: Vec<Json> = self
            .paths
            .iter()
            .map(|(path, stats)| {
                let multiplicity = stats
                    .multiplicity
                    .iter()
                    .map(|&(num, docs)| {
                        Json::Arr(vec![Json::Num(f64::from(num)), Json::Num(docs as f64)])
                    })
                    .collect();
                Json::Obj(vec![
                    ("p".to_owned(), path_json(path)),
                    ("f".to_owned(), Json::Num(stats.frequency as f64)),
                    ("s".to_owned(), Json::Num(stats.pos_sum)),
                    ("n".to_owned(), Json::Num(stats.pos_count as f64)),
                    ("m".to_owned(), Json::Arr(multiplicity)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("docs".to_owned(), Json::Num(self.doc_count as f64)),
            ("paths".to_owned(), Json::Arr(entries)),
        ])
    }
}

impl FromJson for PathTable {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let mut table = PathTable {
            doc_count: get_num(value, "docs")? as usize,
            ..PathTable::default()
        };
        let Some(entries) = value.get("paths").and_then(Json::as_arr) else {
            return err(format!("table record needs a \"paths\" array: {value}"));
        };
        for entry in entries {
            let Some(path_value) = entry.get("p") else {
                return err(format!("table entry needs a \"p\" field: {entry}"));
            };
            let path = path_from(path_value)?;
            let mut stats = PathStats {
                frequency: get_num(entry, "f")? as usize,
                pos_sum: get_num(entry, "s")?,
                pos_count: get_num(entry, "n")? as u64,
                multiplicity: Vec::new(),
            };
            let Some(pairs) = entry.get("m").and_then(Json::as_arr) else {
                return err(format!("table entry needs an \"m\" array: {entry}"));
            };
            for pair in pairs {
                match pair.as_arr() {
                    Some([num, docs]) => match (num.as_f64(), docs.as_f64()) {
                        (Some(num), Some(docs)) if num >= 1.0 && docs >= 1.0 => {
                            stats.add_multiplicity(num as u32, docs as usize);
                        }
                        _ => return err(format!("bad multiplicity count {pair}")),
                    },
                    _ => return err(format!("multiplicity count must be [num, docs]: {pair}")),
                }
            }
            table.paths.insert(path, stats);
        }
        Ok(table)
    }
}

/// Serializes a document to its canonical WAL payload bytes: the
/// [`encode`]ing of its shape over labels of its own.
pub fn doc_to_record(doc: &DocPaths) -> Vec<u8> {
    let (shape, names) = Shape::local(doc);
    record_bytes(&shape, &names)
}

/// Serializes a stored document to its canonical WAL payload bytes, the
/// bytes [`doc_to_record`] writes for the document it was stored from.
pub fn encode(doc: StoredDoc<'_>) -> Vec<u8> {
    record_bytes(doc.shape, doc.labels.names())
}

fn record_bytes<N: AsRef<str>>(shape: &Shape, names: &[N]) -> Vec<u8> {
    let mut out = String::with_capacity(64 + 96 * shape.entries().len());
    write_record(&mut out, shape, names).expect("writing to a String cannot fail");
    out.into_bytes()
}

/// Parses a WAL payload back into a document, reading the bytes once
/// with the substrate pull [`Reader`] (see the module doc for what it
/// accepts).
pub fn doc_from_record(bytes: &[u8]) -> Result<DocPaths, JsonError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| JsonError(format!("record is not UTF-8: {e}")))?;
    let mut r = Reader::new(text);
    let (mut root, mut nodes, mut items) = (None, None, None);
    let mut sequences = Sequences::default();
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "root" if root.is_none() => root = Some(r.string()?.into_owned()),
            "nodes" if nodes.is_none() => nodes = Some(r.number()?),
            "paths" if items.is_none() => items = Some(read_entries(&mut r, &mut sequences)?),
            _ => r.skip_value()?,
        }
    }
    r.finish()?;
    let (Some(root), Some(nodes), Some(items)) = (root, nodes, items) else {
        return err("document record needs \"root\", \"nodes\" and \"paths\"");
    };
    resolve(root, nodes as usize, items, &sequences)
}

/// The child sequences of a record as read, before their labels are
/// resolved to entries: every label in one list, borrowed from the
/// record unless escaped, and where each sequence ends in it.
#[derive(Default)]
struct Sequences<'a> {
    labels: Vec<Cow<'a, str>>,
    ends: Vec<usize>,
}

/// Reads a non-empty array of strings, handing each to `push`.
fn read_labels<'a>(
    r: &mut Reader<'a>,
    mut push: impl FnMut(Cow<'a, str>),
) -> Result<(), JsonError> {
    r.begin_array()?;
    let mut empty = true;
    while r.next_item()? {
        push(r.string()?);
        empty = false;
    }
    if empty {
        return err("path must be non-empty");
    }
    Ok(())
}

/// Reads the `"paths"` array: each entry, with the range of its child
/// sequences in `sequences.ends`.
fn read_entries<'a>(
    r: &mut Reader<'a>,
    sequences: &mut Sequences<'a>,
) -> Result<Vec<(PathEntry, Range<usize>)>, JsonError> {
    let mut items = Vec::new();
    r.begin_array()?;
    while r.next_item()? {
        r.begin_object()?;
        let (mut path, mut m, mut s, mut n, mut q) = (None, None, None, None, None);
        while let Some(key) = r.next_key()? {
            match &*key {
                "p" if path.is_none() => {
                    let mut labels = Vec::new();
                    read_labels(r, |label| labels.push(label.into_owned()))?;
                    path = Some(labels);
                }
                "m" if m.is_none() => m = Some(r.number()?),
                "s" if s.is_none() => s = Some(r.number()?),
                "n" if n.is_none() => n = Some(r.number()?),
                "q" if q.is_none() => {
                    let first = sequences.ends.len();
                    // Anything but an array reads as no sequences.
                    if r.peek() == Some(b'[') {
                        r.begin_array()?;
                        while r.next_item()? {
                            read_labels(r, |label| sequences.labels.push(label))?;
                            sequences.ends.push(sequences.labels.len());
                        }
                    } else {
                        r.skip_value()?;
                    }
                    q = Some(first..sequences.ends.len());
                }
                _ => r.skip_value()?,
            }
        }
        let (Some(path), Some(m), Some(s), Some(n)) = (path, m, s, n) else {
            return err("path entry needs \"p\", \"m\", \"s\" and \"n\"");
        };
        let entry = PathEntry {
            path,
            multiplicity: m as u32,
            pos_sum: s,
            pos_count: n as u64,
            child_sequences: Vec::new(),
        };
        items.push((entry, q.unwrap_or_default()));
    }
    Ok(items)
}

/// Sorts the entries by path (records are written sorted, so this is
/// usually a check), refuses a path listed twice, and resolves every
/// child label against its parent's direct children.
fn resolve(
    root_label: String,
    node_count: usize,
    mut items: Vec<(PathEntry, Range<usize>)>,
    sequences: &Sequences,
) -> Result<DocPaths, JsonError> {
    if !items.windows(2).all(|w| w[0].0.path < w[1].0.path) {
        items.sort_unstable_by(|a, b| a.0.path.cmp(&b.0.path));
        if let Some(w) = items.windows(2).find(|w| w[0].0.path == w[1].0.path) {
            return err(format!("path {:?} is listed twice", w[0].0.path));
        }
    }
    // end[i]: one past the last entry whose path extends entry i's, so
    // entries i+1..end[i] are exactly i's descendants. `open` holds the
    // chain of entries that are prefixes of the last one seen.
    let mut end = vec![items.len(); items.len()];
    let mut open: Vec<usize> = Vec::new();
    for (j, (entry, _)) in items.iter().enumerate() {
        while let Some(&top) = open.last() {
            if entry.path.starts_with(&items[top].0.path) {
                break;
            }
            end[top] = j;
            open.pop();
        }
        open.push(j);
    }
    let mut kids: Vec<usize> = Vec::new();
    for i in 0..items.len() {
        let range = items[i].1.clone();
        if range.is_empty() {
            continue;
        }
        // The direct children, ascending by label: hop from one
        // descendant subtree to the next.
        let depth = items[i].0.path.len();
        kids.clear();
        let mut j = i + 1;
        while j < end[i] {
            if items[j].0.path.len() == depth + 1 {
                kids.push(j);
            }
            j = end[j];
        }
        let mut resolved = Vec::with_capacity(range.len());
        for s in range {
            let first = if s == 0 { 0 } else { sequences.ends[s - 1] };
            let labels = &sequences.labels[first..sequences.ends[s]];
            let mut sequence = Vec::with_capacity(labels.len());
            for label in labels {
                match kids.binary_search_by(|&k| items[k].0.path[depth].as_str().cmp(label)) {
                    Ok(at) => sequence.push(kids[at] as u32),
                    Err(_) => {
                        return err(format!(
                            "bad document record: child {label:?} of {:?} has no path entry",
                            items[i].0.path
                        ))
                    }
                }
            }
            resolved.push(sequence);
        }
        items[i].0.child_sequences = resolved;
    }
    let entries = items.into_iter().map(|(entry, _)| entry).collect();
    Ok(DocPaths::from_sorted(root_label, node_count, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::extract_paths;
    use webre_substrate::rand::rngs::StdRng;
    use webre_substrate::rand::seq::SliceRandom;
    use webre_substrate::rand::{Rng, SeedableRng};
    use webre_xml::parse_xml;

    fn doc(xml: &str) -> DocPaths {
        extract_paths(&parse_xml(xml).unwrap())
    }

    #[test]
    fn doc_round_trips_exactly() {
        let original = doc(
            "<resume><education><degree><date/></degree><degree><date/></degree>\
             </education><contact/></resume>",
        );
        let decoded = doc_from_record(&doc_to_record(&original)).unwrap();
        assert_eq!(original, decoded);
    }

    #[test]
    fn record_bytes_are_pinned() {
        let record = doc_to_record(&doc("<r><a><x/></a>text<a/><b/></r>"));
        assert_eq!(
            String::from_utf8(record).unwrap(),
            r#"{"root":"r","nodes":5,"paths":[{"p":["r"],"m":1,"s":0,"n":1,"q":[["a","a","b"]]},"#
                .to_owned()
                + r#"{"p":["r","a"],"m":2,"s":1,"n":2,"q":[["x"]]},"#
                + r#"{"p":["r","a","x"],"m":1,"s":0,"n":1},{"p":["r","b"],"m":1,"s":2,"n":1}]}"#
        );
    }

    #[test]
    fn entries_decode_in_any_order() {
        let record = br#"{"root":"r","nodes":2,"paths":[{"p":["r","a"],"m":1,"s":0,"n":1},{"p":["r"],"m":1,"s":0,"n":1,"q":[["a"]]}]}"#;
        let decoded = doc_from_record(record).unwrap();
        assert_eq!(decoded, doc("<r><a/></r>"));
    }

    #[test]
    fn doc_serialization_is_canonical() {
        // Two extractions of the same document serialize identically even
        // though the walk's per-document hash map is seeded differently.
        let xml = "<r><a><x/><y/></a><b/><a><x/></a></r>";
        let a = doc_to_record(&doc(xml));
        let b = doc_to_record(&doc(xml));
        assert_eq!(a, b);
    }

    #[test]
    fn random_docs_round_trip() {
        const LABELS: &[&str] = &["a", "b", "c", "d", "e"];
        fn element(rng: &mut StdRng, label: &str, depth: u32) -> String {
            let arity = if depth == 0 { 0 } else { rng.gen_range(0..=4u32) };
            if arity == 0 {
                return format!("<{label}/>");
            }
            let children: String = (0..arity)
                .map(|_| {
                    let label = *LABELS.choose(rng).unwrap();
                    element(rng, label, depth - 1)
                })
                .collect();
            format!("<{label}>{children}</{label}>")
        }
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let xml = element(&mut rng, "root", 4);
            let original = doc(&xml);
            let record = doc_to_record(&original);
            let decoded = doc_from_record(&record).unwrap();
            assert_eq!(original, decoded, "seed {seed}: round trip diverged");
            // Canonical: re-encoding the decoded value is byte-identical.
            assert_eq!(record, doc_to_record(&decoded), "seed {seed}");
        }
    }

    #[test]
    fn table_round_trips_and_stays_canonical() {
        let docs: Vec<DocPaths> = [
            "<r><a/><b/><a/></r>",
            "<r><b/><c><a/></c></r>",
            "<s><a/></s>",
        ]
        .iter()
        .map(|x| doc(x))
        .collect();
        let table = PathTable::from_docs(&docs);
        let json = table.to_json().to_string();
        let decoded = PathTable::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(table, decoded);
        assert_eq!(json, decoded.to_json().to_string());
    }

    #[test]
    fn malformed_records_are_errors_not_panics() {
        for bad in [
            &b"\xff\xfe"[..],
            b"",
            b"42",
            b"{}",
            b"{\"root\":\"r\"}",
            b"{\"root\":\"r\",\"nodes\":1,\"paths\":[{\"m\":1}]}",
            b"{\"root\":\"r\",\"nodes\":1,\"paths\":[{\"p\":[],\"m\":1,\"s\":0,\"n\":1}]}",
            b"{\"root\":\"r\",\"nodes\":1,\"paths\":[{\"p\":[3],\"m\":1,\"s\":0,\"n\":1}]}",
            b"{\"root\":\"r\",\"nodes\":1,\"paths\":[{\"p\":[\"r\"],\"m\":1,\"s\":0,\"n\":1},\
              {\"p\":[\"r\"],\"m\":1,\"s\":0,\"n\":1}]}",
            b"{\"root\":\"r\",\"nodes\":1,\"paths\":[{\"p\":[\"r\"],\"m\":1,\"s\":0,\"n\":1,\"q\":[[\"a\"]]}]}",
        ] {
            assert!(doc_from_record(bad).is_err(), "{:?}", String::from_utf8_lossy(bad));
        }
    }

    /// Records `ref_doc_from_record` in `webre-check` accepts although
    /// the encoder never writes them, each with the canonical record it
    /// decodes to.
    #[test]
    fn quirky_records_decode_like_their_canonical_form() {
        let canonical = r#"{"root":"r","nodes":2,"paths":[{"p":["r"],"m":1,"s":0,"n":1,"q":[["a"]]},{"p":["r","a"],"m":1,"s":0,"n":1}]}"#;
        let leaf = r#"{"root":"r","nodes":1,"paths":[{"p":["r"],"m":1,"s":0,"n":1}]}"#;
        for (quirky, expected) in [
            // Keys in any order, entries in any order.
            (r#"{"paths":[{"n":1,"s":0,"m":1,"p":["r","a"]},{"q":[["a"]],"p":["r"],"m":1,"s":0,"n":1}],"nodes":2,"root":"r"}"#, canonical),
            // Unknown keys are skipped, however deep (below the limit).
            (
                &format!(
                    r#"{{"root":"r","x":{{"y":[1,{{"z":null}}]}},"nodes":2,"paths":[{{"p":["r"],"m":1,"s":0,"n":1,"q":[["a"]],"deep":{}{}}},{{"p":["r","a"],"m":1,"s":0,"n":1}}]}}"#,
                    "[".repeat(250),
                    "]".repeat(250)
                ),
                canonical,
            ),
            // The first of duplicate keys wins; the rest only need to parse.
            (r#"{"root":"r","root":5,"nodes":1,"nodes":"x","paths":[{"p":["r"],"p":[],"m":1,"s":0,"n":1,"m":-1}],"paths":7}"#, leaf),
            // A non-array "q" reads as no sequences.
            (r#"{"root":"r","nodes":1,"paths":[{"p":["r"],"m":1,"s":0,"n":1,"q":{"a":[["x"]]}}]}"#, leaf),
            // Escaped labels and keys decode to their characters.
            (r#"{"root":"\u0072","nodes":2,"paths":[{"\u0070":["r"],"m":1,"s":0,"n":1,"q":[["\u0061"]]},{"p":["r","a"],"m":1,"s":0,"n":1}]}"#, canonical),
            // Numbers are cast: truncated and saturated at zero.
            (r#"{"root":"r","nodes":2.9,"paths":[{"p":["r"],"m":1.5,"s":0,"n":1e0,"q":[["a"]]},{"p":["r","a"],"m":1,"s":0,"n":1}]}"#, canonical),
            (r#"{"root":"r","nodes":1,"paths":[{"p":["r"],"m":1,"s":0,"n":1.2}]}"#, leaf),
        ] {
            let decoded = doc_from_record(quirky.as_bytes());
            assert_eq!(
                decoded,
                doc_from_record(expected.as_bytes()),
                "{quirky}"
            );
        }
        let cast = doc_from_record(
            br#"{"root":"r","nodes":-3,"paths":[{"p":["r"],"m":-1,"s":-2.5,"n":-1}]}"#,
        )
        .unwrap();
        assert_eq!(cast.node_count, 0);
        let entry = &cast.entries()[0];
        assert_eq!((entry.multiplicity, entry.pos_sum, entry.pos_count), (0, -2.5, 0));
    }

    #[test]
    fn refused_quirks_are_errors() {
        let deep = format!(
            r#"{{"root":"r","nodes":1,"x":{}{},"paths":[{{"p":["r"],"m":1,"s":0,"n":1}}]}}"#,
            "[".repeat(300),
            "]".repeat(300)
        );
        for bad in [
            // Nested past the reader's limit, though the key is unknown.
            deep.as_str(),
            // A grandchild's label is not a child.
            r#"{"root":"r","nodes":3,"paths":[{"p":["r"],"m":1,"s":0,"n":1,"q":[["x"]]},{"p":["r","a"],"m":1,"s":0,"n":1},{"p":["r","a","x"],"m":1,"s":0,"n":1}]}"#,
            // A path listed twice, apart.
            r#"{"root":"r","nodes":1,"paths":[{"p":["r"],"m":1,"s":0,"n":1},{"p":["r","a"],"m":1,"s":0,"n":1},{"p":["r"],"m":1,"s":0,"n":1}]}"#,
            // An empty child sequence; an entry that is not an object.
            r#"{"root":"r","nodes":1,"paths":[{"p":["r"],"m":1,"s":0,"n":1,"q":[[]]}]}"#,
            r#"{"root":"r","nodes":1,"paths":[["r"]]}"#,
            // A first duplicate of the wrong type; trailing text.
            r#"{"root":5,"root":"r","nodes":1,"paths":[]}"#,
            r#"{"root":"r","nodes":1,"paths":[]} {}"#,
        ] {
            assert!(doc_from_record(bad.as_bytes()).is_err(), "{bad}");
        }
    }
}
