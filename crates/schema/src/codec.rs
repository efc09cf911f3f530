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
//! [`doc_to_record`] writes these bytes straight from the entries through
//! the substrate string and number writers, without building a `Json`
//! tree; `webre-check` keeps the tree-building encoder as its reference,
//! and the two agree byte for byte. The decoder rebuilds the entries and
//! accepts them in any order, refusing a path listed twice or a child
//! label with no path entry.
//!
//! A [`PathTable`] entry is `{"p": path, "f": documents, "s": position
//! sum, "n": position count, "m": [[num, documents], ...]}`, the last
//! listing the documents per recorded multiplicity in ascending `num`.

use crate::paths::{DocPaths, PathEntry};
use crate::sharded::{PathStats, PathTable};
use std::fmt;
use webre_substrate::json::{write_number, write_string, FromJson, Json, JsonError, ToJson};

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

fn write_record(out: &mut String, doc: &DocPaths) -> fmt::Result {
    out.push_str("{\"root\":");
    write_string(out, &doc.root_label)?;
    out.push_str(",\"nodes\":");
    write_number(out, doc.node_count as f64)?;
    out.push_str(",\"paths\":[");
    for (i, entry) in doc.entries().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"p\":");
        write_labels(out, entry.path.iter().map(String::as_str))?;
        out.push_str(",\"m\":");
        write_number(out, f64::from(entry.multiplicity))?;
        out.push_str(",\"s\":");
        write_number(out, entry.pos_sum)?;
        out.push_str(",\"n\":");
        write_number(out, entry.pos_count as f64)?;
        if !entry.child_sequences.is_empty() {
            out.push_str(",\"q\":[");
            for (j, sequence) in entry.child_sequences.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_labels(out, sequence.iter().map(|&child| doc.label_at(child)))?;
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("]}");
    Ok(())
}

impl FromJson for DocPaths {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let Some(root) = value.get("root").and_then(Json::as_str) else {
            return err(format!("document record needs a \"root\" string: {value}"));
        };
        let node_count = get_num(value, "nodes")? as usize;
        let Some(items) = value.get("paths").and_then(Json::as_arr) else {
            return err(format!("document record needs a \"paths\" array: {value}"));
        };
        let mut entries = Vec::with_capacity(items.len());
        for item in items {
            let Some(path_value) = item.get("p") else {
                return err(format!("path entry needs a \"p\" field: {item}"));
            };
            let entry = PathEntry {
                path: path_from(path_value)?,
                multiplicity: get_num(item, "m")? as u32,
                pos_sum: get_num(item, "s")?,
                pos_count: get_num(item, "n")? as u64,
                child_sequences: Vec::new(),
            };
            let sequences = match item.get("q").and_then(Json::as_arr) {
                Some(sequences) => sequences.iter().map(path_from).collect::<Result<_, _>>()?,
                None => Vec::new(),
            };
            entries.push((entry, sequences));
        }
        DocPaths::from_labelled(root.to_owned(), node_count, entries)
            .map_err(|e| JsonError(format!("bad document record: {e}")))
    }
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

/// Serializes a document to its canonical WAL payload bytes.
pub fn doc_to_record(doc: &DocPaths) -> Vec<u8> {
    let mut out = String::with_capacity(64 + 96 * doc.entries().len());
    write_record(&mut out, doc).expect("writing to a String cannot fail");
    out.into_bytes()
}

/// Parses a WAL payload back into a document.
pub fn doc_from_record(bytes: &[u8]) -> Result<DocPaths, JsonError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| JsonError(format!("record is not UTF-8: {e}")))?;
    let value = Json::parse(text)?;
    DocPaths::from_json(&value)
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
}
