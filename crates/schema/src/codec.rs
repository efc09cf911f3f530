//! JSON codecs for [`DocPaths`] and [`PathTable`] — the WAL record
//! payload and the `/corpus/table` wire format.
//!
//! Both codecs are **canonical**: entries are emitted in sorted path
//! order regardless of hash-map iteration order, so serializing the same
//! value always yields the same bytes (WAL replay and cross-process
//! table exchange both compare outputs byte-for-byte downstream).
//! Numbers survive exactly — position sums are integral `f64`s within
//! the safe range, and the substrate serializer prints shortest
//! round-trip forms.
//!
//! A [`PathTable`] entry is `{"p": path, "f": documents, "s": position
//! sum, "n": position count, "m": [[num, documents], ...]}`, the last
//! listing the documents per recorded multiplicity in ascending `num`.
//!
//! The [`DocPaths`] codec is lossless for any value produced by
//! [`crate::extract_paths`], where the multiplicity and position maps
//! are keyed exactly by the recorded path set and child sequences only
//! exist for non-leaf paths — the invariant the decoder rebuilds from.

use crate::paths::DocPaths;
use crate::sharded::{PathStats, PathTable};
use webre_substrate::json::{FromJson, Json, JsonError, ToJson};

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

impl ToJson for DocPaths {
    fn to_json(&self) -> Json {
        let mut paths: Vec<&Vec<String>> = self.paths.iter().collect();
        paths.sort();
        let entries: Vec<Json> = paths
            .into_iter()
            .map(|path| {
                let (pos_sum, pos_count) =
                    self.positions.get(path).copied().unwrap_or((0.0, 0));
                let mut fields = vec![
                    ("p".to_owned(), path_json(path)),
                    (
                        "m".to_owned(),
                        Json::Num(f64::from(self.multiplicity.get(path).copied().unwrap_or(0))),
                    ),
                    ("s".to_owned(), Json::Num(pos_sum)),
                    ("n".to_owned(), Json::Num(pos_count as f64)),
                ];
                if let Some(seqs) = self.child_sequences.get(path) {
                    fields.push((
                        "q".to_owned(),
                        Json::Arr(seqs.iter().map(|seq| path_json(seq)).collect()),
                    ));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("root".to_owned(), Json::Str(self.root_label.clone())),
            ("nodes".to_owned(), Json::Num(self.node_count as f64)),
            ("paths".to_owned(), Json::Arr(entries)),
        ])
    }
}

impl FromJson for DocPaths {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let Some(root) = value.get("root").and_then(Json::as_str) else {
            return err(format!("document record needs a \"root\" string: {value}"));
        };
        let mut doc = DocPaths {
            root_label: root.to_owned(),
            node_count: get_num(value, "nodes")? as usize,
            ..DocPaths::default()
        };
        let Some(entries) = value.get("paths").and_then(Json::as_arr) else {
            return err(format!("document record needs a \"paths\" array: {value}"));
        };
        for entry in entries {
            let Some(path_value) = entry.get("p") else {
                return err(format!("path entry needs a \"p\" field: {entry}"));
            };
            let path = path_from(path_value)?;
            let mult = get_num(entry, "m")? as u32;
            let pos_sum = get_num(entry, "s")?;
            let pos_count = get_num(entry, "n")? as u64;
            if mult > 0 {
                doc.multiplicity.insert(path.clone(), mult);
            }
            if pos_count > 0 {
                doc.positions.insert(path.clone(), (pos_sum, pos_count));
            }
            if let Some(seqs) = entry.get("q").and_then(Json::as_arr) {
                let mut sequences = Vec::with_capacity(seqs.len());
                for seq in seqs {
                    sequences.push(path_from(seq)?);
                }
                doc.child_sequences.insert(path.clone(), sequences);
            }
            doc.paths.insert(path);
        }
        Ok(doc)
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
    doc.to_json().to_string().into_bytes()
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
    fn doc_serialization_is_canonical() {
        // Two extractions of the same document serialize identically even
        // though HashSet/HashMap iteration order may differ between them.
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
        ] {
            assert!(doc_from_record(bad).is_err(), "{:?}", String::from_utf8_lossy(bad));
        }
    }
}
