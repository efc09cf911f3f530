//! Metamorphic invariants over schema discovery: transformations of the
//! corpus with a known effect on the mining outcome.
//!
//! Unlike the differential oracles, these need no reference
//! implementation — the *relation between two runs* of the production
//! miner is the specification.

use crate::oracles::random_xml_corpus;
use webre_schema::{doc_frequency, extract_paths, DocPaths, FrequentPathMiner, MajoritySchema};
use webre_substrate::rand::rngs::StdRng;
use webre_substrate::rand::seq::SliceRandom;
use webre_substrate::rand::Rng;

fn mine(corpus: &[DocPaths]) -> Option<MajoritySchema> {
    FrequentPathMiner {
        sup_threshold: 0.5,
        ratio_threshold: 0.3,
        constraints: None,
        max_len: None,
    }
    .mine(corpus)
    .map(|o| o.schema)
}

/// The full path/support view of a schema, for exact comparison.
fn schema_view(schema: &MajoritySchema) -> Vec<(Vec<String>, f64)> {
    let mut view: Vec<(Vec<String>, f64)> = schema
        .paths()
        .into_iter()
        .map(|p| {
            let node = schema.find(&p).expect("path from schema");
            (p, schema.tree.value(node).support)
        })
        .collect();
    view.sort_by(|a, b| a.0.cmp(&b.0));
    view
}

/// Invariant 1 — removing a document decrements the document frequency of
/// exactly the paths that document contains, and never increases any
/// path's frequency.
pub fn remove_document(rng: &mut StdRng) -> Result<(), String> {
    let docs = random_xml_corpus(rng);
    let corpus: Vec<DocPaths> = docs.iter().map(extract_paths).collect();
    let victim = rng.gen_range(0..corpus.len());
    let reduced: Vec<DocPaths> = corpus
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, d)| d.clone())
        .collect();
    // Every path known to the full corpus.
    let mut universe: Vec<&Vec<String>> =
        corpus.iter().flat_map(DocPaths::paths).collect();
    universe.sort();
    universe.dedup();
    for path in universe {
        let before = doc_frequency(&corpus, path);
        let after = doc_frequency(&reduced, path);
        let expected = before - usize::from(corpus[victim].contains(path));
        if after != expected {
            return Err(format!(
                "removing document {victim} changed freq({}) from {before} to {after}, \
                 expected {expected}",
                path.join("/")
            ));
        }
        if after > before {
            return Err(format!(
                "removing a document increased freq({}) from {before} to {after}",
                path.join("/")
            ));
        }
    }
    Ok(())
}

/// Invariant 2 — duplicating the corpus preserves the majority schema
/// exactly: every support is `2f/2n = f/n`, so paths and supports are
/// bit-identical.
pub fn duplicate_corpus(rng: &mut StdRng) -> Result<(), String> {
    let docs = random_xml_corpus(rng);
    let corpus: Vec<DocPaths> = docs.iter().map(extract_paths).collect();
    let doubled: Vec<DocPaths> = corpus.iter().chain(corpus.iter()).cloned().collect();
    match (mine(&corpus), mine(&doubled)) {
        (None, None) => Ok(()),
        (Some(a), Some(b)) => {
            let (va, vb) = (schema_view(&a), schema_view(&b));
            if va != vb {
                return Err(format!(
                    "duplicating the corpus changed the schema\n  single: {va:?}\n  doubled: {vb:?}"
                ));
            }
            Ok(())
        }
        (a, b) => Err(format!(
            "duplicating the corpus changed mineability: single={}, doubled={}",
            a.is_some(),
            b.is_some()
        )),
    }
}

/// Invariant 3 — permuting document order is a complete no-op: same
/// schema paths, same supports, and the same derived DTD.
pub fn permute_order(rng: &mut StdRng) -> Result<(), String> {
    let docs = random_xml_corpus(rng);
    let corpus: Vec<DocPaths> = docs.iter().map(extract_paths).collect();
    let mut shuffled = corpus.clone();
    shuffled.shuffle(rng);
    match (mine(&corpus), mine(&shuffled)) {
        (None, None) => Ok(()),
        (Some(a), Some(b)) => {
            let (va, vb) = (schema_view(&a), schema_view(&b));
            if va != vb {
                return Err(format!(
                    "permuting document order changed the schema\n  original: {va:?}\n  shuffled: {vb:?}"
                ));
            }
            let config = webre_schema::DtdConfig::default();
            let dtd_a = webre_schema::derive_dtd(&a, &corpus, &config);
            let dtd_b = webre_schema::derive_dtd(&b, &shuffled, &config);
            if dtd_a != dtd_b {
                return Err(format!(
                    "permuting document order changed the derived DTD\n  original:\n{}\n  shuffled:\n{}",
                    dtd_a.to_dtd_string(),
                    dtd_b.to_dtd_string()
                ));
            }
            Ok(())
        }
        (a, b) => Err(format!(
            "permuting document order changed mineability: original={}, shuffled={}",
            a.is_some(),
            b.is_some()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_substrate::rand::SeedableRng;

    #[test]
    fn invariants_hold_on_many_seeds() {
        for seed in 0..60u64 {
            remove_document(&mut StdRng::seed_from_u64(seed)).unwrap();
            duplicate_corpus(&mut StdRng::seed_from_u64(seed)).unwrap();
            permute_order(&mut StdRng::seed_from_u64(seed)).unwrap();
        }
    }
}
