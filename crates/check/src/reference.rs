//! Independent reference implementations the differential oracles compare
//! the production code against.
//!
//! These are deliberately written with *different algorithms* than the
//! production crates — a position-set regex matcher instead of Brzozowski
//! derivatives, a flat enumerate-and-filter miner instead of the
//! recursive candidate-extension miner, a per-document scan of the DTD
//! rules instead of per-path aggregates, a per-node rescan of sibling
//! lists with a `Json`-tree record encoder and decoder instead of one
//! linear walk, a direct writer and a pull reader, and a memoised
//! rightmost-root forest recursion instead of Zhang–Shasha's keyroot
//! tables — so that a shared bug cannot hide by construction.

use std::collections::{BTreeSet, HashMap, HashSet};
use webre_schema::{doc_frequency, DocPaths, DtdConfig, LabelPath, MajoritySchema, PathEntry};
use webre_substrate::json::{Json, JsonError};
use webre_tree::{NodeId, Tree};
use webre_xml::{ContentExpr, Dtd, XmlDocument, XmlNode};

// ---------------------------------------------------------------------------
// Reference content-model matcher
// ---------------------------------------------------------------------------

/// All positions reachable after matching `expr` against `tokens`
/// starting from each position in `from` (sorted, deduplicated). This is
/// a naive backtracking matcher in position-set form: it explores every
/// alternative instead of taking derivatives.
fn step(expr: &ContentExpr, tokens: &[&str], from: &BTreeSet<usize>) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for &pos in from {
        match expr {
            ContentExpr::Empty => {
                out.insert(pos);
            }
            ContentExpr::PcData => {
                // Zero or more consecutive text tokens.
                let mut p = pos;
                out.insert(p);
                while p < tokens.len() && tokens[p] == "#PCDATA" {
                    p += 1;
                    out.insert(p);
                }
            }
            ContentExpr::Name(n) => {
                if pos < tokens.len() && tokens[pos] == n {
                    out.insert(pos + 1);
                }
            }
            ContentExpr::Seq(items) => {
                let mut current: BTreeSet<usize> = [pos].into();
                for item in items {
                    current = step(item, tokens, &current);
                    if current.is_empty() {
                        break;
                    }
                }
                out.extend(current);
            }
            ContentExpr::Choice(items) => {
                let here: BTreeSet<usize> = [pos].into();
                for item in items {
                    out.extend(step(item, tokens, &here));
                }
            }
            ContentExpr::Opt(inner) => {
                out.insert(pos);
                out.extend(step(inner, tokens, &[pos].into()));
            }
            ContentExpr::Star(inner) => {
                // Iterate to a fixpoint; positions are bounded by the
                // token count so this terminates even for nullable inner
                // expressions.
                let mut seen: BTreeSet<usize> = [pos].into();
                let mut frontier = seen.clone();
                while !frontier.is_empty() {
                    let next = step(inner, tokens, &frontier);
                    frontier = next.difference(&seen).copied().collect();
                    seen.extend(frontier.iter().copied());
                }
                out.extend(seen);
            }
            ContentExpr::Plus(inner) => {
                let once = step(inner, tokens, &[pos].into());
                let star = ContentExpr::Star(inner.clone());
                out.extend(step(&star, tokens, &once));
            }
        }
    }
    out
}

/// Reference semantics for "token sequence matches content model":
/// some backtracking path consumes every token.
pub fn ref_matches(expr: &ContentExpr, tokens: &[&str]) -> bool {
    step(expr, tokens, &[0usize].into()).contains(&tokens.len())
}

/// Samples one word *from the language* of `expr` (None when the
/// expression denotes the empty language, which our generators never
/// build). Used to feed the matchers accepting inputs, not just noise.
pub fn sample_word(
    expr: &ContentExpr,
    rng: &mut webre_substrate::rand::rngs::StdRng,
) -> Vec<String> {
    use webre_substrate::rand::Rng;
    match expr {
        ContentExpr::Empty => Vec::new(),
        ContentExpr::PcData => vec!["#PCDATA"; rng.gen_range(0..=2usize)]
            .into_iter()
            .map(str::to_owned)
            .collect(),
        ContentExpr::Name(n) => vec![n.clone()],
        ContentExpr::Seq(items) => items.iter().flat_map(|i| sample_word(i, rng)).collect(),
        ContentExpr::Choice(items) => {
            let i = rng.gen_range(0..items.len());
            sample_word(&items[i], rng)
        }
        ContentExpr::Opt(inner) => {
            if rng.gen_bool(0.5) {
                sample_word(inner, rng)
            } else {
                Vec::new()
            }
        }
        ContentExpr::Star(inner) => (0..rng.gen_range(0..=2u32))
            .flat_map(|_| sample_word(inner, rng))
            .collect(),
        ContentExpr::Plus(inner) => (0..rng.gen_range(1..=3u32))
            .flat_map(|_| sample_word(inner, rng))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Reference frequent-path miner
// ---------------------------------------------------------------------------

/// The reference mining result: the majority root plus every frequent
/// path with its document support.
#[derive(Clone, Debug, PartialEq)]
pub struct RefMined {
    pub root_label: String,
    /// Frequent paths with their support fractions, keyed for set
    /// comparison against the production schema.
    pub paths: Vec<(LabelPath, f64)>,
}

/// Brute-force enumerate-and-count miner: collect *every* label path that
/// occurs anywhere in the corpus, then keep a path iff all of
///
/// * it starts at the majority root,
/// * its support is at least `sup_threshold`,
/// * its support ratio w.r.t. its parent is at least `ratio_threshold`,
/// * its parent is kept (frequency is only anti-monotone along kept
///   prefixes — same closure the production miner walks), and
/// * it is no longer than `max_len` nodes, when set.
///
/// Returns `None` exactly when the production miner does: empty corpus or
/// the root itself below the support threshold.
pub fn ref_mine(
    corpus: &[DocPaths],
    sup_threshold: f64,
    ratio_threshold: f64,
    max_len: Option<usize>,
) -> Option<RefMined> {
    if corpus.is_empty() {
        return None;
    }
    // Majority root: highest document count, ties to the lexicographically
    // smallest label.
    let roots: BTreeSet<&str> = corpus.iter().map(|d| d.root_label.as_str()).collect();
    let root_label = roots
        .iter()
        .map(|label| {
            let count = corpus.iter().filter(|d| d.root_label == *label).count();
            (count, *label)
        })
        // max_by_key on (count, Reverse(label)) — spelled out to keep the
        // tie-break direction obvious.
        .fold(None::<(usize, &str)>, |best, (count, label)| match best {
            None => Some((count, label)),
            Some((bc, bl)) => {
                if count > bc || (count == bc && label < bl) {
                    Some((count, label))
                } else {
                    Some((bc, bl))
                }
            }
        })
        .map(|(_, label)| label.to_owned())
        .expect("non-empty corpus");

    let n = corpus.len() as f64;
    let support = |path: &LabelPath| doc_frequency(corpus, path) as f64 / n;

    let root_path = vec![root_label.clone()];
    if support(&root_path) < sup_threshold {
        return None;
    }

    // Every path present in any document, shortest first so parents are
    // decided before their extensions.
    let mut universe: Vec<&LabelPath> = corpus.iter().flat_map(DocPaths::paths).collect();
    universe.sort();
    universe.dedup();
    universe.sort_by_key(|p| p.len());

    let mut kept: Vec<(LabelPath, f64)> = vec![(root_path.clone(), support(&root_path))];
    let is_kept = |kept: &[(LabelPath, f64)], p: &[String]| kept.iter().any(|(k, _)| k == p);
    for path in universe {
        if path.len() < 2 || path[0] != root_label {
            continue;
        }
        if max_len.is_some_and(|m| path.len() > m) {
            continue;
        }
        let parent = &path[..path.len() - 1];
        if !is_kept(&kept, parent) {
            continue;
        }
        let sup = support(path);
        if sup < sup_threshold {
            continue;
        }
        let parent_sup = kept
            .iter()
            .find(|(k, _)| k == parent)
            .map(|(_, s)| *s)
            .expect("parent kept");
        let ratio = if parent_sup > 0.0 { sup / parent_sup } else { 0.0 };
        if ratio < ratio_threshold {
            continue;
        }
        kept.push((path.clone(), sup));
    }
    kept.sort_by(|a, b| a.0.cmp(&b.0));
    Some(RefMined {
        root_label,
        paths: kept,
    })
}

// ---------------------------------------------------------------------------
// Reference DTD derivation
// ---------------------------------------------------------------------------

/// Per-child aggregation across every schema node carrying one label.
#[derive(Default)]
struct ChildAgg {
    pos_sum: f64,
    pos_count: u64,
    repetitive: bool,
    /// Schema contexts (nodes of the parent label) this child occurs under.
    contexts: usize,
    /// Max presence ratio (docs with child path / docs with parent path)
    /// over the contexts, for the optional-element extension.
    presence: f64,
}

/// The Section 3.3 ordering and repetition rules, with per-label
/// unification and the optional-element extension, evaluated by scanning
/// every document for every schema edge — O(schema × corpus). This is
/// the derivation production ran before it read per-path aggregates.
///
/// [`DtdConfig::group_patterns`] is not modelled: group detection is
/// order-dependent by design and stays out of the oracle's identity.
pub fn ref_derive_dtd(schema: &MajoritySchema, corpus: &[DocPaths], config: &DtdConfig) -> Dtd {
    assert!(
        !config.group_patterns,
        "the reference derivation does not model group patterns"
    );
    let mut dtd = Dtd::new(schema.root_label());

    // Group schema nodes by label, preserving first-seen (pre-order) order.
    let mut labels: Vec<String> = Vec::new();
    let mut nodes_by_label: HashMap<String, Vec<_>> = HashMap::new();
    for id in schema.tree.descendants(schema.tree.root()) {
        let label = schema.tree.value(id).label.clone();
        if !labels.contains(&label) {
            labels.push(label.clone());
        }
        nodes_by_label.entry(label).or_default().push(id);
    }

    for label in labels {
        let nodes = &nodes_by_label[&label];

        // Aggregate children over all contexts of this label.
        let mut child_order: Vec<String> = Vec::new();
        let mut agg: HashMap<String, ChildAgg> = HashMap::new();
        for &id in nodes {
            let prefix = schema.path_of(id);
            let prefix_docs = doc_frequency(corpus, &prefix).max(1);
            for child in schema.tree.children(id) {
                let child_label = schema.tree.value(child).label.clone();
                let mut path = prefix.clone();
                path.push(child_label.clone());
                if !child_order.contains(&child_label) {
                    child_order.push(child_label.clone());
                }
                let entry = agg.entry(child_label).or_default();
                for doc in corpus {
                    if let Some(e) = doc.entry(&path) {
                        entry.pos_sum += e.pos_sum;
                        entry.pos_count += e.pos_count;
                    }
                }
                let rep_docs = corpus
                    .iter()
                    .filter(|d| d.multiplicity_of(&path) >= config.rep_threshold)
                    .count();
                let path_docs = doc_frequency(corpus, &path);
                if rep_docs as f64 > config.mult_threshold * path_docs.max(1) as f64 {
                    entry.repetitive = true;
                }
                entry.contexts += 1;
                entry.presence = entry.presence.max(path_docs as f64 / prefix_docs as f64);
            }
        }

        // Ordering rule over the aggregated positions.
        let mut children: Vec<(f64, String)> = child_order
            .into_iter()
            .map(|l| {
                let a = &agg[&l];
                let avg = if a.pos_count > 0 {
                    a.pos_sum / a.pos_count as f64
                } else {
                    f64::MAX
                };
                (avg, l)
            })
            .collect();
        children.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));

        let content = if children.is_empty() {
            ContentExpr::PcData
        } else {
            let mut items = vec![ContentExpr::PcData];
            for (_, child_label) in children {
                let a = &agg[&child_label];
                let mut expr = ContentExpr::Name(child_label);
                if a.repetitive {
                    expr = ContentExpr::Plus(Box::new(expr));
                } else if a.contexts < nodes.len()
                    || config.optional_below.is_some_and(|t| a.presence < t)
                {
                    // Unification: a child absent from some context of the
                    // label must be optional for documents following that
                    // context to validate.
                    expr = ContentExpr::Opt(Box::new(expr));
                }
                items.push(expr);
            }
            ContentExpr::Seq(items)
        };
        dtd.declare(label, content);
    }
    dtd
}

// ---------------------------------------------------------------------------
// Reference path extraction and WAL record codec
// ---------------------------------------------------------------------------

/// The path-level view of a document as four maps, one per kind of
/// bookkeeping, each keyed by its own copy of the path: the layout
/// [`DocPaths`] had before it became one sorted table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RefDocPaths {
    pub root_label: String,
    pub paths: HashSet<LabelPath>,
    pub multiplicity: HashMap<LabelPath, u32>,
    pub positions: HashMap<LabelPath, (f64, u64)>,
    /// Only non-leaf paths have an entry.
    pub child_sequences: HashMap<LabelPath, Vec<Vec<String>>>,
    pub node_count: usize,
}

impl RefDocPaths {
    /// The four-map view of a production table, keeping what the
    /// reference walk records: a multiplicity or a position sum and
    /// count only when not zero, child sequences only when there are
    /// some.
    pub fn of(doc: &DocPaths) -> Self {
        let mut out = RefDocPaths {
            root_label: doc.root_label.clone(),
            node_count: doc.node_count,
            ..RefDocPaths::default()
        };
        for entry in doc.entries() {
            let path = &entry.path;
            out.paths.insert(path.clone());
            if entry.multiplicity > 0 {
                out.multiplicity.insert(path.clone(), entry.multiplicity);
            }
            if (entry.pos_sum, entry.pos_count) != (0.0, 0) {
                out.positions
                    .insert(path.clone(), (entry.pos_sum, entry.pos_count));
            }
            if !entry.child_sequences.is_empty() {
                out.child_sequences
                    .insert(path.clone(), doc.label_sequences(entry).collect());
            }
        }
        out
    }
}

/// Path extraction by a recursive walk that finds each node's sibling
/// position and same-label multiplicity by rescanning its parent's
/// children (quadratic in the sibling count) and clones the running path
/// into every map.
pub fn ref_extract_paths(doc: &XmlDocument) -> RefDocPaths {
    fn walk(
        doc: &XmlDocument,
        id: webre_tree::NodeId,
        path: &mut LabelPath,
        out: &mut RefDocPaths,
    ) {
        let XmlNode::Element { name, .. } = doc.tree.value(id) else {
            return;
        };
        out.node_count += 1;
        path.push(name.clone());
        out.paths.insert(path.clone());
        let position = doc.tree.parent(id).map_or(0, |p| {
            doc.tree
                .children(p)
                .filter(|c| matches!(doc.tree.value(*c), XmlNode::Element { .. }))
                .take_while(|c| *c != id)
                .count()
        });
        let entry = out.positions.entry(path.clone()).or_insert((0.0, 0));
        entry.0 += position as f64;
        entry.1 += 1;
        let count = doc.tree.parent(id).map_or(1, |p| {
            doc.tree
                .children(p)
                .filter(|c| doc.label(*c) == name.as_str())
                .count() as u32
        });
        let slot = out.multiplicity.entry(path.clone()).or_insert(0);
        *slot = (*slot).max(count);
        let sequence: Vec<String> = doc
            .tree
            .children(id)
            .filter_map(|c| match doc.tree.value(c) {
                XmlNode::Element { name, .. } => Some(name.clone()),
                XmlNode::Text(_) => None,
            })
            .collect();
        if !sequence.is_empty() {
            out.child_sequences
                .entry(path.clone())
                .or_default()
                .push(sequence);
        }
        for child in doc.tree.children(id) {
            walk(doc, child, path, out);
        }
        path.pop();
    }
    let mut out = RefDocPaths {
        root_label: doc.root_name().to_owned(),
        ..RefDocPaths::default()
    };
    walk(doc, doc.root(), &mut Vec::new(), &mut out);
    out
}

/// The canonical WAL record of a document, built as a `Json` tree (paths
/// sorted, one object per path) and printed.
pub fn ref_doc_to_record(doc: &RefDocPaths) -> Vec<u8> {
    fn labels(path: &[String]) -> Json {
        Json::Arr(path.iter().map(|l| Json::Str(l.clone())).collect())
    }
    let mut paths: Vec<&LabelPath> = doc.paths.iter().collect();
    paths.sort();
    let entries: Vec<Json> = paths
        .into_iter()
        .map(|path| {
            let (pos_sum, pos_count) = doc.positions.get(path).copied().unwrap_or((0.0, 0));
            let mut fields = vec![
                ("p".to_owned(), labels(path)),
                (
                    "m".to_owned(),
                    Json::Num(f64::from(doc.multiplicity.get(path).copied().unwrap_or(0))),
                ),
                ("s".to_owned(), Json::Num(pos_sum)),
                ("n".to_owned(), Json::Num(pos_count as f64)),
            ];
            if let Some(seqs) = doc.child_sequences.get(path) {
                fields.push((
                    "q".to_owned(),
                    Json::Arr(seqs.iter().map(|seq| labels(seq)).collect()),
                ));
            }
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("root".to_owned(), Json::Str(doc.root_label.clone())),
        ("nodes".to_owned(), Json::Num(doc.node_count as f64)),
        ("paths".to_owned(), Json::Arr(entries)),
    ])
    .to_string()
    .into_bytes()
}

/// The WAL record decoder as a `Json` tree walk: parse the whole record,
/// look each field up with [`Json::get`] (so the first of duplicate keys
/// wins and unknown keys are ignored), and hand the entries, with child
/// sequences by label, to [`DocPaths::from_labelled`], which sorts them
/// and binary-searches each child's whole path.
pub fn ref_doc_from_record(bytes: &[u8]) -> Result<DocPaths, JsonError> {
    fn labels(value: &Json) -> Result<Vec<String>, JsonError> {
        let Some(items) = value.as_arr() else {
            return Err(JsonError(format!("path must be an array, got {value}")));
        };
        let mut path = Vec::with_capacity(items.len());
        for item in items {
            match item.as_str() {
                Some(label) => path.push(label.to_owned()),
                None => return Err(JsonError(format!("path label must be a string, got {item}"))),
            }
        }
        if path.is_empty() {
            return Err(JsonError("path must be non-empty".to_owned()));
        }
        Ok(path)
    }
    fn num(obj: &Json, key: &str) -> Result<f64, JsonError> {
        obj.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| JsonError(format!("missing numeric field {key:?} in {obj}")))
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|e| JsonError(format!("record is not UTF-8: {e}")))?;
    let value = Json::parse(text)?;
    let Some(root) = value.get("root").and_then(Json::as_str) else {
        return Err(JsonError(format!("document record needs a \"root\" string: {value}")));
    };
    let node_count = num(&value, "nodes")? as usize;
    let Some(items) = value.get("paths").and_then(Json::as_arr) else {
        return Err(JsonError(format!("document record needs a \"paths\" array: {value}")));
    };
    let mut entries = Vec::with_capacity(items.len());
    for item in items {
        let Some(path) = item.get("p") else {
            return Err(JsonError(format!("path entry needs a \"p\" field: {item}")));
        };
        let entry = PathEntry {
            path: labels(path)?,
            multiplicity: num(item, "m")? as u32,
            pos_sum: num(item, "s")?,
            pos_count: num(item, "n")? as u64,
            child_sequences: Vec::new(),
        };
        let sequences = match item.get("q").and_then(Json::as_arr) {
            Some(sequences) => sequences.iter().map(labels).collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        entries.push((entry, sequences));
    }
    DocPaths::from_labelled(root.to_owned(), node_count, entries)
        .map_err(|e| JsonError(format!("bad document record: {e}")))
}

// ---------------------------------------------------------------------------
// Reference tree-edit distance
// ---------------------------------------------------------------------------

/// An ordered forest of one tree, as the sequence of its root nodes.
type Forest = Vec<NodeId>;

/// Unit-cost ordered tree-edit distance (insert, delete and relabel each
/// cost 1) — the reference for `webre_map::edit_script`.
///
/// The textbook recurrence on the rightmost roots `v` of `F` and `w` of
/// `G`: `d(F, G)` is the least of deleting `v` (its children take its
/// place), inserting `w`, or pairing `v` with `w`, which costs the
/// distance between their child forests plus the distance between what
/// is left of `F` and `G` plus 1 if the labels differ. It is memoised on
/// the pair of root sequences, with no post-order numbering, leftmost
/// leaves or keyroots. Every forest the recursion reaches is a contiguous
/// run of one tree's nodes, so the memo holds `O(|A|²·|B|²)` entries:
/// meant for test-sized trees.
pub fn ref_tree_distance(a: &Tree<String>, b: &Tree<String>) -> u32 {
    forest_distance(a, b, &[a.root()], &[b.root()], &mut HashMap::new())
}

fn forest_distance(
    a: &Tree<String>,
    b: &Tree<String>,
    f: &[NodeId],
    g: &[NodeId],
    memo: &mut HashMap<(Forest, Forest), u32>,
) -> u32 {
    let (Some((&v, f_rest)), Some((&w, g_rest))) = (f.split_last(), g.split_last()) else {
        // One forest is empty: delete or insert every node of the other.
        let size: usize = f.iter().map(|&v| a.subtree_size(v)).sum::<usize>()
            + g.iter().map(|&w| b.subtree_size(w)).sum::<usize>();
        return size as u32;
    };
    let key = (f.to_vec(), g.to_vec());
    if let Some(&d) = memo.get(&key) {
        return d;
    }
    let children = |t: &Tree<String>, v: NodeId| t.children(v).collect::<Forest>();
    let without_root = |t: &Tree<String>, rest: &[NodeId], v: NodeId| {
        rest.iter().copied().chain(t.children(v)).collect::<Forest>()
    };
    let delete = forest_distance(a, b, &without_root(a, f_rest, v), g, memo) + 1;
    let insert = forest_distance(a, b, f, &without_root(b, g_rest, w), memo) + 1;
    let pair = forest_distance(a, b, &children(a, v), &children(b, w), memo)
        + forest_distance(a, b, f_rest, g_rest, memo)
        + u32::from(a.value(v) != b.value(w));
    let d = delete.min(insert).min(pair);
    memo.insert(key, d);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_xml::dtd::parse_content_expr;

    fn m(model: &str, tokens: &[&str]) -> bool {
        ref_matches(&parse_content_expr(model).unwrap(), tokens)
    }

    #[test]
    fn reference_matcher_basics() {
        assert!(m("(a, b)", &["a", "b"]));
        assert!(!m("(a, b)", &["b", "a"]));
        assert!(m("(a | b)", &["b"]));
        assert!(m("(a*)", &[]));
        assert!(m("((a, b)+, c)", &["a", "b", "a", "b", "c"]));
        assert!(!m("((a, b)+, c)", &["a", "b", "b", "c"]));
        assert!(m("(#PCDATA)", &["#PCDATA", "#PCDATA"]));
        assert!(!m("(#PCDATA)", &["a"]));
        assert!(m("EMPTY", &[]));
        assert!(!m("EMPTY", &["a"]));
    }

    #[test]
    fn star_of_nullable_terminates() {
        // (a?)* is nullable inside a star: the fixpoint loop must stop.
        assert!(m("((a?)*)", &["a", "a"]));
        assert!(m("((a?)*)", &[]));
        assert!(!m("((a?)*)", &["b"]));
    }

    #[test]
    fn sampled_words_are_accepted() {
        use webre_substrate::rand::rngs::StdRng;
        use webre_substrate::rand::SeedableRng;
        let expr = parse_content_expr("((#PCDATA), (a | b)+, c?, (d, e)*)").unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let word = sample_word(&expr, &mut rng);
            let refs: Vec<&str> = word.iter().map(String::as_str).collect();
            assert!(ref_matches(&expr, &refs), "sampled word rejected: {refs:?}");
        }
    }

    #[test]
    fn ref_mine_matches_hand_computation() {
        use webre_schema::extract_paths;
        let corpus: Vec<DocPaths> = [
            "<r><a><x/></a><b/></r>",
            "<r><a/><b/></r>",
            "<r><a/></r>",
        ]
        .iter()
        .map(|x| extract_paths(&webre_xml::parse_xml(x).unwrap()))
        .collect();
        let mined = ref_mine(&corpus, 0.5, 0.0, None).unwrap();
        assert_eq!(mined.root_label, "r");
        let paths: Vec<String> = mined.paths.iter().map(|(p, _)| p.join("/")).collect();
        // a in 3/3, b in 2/3, a/x in 1/3 (below 0.5).
        assert_eq!(paths, ["r", "r/a", "r/b"]);
    }

    #[test]
    fn ref_mine_requires_frequent_prefix() {
        use webre_schema::extract_paths;
        // x/y has support 0.5 but its parent x only 0.5 too; with
        // threshold 0.6 the parent is cut so y must not survive even if
        // some different threshold combination would admit it.
        let corpus: Vec<DocPaths> = ["<r><x><y/></x></r>", "<r><z/></r>"]
            .iter()
            .map(|x| extract_paths(&webre_xml::parse_xml(x).unwrap()))
            .collect();
        let mined = ref_mine(&corpus, 0.6, 0.0, None).unwrap();
        let paths: Vec<String> = mined.paths.iter().map(|(p, _)| p.join("/")).collect();
        assert_eq!(paths, ["r"]);
    }

    #[test]
    fn ref_mine_none_cases() {
        assert!(ref_mine(&[], 0.5, 0.0, None).is_none());
        use webre_schema::extract_paths;
        let corpus: Vec<DocPaths> = ["<r/>", "<s/>", "<t/>"]
            .iter()
            .map(|x| extract_paths(&webre_xml::parse_xml(x).unwrap()))
            .collect();
        // Majority root (lexicographic tie-break: "r") has support 1/3.
        assert!(ref_mine(&corpus, 0.5, 0.0, None).is_none());
    }
}
