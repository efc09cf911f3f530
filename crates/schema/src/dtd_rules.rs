//! DTD derivation from a majority schema (Section 3.3).
//!
//! Two rules turn the frequent-path tree `T_F` into element content models:
//!
//! * **Ordering rule** — the children `q₁ … q_m` of a node `p` are ordered
//!   by the average position at which each `qᵢ` occurs as a child of `p`
//!   across the documents containing the prefix;
//! * **Repetitive elements** — using the multiplicity recorded during path
//!   extraction: `rep(T_D, p) = 1` iff the document contains `⟨p, num⟩`
//!   with `num ≥ repThreshold` (the paper finds 3 useful, citing XTRACT);
//!   `mult(e)` is the fraction of prefix-containing documents with
//!   `rep = 1`, and `mult(e) > multThreshold` (0.5) makes the element `e+`.
//!
//! Because every path in `T_F` is frequent, no element is optional by
//! default; the same multiplicity information *can* mark elements optional
//! if desired — [`DtdConfig::optional_below`] enables that extension, and
//! per-label unification (see [`derive_dtd`]) introduces optionality where
//! homonym contexts disagree. [`DtdConfig::group_patterns`] additionally
//! enables the XTRACT-style `(e1, e2)+` patterns the paper's Section 3.3
//! closes with. Every derived element allows leading `#PCDATA` (the
//! conversion stores recovered text in `val` attributes, but paper-style
//! DTDs spell the text slot explicitly, e.g.
//! `<!ELEMENT resume ((#PCDATA), contact+, ...)>`).
//!
//! Both rules read only per-path sums over documents — position sums and
//! counts, document frequencies, and documents per recorded multiplicity
//! — the same associative algebra mining reads. The derivation therefore
//! runs over a [`DtdView`] ([`crate::PathTable`], [`crate::CorpusIndex`]
//! or [`crate::ShardedCorpus`]) in O(schema paths) lookups and never walks
//! the documents; only the order-dependent group-pattern extension reads
//! them. `webre-check`'s `shard-merge-vs-batch` oracle holds every view
//! equal to a per-document scan of the same rules.

use crate::frequent::CorpusView;
use crate::majority::MajoritySchema;
use crate::paths::DocPaths;
use crate::sharded::{PathStats, PathTable};
use webre_xml::{ContentExpr, Dtd};

/// The per-path aggregates DTD derivation reads, beside the miner's
/// [`CorpusView`]. [`crate::CorpusIndex`] and [`PathTable`] answer from
/// their own map; [`crate::ShardedCorpus`] sums its shards' answers.
pub trait DtdView: CorpusView {
    /// The aggregate of `path` over every document of the view (all
    /// zero when no document contains it).
    fn path_stats(&self, path: &[String]) -> PathStats;
}

/// Thresholds for DTD derivation.
#[derive(Clone, Copy, Debug)]
pub struct DtdConfig {
    /// `⟨p, num⟩ ≥ repThreshold` marks a repetitive occurrence (paper: 3).
    pub rep_threshold: u32,
    /// `mult(e) > multThreshold` makes the element `e+` (paper: 0.5).
    pub mult_threshold: f64,
    /// If set, an element present in fewer than this fraction of its
    /// parent's documents becomes optional (`e?`) — the paper's optional
    /// extension. `None` keeps every frequent element required.
    pub optional_below: Option<f64>,
    /// Detect repetitive *group* patterns like `(degree, date)+` from the
    /// recorded child sequences (the paper's closing Section 3.3 remark:
    /// "repetitive structures of more general types, e.g., of the form
    /// (e1,e2)*" à la XTRACT). When a group pattern explains a majority of
    /// the observed child sequences, it replaces the per-element rules for
    /// that node.
    pub group_patterns: bool,
}

impl Default for DtdConfig {
    fn default() -> Self {
        DtdConfig {
            rep_threshold: 3,
            mult_threshold: 0.5,
            optional_below: None,
            group_patterns: false,
        }
    }
}

/// The smallest period of `seq`: the shortest prefix `g` with
/// `seq = g^k`. Returns the period length.
fn smallest_period(seq: &[String]) -> usize {
    'outer: for p in 1..=seq.len() {
        if !seq.len().is_multiple_of(p) {
            continue;
        }
        for (i, label) in seq.iter().enumerate() {
            if *label != seq[i % p] {
                continue 'outer;
            }
        }
        return p;
    }
    seq.len()
}

/// Tries to explain the child sequences of a node as repetitions of one
/// group `g` (with varying repeat counts). Returns the group when:
/// * every element mentioned belongs to the schema's children of the node,
/// * a strict majority (> `mult_threshold`) of the sequences are exact
///   repetitions of the same group, and
/// * at least one sequence repeats the group more than once (otherwise the
///   plain per-element rules describe the node better).
fn detect_group_pattern(
    sequences: &[Vec<String>],
    allowed: &[String],
    mult_threshold: f64,
) -> Option<Vec<String>> {
    let first = sequences.iter().find(|s| !s.is_empty())?;
    let period = smallest_period(first);
    let group: Vec<String> = first[..period].to_vec();
    if group.len() < 2 || group.iter().any(|l| !allowed.contains(l)) {
        return None;
    }
    let mut matching = 0usize;
    let mut repeated = false;
    for seq in sequences {
        if seq.len().is_multiple_of(group.len())
            && seq
                .iter()
                .enumerate()
                .all(|(i, l)| *l == group[i % group.len()])
        {
            matching += 1;
            if seq.len() > group.len() {
                repeated = true;
            }
        }
    }
    (repeated && (matching as f64) > mult_threshold * sequences.len() as f64)
        .then_some(group)
}

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

/// Derives a DTD from a majority schema and the corpus it was mined from.
///
/// DTD element declarations are *global per name*, while the majority
/// schema is a tree in which the same label may occur on several paths with
/// different children (the paper's homonyms, e.g. `date` under `education`
/// versus elsewhere). The derivation therefore **unifies** all schema nodes
/// sharing a label into one content model — the schema-unification step the
/// paper defers to its companion thesis [13]: children are unioned, the
/// ordering rule averages positions over every context, the repetition rule
/// fires if any context shows repetition, and a child missing from some
/// context becomes optional (required for soundness: a document following
/// the child-free context must still validate).
///
/// Aggregates the corpus into one [`PathTable`] in a single pass, then
/// runs [`derive_dtd_from`] over it.
pub fn derive_dtd(schema: &MajoritySchema, corpus: &[DocPaths], config: &DtdConfig) -> Dtd {
    webre_obs::span(webre_obs::stage::DERIVE_DTD, || {
        derive_unified(schema, &PathTable::from_docs(corpus), || corpus, config)
    })
}

/// [`derive_dtd`] over any [`DtdView`] — a live index, a sharded corpus
/// or a merged table.
///
/// Every statistic the two rules consume is an associative aggregate
/// over documents, so every view of the same document multiset derives
/// the byte-identical DTD. `docs` is called only when
/// [`DtdConfig::group_patterns`] is set: group detection seeds from the
/// *first* non-empty child sequence, so it reads the documents in the
/// order `docs` yields them and the derived DTD depends on that order. A
/// view without documents (a [`PathTable`]) passes an empty iterator and
/// gets the per-element rules.
///
/// The derivation runs under a `derive-dtd` span.
pub fn derive_dtd_from<'a, D: IntoIterator<Item = &'a DocPaths>>(
    schema: &MajoritySchema,
    view: &(impl DtdView + ?Sized),
    docs: impl FnOnce() -> D,
    config: &DtdConfig,
) -> Dtd {
    webre_obs::span(webre_obs::stage::DERIVE_DTD, || {
        derive_unified(schema, view, docs, config)
    })
}

/// The derivation itself: one content model per label.
fn derive_unified<'a, D: IntoIterator<Item = &'a DocPaths>>(
    schema: &MajoritySchema,
    view: &(impl DtdView + ?Sized),
    docs: impl FnOnce() -> D,
    config: &DtdConfig,
) -> Dtd {
    let mut dtd = Dtd::new(schema.root_label());
    let group_docs: Option<Vec<&DocPaths>> =
        config.group_patterns.then(|| docs().into_iter().collect());

    // Group schema nodes by label, preserving first-seen (pre-order) order.
    let mut labels: Vec<String> = Vec::new();
    let mut nodes_by_label: std::collections::HashMap<String, Vec<webre_tree::NodeId>> =
        std::collections::HashMap::new();
    for id in schema.tree.descendants(schema.tree.root()) {
        let label = schema.tree.value(id).label.clone();
        if !labels.contains(&label) {
            labels.push(label.clone());
        }
        nodes_by_label.entry(label).or_default().push(id);
    }

    for label in labels {
        let nodes = &nodes_by_label[&label];

        // XTRACT-style extension: a repeating group pattern takes
        // precedence over the per-element ordering/repetition rules, but
        // only when it holds across every context of the label.
        if let Some(docs) = &group_docs {
            if let Some(content) = group_pattern_content(schema, docs, nodes, config) {
                dtd.declare(label, content);
                continue;
            }
        }

        // Aggregate children over all contexts of this label.
        let mut child_order: Vec<String> = Vec::new();
        let mut agg: std::collections::HashMap<String, ChildAgg> =
            std::collections::HashMap::new();
        for &id in nodes {
            let prefix = schema.path_of(id);
            let prefix_docs = view.frequency(&prefix).max(1);
            for child in schema.tree.children(id) {
                let child_label = schema.tree.value(child).label.clone();
                let mut path = prefix.clone();
                path.push(child_label.clone());
                if !child_order.contains(&child_label) {
                    child_order.push(child_label.clone());
                }
                let entry = agg.entry(child_label).or_default();
                let stats = view.path_stats(&path);
                entry.pos_sum += stats.pos_sum;
                entry.pos_count += stats.pos_count;
                // A document lacking the path has multiplicity 0, so a
                // zero threshold counts every document of the corpus.
                let rep_docs = if config.rep_threshold == 0 {
                    view.doc_count()
                } else {
                    stats.docs_with_multiplicity_at_least(config.rep_threshold)
                };
                let path_docs = stats.frequency;
                if rep_docs as f64 > config.mult_threshold * path_docs.max(1) as f64 {
                    entry.repetitive = true;
                }
                entry.contexts += 1;
                entry.presence = entry
                    .presence
                    .max(path_docs as f64 / prefix_docs as f64);
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

/// Group-pattern content model for a label, if one group explains every
/// context's sequences.
fn group_pattern_content(
    schema: &MajoritySchema,
    docs: &[&DocPaths],
    nodes: &[webre_tree::NodeId],
    config: &DtdConfig,
) -> Option<ContentExpr> {
    let mut allowed: Vec<String> = Vec::new();
    let mut sequences: Vec<Vec<String>> = Vec::new();
    for &id in nodes {
        for c in schema.tree.children(id) {
            let l = schema.tree.value(c).label.clone();
            if !allowed.contains(&l) {
                allowed.push(l);
            }
        }
        let prefix = schema.path_of(id);
        for doc in docs {
            if let Some(entry) = doc.entry(&prefix) {
                sequences.extend(doc.label_sequences(entry));
            }
        }
    }
    if sequences.is_empty() {
        return None;
    }
    let group = detect_group_pattern(&sequences, &allowed, config.mult_threshold)?;
    let body = ContentExpr::Plus(Box::new(ContentExpr::Seq(
        group.into_iter().map(ContentExpr::Name).collect(),
    )));
    Some(ContentExpr::Seq(vec![ContentExpr::PcData, body]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequent::FrequentPathMiner;
    use crate::paths::extract_paths;
    use webre_xml::parse_xml;

    fn corpus(xmls: &[&str]) -> Vec<DocPaths> {
        xmls.iter()
            .map(|x| extract_paths(&parse_xml(x).unwrap()))
            .collect()
    }

    fn mine(corpus: &[DocPaths], sup: f64) -> MajoritySchema {
        FrequentPathMiner {
            sup_threshold: sup,
            ratio_threshold: 0.0,
            ..Default::default()
        }
        .mine(corpus)
        .unwrap()
        .schema
    }

    #[test]
    fn leaves_are_pcdata() {
        let docs = corpus(&["<r><a/></r>", "<r><a/></r>"]);
        let dtd = derive_dtd(&mine(&docs, 0.5), &docs, &DtdConfig::default());
        assert_eq!(dtd.content_of("a"), Some(&ContentExpr::PcData));
    }

    #[test]
    fn ordering_follows_average_position() {
        // b usually precedes a.
        let docs = corpus(&[
            "<r><b/><a/></r>",
            "<r><b/><a/></r>",
            "<r><a/><b/></r>",
        ]);
        let dtd = derive_dtd(&mine(&docs, 0.5), &docs, &DtdConfig::default());
        let decl = dtd.elements.get("r").unwrap().to_string();
        assert_eq!(decl, "<!ELEMENT r ((#PCDATA), b, a)>");
    }

    #[test]
    fn repetition_marks_plus() {
        // Three or more a-siblings in most documents → a+.
        let docs = corpus(&[
            "<r><a/><a/><a/><b/></r>",
            "<r><a/><a/><a/><a/><b/></r>",
            "<r><a/><b/></r>",
        ]);
        let dtd = derive_dtd(&mine(&docs, 0.5), &docs, &DtdConfig::default());
        let decl = dtd.elements.get("r").unwrap().to_string();
        assert_eq!(decl, "<!ELEMENT r ((#PCDATA), a+, b)>");
    }

    #[test]
    fn repetition_below_threshold_stays_single() {
        // Only two siblings: below the repThreshold of 3.
        let docs = corpus(&["<r><a/><a/></r>", "<r><a/><a/></r>"]);
        let dtd = derive_dtd(&mine(&docs, 0.5), &docs, &DtdConfig::default());
        let decl = dtd.elements.get("r").unwrap().to_string();
        assert_eq!(decl, "<!ELEMENT r ((#PCDATA), a)>");
    }

    #[test]
    fn lower_rep_threshold_changes_outcome() {
        let docs = corpus(&["<r><a/><a/></r>", "<r><a/><a/></r>"]);
        let config = DtdConfig {
            rep_threshold: 2,
            ..DtdConfig::default()
        };
        let dtd = derive_dtd(&mine(&docs, 0.5), &docs, &config);
        assert_eq!(
            dtd.elements.get("r").unwrap().to_string(),
            "<!ELEMENT r ((#PCDATA), a+)>"
        );
    }

    #[test]
    fn optional_extension_marks_rare_elements() {
        // b present in 2 of 4 documents that contain r.
        let docs = corpus(&[
            "<r><a/><b/></r>",
            "<r><a/><b/></r>",
            "<r><a/></r>",
            "<r><a/></r>",
        ]);
        let schema = mine(&docs, 0.4);
        let strict = derive_dtd(&schema, &docs, &DtdConfig::default());
        assert_eq!(
            strict.elements.get("r").unwrap().to_string(),
            "<!ELEMENT r ((#PCDATA), a, b)>"
        );
        let optional = derive_dtd(
            &schema,
            &docs,
            &DtdConfig {
                optional_below: Some(0.75),
                ..DtdConfig::default()
            },
        );
        assert_eq!(
            optional.elements.get("r").unwrap().to_string(),
            "<!ELEMENT r ((#PCDATA), a, b?)>"
        );
    }

    #[test]
    fn derived_dtd_validates_conforming_documents() {
        let docs = corpus(&[
            "<r><a/><a/><a/><b><c/></b></r>",
            "<r><a/><a/><a/><b><c/></b></r>",
        ]);
        let dtd = derive_dtd(&mine(&docs, 0.5), &docs, &DtdConfig::default());
        let doc = parse_xml("<r><a/><a/><b><c/></b></r>").unwrap();
        assert!(
            webre_xml::validate::conforms(&doc, &dtd),
            "{}",
            dtd.to_dtd_string()
        );
        let bad = parse_xml("<r><b><c/></b><a/></r>").unwrap();
        assert!(!webre_xml::validate::conforms(&bad, &dtd));
    }

    #[test]
    fn smallest_period_basics() {
        let seq = |labels: &[&str]| -> Vec<String> {
            labels.iter().map(|s| (*s).to_owned()).collect()
        };
        assert_eq!(smallest_period(&seq(&["a", "b", "a", "b"])), 2);
        assert_eq!(smallest_period(&seq(&["a", "a", "a"])), 1);
        assert_eq!(smallest_period(&seq(&["a", "b", "c"])), 3);
        assert_eq!(smallest_period(&seq(&["a", "b", "a"])), 3);
    }

    #[test]
    fn group_pattern_detected() {
        // Alternating degree/date children — the (e1, e2)+ case the paper
        // mentions at the end of Section 3.3.
        let docs = corpus(&[
            "<r><e><d/><t/><d/><t/></e></r>",
            "<r><e><d/><t/><d/><t/><d/><t/></e></r>",
            "<r><e><d/><t/></e></r>",
        ]);
        let schema = mine(&docs, 0.5);
        let config = DtdConfig {
            group_patterns: true,
            ..DtdConfig::default()
        };
        let dtd = derive_dtd(&schema, &docs, &config);
        assert_eq!(
            dtd.elements.get("e").unwrap().to_string(),
            "<!ELEMENT e ((#PCDATA), (d, t)+)>"
        );
        // Validation accepts any repeat count.
        let doc = parse_xml("<r><e><d/><t/><d/><t/><d/><t/><d/><t/></e></r>").unwrap();
        assert!(webre_xml::validate::conforms(&doc, &dtd));
        let bad = parse_xml("<r><e><d/><d/></e></r>").unwrap();
        assert!(!webre_xml::validate::conforms(&bad, &dtd));
    }

    #[test]
    fn group_pattern_disabled_by_default() {
        let docs = corpus(&[
            "<r><e><d/><t/><d/><t/></e></r>",
            "<r><e><d/><t/><d/><t/></e></r>",
        ]);
        let schema = mine(&docs, 0.5);
        let dtd = derive_dtd(&schema, &docs, &DtdConfig::default());
        assert!(!dtd.elements.get("e").unwrap().to_string().contains("(d, t)+"));
    }

    #[test]
    fn group_pattern_falls_back_on_irregular_sequences() {
        // Half the sequences do not follow the group: fall back to the
        // plain ordering/repetition rules.
        let docs = corpus(&[
            "<r><e><d/><t/><d/><t/></e></r>",
            "<r><e><t/><d/></e></r>",
            "<r><e><t/><t/><d/></e></r>",
            "<r><e><t/><d/><d/></e></r>",
        ]);
        let schema = mine(&docs, 0.5);
        let config = DtdConfig {
            group_patterns: true,
            ..DtdConfig::default()
        };
        let dtd = derive_dtd(&schema, &docs, &config);
        assert!(
            !dtd.elements.get("e").unwrap().to_string().contains("(d, t)+"),
            "{}",
            dtd.to_dtd_string()
        );
    }

    #[test]
    fn group_pattern_requires_actual_repetition() {
        // Every document has exactly one (d, t) pair: plain rules suffice,
        // no group pattern should be emitted.
        let docs = corpus(&["<r><e><d/><t/></e></r>", "<r><e><d/><t/></e></r>"]);
        let schema = mine(&docs, 0.5);
        let config = DtdConfig {
            group_patterns: true,
            ..DtdConfig::default()
        };
        let dtd = derive_dtd(&schema, &docs, &config);
        assert_eq!(
            dtd.elements.get("e").unwrap().to_string(),
            "<!ELEMENT e ((#PCDATA), d, t)>"
        );
    }

    #[test]
    fn homonym_labels_unify_into_one_declaration() {
        // `d` occurs under `e` with a child `x`, and directly under `r` as
        // a leaf. The single DTD declaration for `d` must admit both
        // contexts: x becomes optional.
        let docs = corpus(&[
            "<r><e><d><x/></d></e><d/></r>",
            "<r><e><d><x/></d></e><d/></r>",
        ]);
        let dtd = derive_dtd(&mine(&docs, 0.5), &docs, &DtdConfig::default());
        assert_eq!(
            dtd.elements.get("d").unwrap().to_string(),
            "<!ELEMENT d ((#PCDATA), x?)>"
        );
        // Both original documents validate against the unified DTD.
        for xml in [
            "<r><e><d><x/></d></e><d/></r>",
            "<r><e><d><x/></d></e><d/></r>",
        ] {
            let doc = parse_xml(xml).unwrap();
            assert!(
                webre_xml::validate::conforms(&doc, &dtd),
                "{xml} vs
{}",
                dtd.to_dtd_string()
            );
        }
    }

    #[test]
    fn sharded_derivation_equals_batch_for_every_split() {
        // The derivation rules consume only associative aggregates, so
        // any split of the corpus into shards, and the merge of the
        // per-split tables, must derive the identical DTD (group_patterns
        // off — the default — is the documented scope).
        let docs = corpus(&[
            "<r><a/><a/><a/><b><c/></b></r>",
            "<r><b><c/></b><a/></r>",
            "<r><a/><a/><a/><b><c/></b></r>",
            "<s><a/></s>",
            "<r><a/><b><c/><c/><c/></b></r>",
        ]);
        let schema = mine(&docs, 0.4);
        let split = |parts: &[&[DocPaths]], config: &DtdConfig| {
            let mut sharded = crate::ShardedCorpus::new(parts.len());
            for (shard, part) in parts.iter().enumerate() {
                for doc in *part {
                    sharded.push_to(shard, doc.clone());
                }
            }
            let tables: Vec<PathTable> = parts.iter().map(|p| PathTable::from_docs(*p)).collect();
            let merged = PathTable::merged(&tables);
            let by_table = derive_dtd_from(&schema, &merged, std::iter::empty, config);
            let by_shards = derive_dtd_from(&schema, &sharded, || sharded.docs(), config);
            assert_eq!(by_table.to_dtd_string(), by_shards.to_dtd_string());
            by_shards.to_dtd_string()
        };
        for config in [
            DtdConfig::default(),
            DtdConfig {
                rep_threshold: 2,
                optional_below: Some(0.75),
                ..DtdConfig::default()
            },
        ] {
            let batch = derive_dtd(&schema, &docs, &config).to_dtd_string();
            for at in 0..=docs.len() {
                let (left, right) = docs.split_at(at);
                assert_eq!(batch, split(&[left, right], &config), "split at {at}");
            }
            // Three-way split, shards of unequal size.
            assert_eq!(batch, split(&[&docs[..1], &docs[1..4], &docs[4..]], &config));
        }
    }

    #[test]
    fn nested_elements_get_their_own_declarations() {
        let docs = corpus(&["<r><e><d/><i/></e></r>", "<r><e><d/><i/></e></r>"]);
        let dtd = derive_dtd(&mine(&docs, 0.5), &docs, &DtdConfig::default());
        assert_eq!(dtd.len(), 4);
        assert!(dtd.content_of("e").is_some());
        assert_eq!(dtd.content_of("d"), Some(&ContentExpr::PcData));
    }
}
