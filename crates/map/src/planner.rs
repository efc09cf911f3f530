//! The tiered mapping planner: filter → exact per document.
//!
//! [`MapPlanner::plan`] always runs the cheap schema-guided transform
//! (`mapper`'s restructure/reorder/complete passes — linear-ish in
//! the document), then decides how much of the *quadratic* Zhang–Shasha
//! machinery the pair actually needs:
//!
//! * **Conformant** — the transform changed nothing structurally (the
//!   input and output label trees are equal). On identical trees the
//!   optimal mapping is forced to the identity, so the planner synthesizes
//!   the all-`Match` script at cost 0 without touching the DP.
//! * **Rejected** — the admissible lower bound from [`crate::filter`]
//!   already exceeds the reject budget. Admissibility makes this sound:
//!   `bound > budget` implies `cost > budget`, so the exact tier could
//!   never have accepted the document either. No cost or script is
//!   reported (the DP never ran).
//! * **Exact** — everything else: the full edit-script dynamic program.
//!
//! Turning the filter off (`filter: false`) only disables the two
//! short-circuits, never the semantics: the planner then runs the DP and
//! applies the *same* budget test to the exact cost, so filter-on and
//! filter-off produce byte-identical [`render_json`] output for every
//! document — an identity the `map-vs-batch` oracle and the planner tests
//! hold. Edit scripts are canonically ordered (match/relabel by source
//! index, deletes by source index, inserts by target index) for the same
//! reason.

use crate::edit_script::{edit_script, EditOp};
use crate::filter::{lower_bound, TreeProfile};
use crate::mapper::transform;
use webre_obs::{count, counter, span, stage};
use webre_schema::MajoritySchema;
use webre_substrate::json::Json;
use webre_tree::Tree;
use webre_xml::{to_xml, Dtd, XmlDocument, XmlNode};

/// Which tier resolved a planned mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapTier {
    /// Structurally unchanged by the transform; identity script, cost 0.
    Conformant,
    /// Cost provably (filter on) or actually (filter off) above budget.
    Rejected,
    /// Full Zhang–Shasha edit script.
    Exact,
}

impl MapTier {
    /// Stable wire label (used in JSON and metrics).
    pub fn label(self) -> &'static str {
        match self {
            MapTier::Conformant => "conformant",
            MapTier::Rejected => "rejected",
            MapTier::Exact => "exact",
        }
    }
}

/// The outcome of a planned mapping.
#[derive(Clone, Debug)]
pub struct PlannedMap {
    /// The mapped document (always produced; the transform is cheap).
    pub document: XmlDocument,
    /// Elements demoted (dissolved into their parent).
    pub demoted: u32,
    /// Intermediate schema elements inserted above misplaced children.
    pub wrapped: u32,
    /// Missing required elements inserted.
    pub inserted: u32,
    /// Surplus same-label siblings merged into their first occurrence.
    pub merged: u32,
    /// Parents whose children were reordered.
    pub reordered: u32,
    /// Whether the mapped document conforms to the DTD.
    pub conforms: bool,
    /// The tier that resolved this document.
    pub tier: MapTier,
    /// The admissible lower bound on the edit cost (always computed).
    pub lower_bound: u32,
    /// Exact edit cost; `None` when the document was rejected.
    pub cost: Option<u32>,
    /// Canonically ordered edit script; `None` when rejected.
    pub script: Option<Vec<EditOp>>,
}

/// Plans mappings: filter tier first, exact tier only when needed. Every
/// edit operation costs 1.
#[derive(Clone, Copy, Debug)]
pub struct MapPlanner {
    /// Reject budget: documents whose edit cost provably exceeds this are
    /// rejected without running the exact tier. `None` accepts everything.
    pub budget: Option<u32>,
    /// Whether the lower-bound short-circuits are active. Off, every
    /// document runs the exact tier (the budget still applies to the
    /// exact cost, so results are identical — just slower).
    pub filter: bool,
}

impl Default for MapPlanner {
    fn default() -> Self {
        MapPlanner {
            budget: None,
            filter: true,
        }
    }
}

impl MapPlanner {
    /// Plans the mapping of `doc` onto `schema`/`dtd`, under a
    /// [`stage::MAP`] span. The filter tier runs under a
    /// [`stage::MAP_FILTER`] span, the exact tier under
    /// [`stage::MAP_EXACT`], and exactly one of the `map_*` tier counters
    /// is incremented.
    pub fn plan(&self, doc: &XmlDocument, schema: &MajoritySchema, dtd: &Dtd) -> PlannedMap {
        span(stage::MAP, || self.plan_tiers(doc, schema, dtd))
    }

    fn plan_tiers(&self, doc: &XmlDocument, schema: &MajoritySchema, dtd: &Dtd) -> PlannedMap {
        let (mapped, stats, conforms) = transform(doc, schema, dtd);

        let (source, target, bound, identical) = span(stage::MAP_FILTER, || {
            let source = label_tree(doc);
            let target = label_tree(&mapped);
            let bound = lower_bound(&TreeProfile::of_tree(&source), &TreeProfile::of_tree(&target));
            let identical = source.subtree_eq(source.root(), &target, target.root());
            (source, target, bound, identical)
        });

        let mut planned = PlannedMap {
            document: mapped,
            demoted: stats.demoted,
            wrapped: stats.wrapped,
            inserted: stats.inserted,
            merged: stats.merged,
            reordered: stats.reordered,
            conforms,
            tier: MapTier::Exact,
            lower_bound: bound,
            cost: None,
            script: None,
        };

        if self.filter {
            if identical {
                // Identical label trees force the identity mapping: every
                // node matches itself at cost 0, which is exactly what the
                // DP would return (canonically ordered).
                planned.tier = MapTier::Conformant;
                planned.cost = Some(0);
                let nodes = planned
                    .document
                    .tree
                    .subtree_size(planned.document.root());
                planned.script =
                    Some((0..nodes).map(|i| EditOp::Match { from: i, to: i }).collect());
                count(counter::MAP_CONFORMANT, 1);
                return planned;
            }
            if let Some(budget) = self.budget {
                if bound > budget {
                    planned.tier = MapTier::Rejected;
                    count(counter::MAP_REJECTED, 1);
                    return planned;
                }
            }
        }

        let (cost, mut script) = span(stage::MAP_EXACT, || edit_script(&source, &target));
        if self.budget.is_some_and(|budget| cost > budget) {
            // Same rejection the filter would have made with a tighter
            // bound: report the bound only, never the cost/script, so the
            // response is byte-identical whichever path rejected.
            planned.tier = MapTier::Rejected;
            count(counter::MAP_REJECTED, 1);
            return planned;
        }
        canonical_sort(&mut script);
        planned.tier = if cost == 0 {
            // The DP confirmed structural identity (filter off, or trees
            // equal but filter disabled) — report it as conformant so the
            // tier label never depends on the filter switch.
            count(counter::MAP_CONFORMANT, 1);
            MapTier::Conformant
        } else {
            count(counter::MAP_EXACT, 1);
            MapTier::Exact
        };
        planned.cost = Some(cost);
        planned.script = Some(script);
        planned
    }
}

/// Converts an XML document to the label tree the filter and the edit
/// script compare: element names, with text nodes as `#PCDATA` leaves.
pub fn label_tree(doc: &XmlDocument) -> Tree<String> {
    doc.tree.map(|n| match n {
        XmlNode::Element { name, .. } => name.clone(),
        XmlNode::Text(_) => "#PCDATA".to_owned(),
    })
}

/// Canonical edit-script order: match/relabel pairs by source index, then
/// deletes by source index, then inserts by target index. An edit script
/// is a set, so reordering never changes its cost — but it makes the
/// serialized script independent of backtracking order and of which tier
/// produced it.
pub fn canonical_sort(script: &mut [EditOp]) {
    script.sort_by_key(|op| match *op {
        EditOp::Match { from, .. } | EditOp::Relabel { from, .. } => (0usize, from),
        EditOp::Delete { from } => (1, from),
        EditOp::Insert { to } => (2, to),
    });
}

/// Renders a planned mapping as the JSON document `POST /map`, `webre map
/// --json` and the `map-vs-batch` oracle reference all share — one
/// function so served and batch output are byte-identical by
/// construction. No trailing newline.
pub fn render_json(planned: &PlannedMap, budget: Option<u32>) -> String {
    let mut fields = vec![
        (
            "tier".to_owned(),
            Json::Str(planned.tier.label().to_owned()),
        ),
        ("conforms".to_owned(), Json::Bool(planned.conforms)),
        (
            "lower_bound".to_owned(),
            Json::Num(f64::from(planned.lower_bound)),
        ),
        (
            "budget".to_owned(),
            budget.map_or(Json::Null, |b| Json::Num(f64::from(b))),
        ),
        (
            "edits".to_owned(),
            Json::Obj(vec![
                ("demoted".to_owned(), Json::Num(f64::from(planned.demoted))),
                ("wrapped".to_owned(), Json::Num(f64::from(planned.wrapped))),
                (
                    "inserted".to_owned(),
                    Json::Num(f64::from(planned.inserted)),
                ),
                ("merged".to_owned(), Json::Num(f64::from(planned.merged))),
                (
                    "reordered".to_owned(),
                    Json::Num(f64::from(planned.reordered)),
                ),
            ]),
        ),
    ];
    if planned.tier != MapTier::Rejected {
        let cost = planned.cost.unwrap_or(0);
        fields.push(("cost".to_owned(), Json::Num(f64::from(cost))));
        fields.push(("xml".to_owned(), Json::Str(to_xml(&planned.document))));
        let script: Vec<Json> = planned
            .script
            .as_deref()
            .unwrap_or(&[])
            .iter()
            .map(|op| render_op(op))
            .collect();
        fields.push(("script".to_owned(), Json::Arr(script)));
    }
    Json::Obj(fields).to_string()
}

fn render_op(op: &EditOp) -> Json {
    let (kind, from, to) = match *op {
        EditOp::Match { from, to } => ("match", Some(from), Some(to)),
        EditOp::Relabel { from, to } => ("relabel", Some(from), Some(to)),
        EditOp::Delete { from } => ("delete", Some(from), None),
        EditOp::Insert { to } => ("insert", None, Some(to)),
    };
    let mut fields = vec![("op".to_owned(), Json::Str(kind.to_owned()))];
    if let Some(from) = from {
        fields.push(("from".to_owned(), Json::Num(from as f64)));
    }
    if let Some(to) = to {
        fields.push(("to".to_owned(), Json::Num(to as f64)));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_schema::{derive_dtd, extract_paths, DtdConfig, FrequentPathMiner};
    use webre_xml::parse_xml;

    fn schema_and_dtd(xmls: &[&str]) -> (MajoritySchema, Dtd) {
        let corpus: Vec<_> = xmls
            .iter()
            .map(|x| extract_paths(&parse_xml(x).unwrap()))
            .collect();
        let schema = FrequentPathMiner {
            sup_threshold: 0.5,
            ratio_threshold: 0.0,
            ..Default::default()
        }
        .mine(&corpus)
        .unwrap()
        .schema;
        let dtd = derive_dtd(&schema, &corpus, &DtdConfig::default());
        (schema, dtd)
    }

    fn standard() -> (MajoritySchema, Dtd) {
        schema_and_dtd(&[
            "<resume><contact/><education><institution/><degree/></education></resume>",
            "<resume><contact/><education><institution/><degree/></education></resume>",
        ])
    }

    #[test]
    fn conformant_document_takes_the_fast_tier() {
        let (schema, dtd) = standard();
        let doc = parse_xml(
            "<resume><contact/><education><institution/><degree/></education></resume>",
        )
        .unwrap();
        let planned = MapPlanner::default().plan(&doc, &schema, &dtd);
        assert_eq!(planned.tier, MapTier::Conformant);
        assert_eq!(planned.cost, Some(0));
        assert_eq!(planned.lower_bound, 0);
        assert!(planned.conforms);
        let script = planned.script.unwrap();
        assert_eq!(script.len(), doc.tree.subtree_size(doc.root()));
        assert!(script
            .iter()
            .enumerate()
            .all(|(i, op)| *op == EditOp::Match { from: i, to: i }));
    }

    #[test]
    fn filter_on_and_off_agree_byte_for_byte() {
        let (schema, dtd) = standard();
        let docs = [
            "<resume><contact/><education><institution/><degree/></education></resume>",
            "<resume><contact/><degree/></resume>",
            "<resume><bogus><bogus2><bogus3/></bogus2></bogus></resume>",
            "<cv><education><degree/><institution/></education><contact/></cv>",
            "<resume/>",
        ];
        for budget in [None, Some(0), Some(2), Some(100)] {
            for xml in docs {
                let doc = parse_xml(xml).unwrap();
                let with = MapPlanner {
                    filter: true,
                    budget,
                }
                .plan(&doc, &schema, &dtd);
                let without = MapPlanner {
                    filter: false,
                    budget,
                }
                .plan(&doc, &schema, &dtd);
                assert_eq!(
                    render_json(&with, budget),
                    render_json(&without, budget),
                    "filter on/off diverged for {xml} at budget {budget:?}"
                );
                assert_eq!(with.tier, without.tier, "{xml} at {budget:?}");
            }
        }
    }

    #[test]
    fn hopeless_document_is_rejected_without_cost() {
        let (schema, dtd) = standard();
        // Deep chain of unknown labels: many demotions, large distance.
        let doc = parse_xml("<x><y><z><w><v><u/></v></w></z></y></x>").unwrap();
        let planner = MapPlanner {
            budget: Some(1),
            ..Default::default()
        };
        let planned = planner.plan(&doc, &schema, &dtd);
        assert_eq!(planned.tier, MapTier::Rejected);
        assert!(planned.lower_bound > 1);
        assert_eq!(planned.cost, None);
        assert_eq!(planned.script, None);
        let json = render_json(&planned, planner.budget);
        assert!(!json.contains("\"cost\""), "{json}");
        assert!(!json.contains("\"xml\""), "{json}");
    }

    #[test]
    fn exact_tier_cost_equals_mapper_distance() {
        let (schema, dtd) = standard();
        let doc = parse_xml("<resume><contact/><degree/></resume>").unwrap();
        let planned = MapPlanner::default().plan(&doc, &schema, &dtd);
        let (mapped, _, conforms) = transform(&doc, &schema, &dtd);
        let distance = edit_script(&label_tree(&doc), &label_tree(&mapped)).0;
        assert_eq!(planned.tier, MapTier::Exact);
        assert_eq!(planned.cost, Some(distance));
        assert_eq!(to_xml(&planned.document), to_xml(&mapped));
        assert_eq!(planned.conforms, conforms);
        // The script's paid operations sum to the cost.
        let script = planned.script.unwrap();
        let paid = script
            .iter()
            .filter(|op| !matches!(op, EditOp::Match { .. }))
            .count();
        assert_eq!(paid as u32, distance);
    }

    #[test]
    fn docs_distance_uses_labels() {
        let a = parse_xml("<r><x/><y/></r>").unwrap();
        let b = parse_xml("<r><x/></r>").unwrap();
        assert_eq!(edit_script(&label_tree(&a), &label_tree(&b)).0, 1);
    }

    #[test]
    fn unbudgeted_planner_never_rejects() {
        let (schema, dtd) = standard();
        let doc = parse_xml("<x><y><z/></y></x>").unwrap();
        let planned = MapPlanner::default().plan(&doc, &schema, &dtd);
        assert_ne!(planned.tier, MapTier::Rejected);
        assert!(planned.cost.is_some());
    }

    #[test]
    fn canonical_sort_is_total_and_stable_under_tier() {
        let mut ops = vec![
            EditOp::Insert { to: 3 },
            EditOp::Delete { from: 2 },
            EditOp::Match { from: 1, to: 1 },
            EditOp::Insert { to: 0 },
            EditOp::Relabel { from: 0, to: 2 },
        ];
        canonical_sort(&mut ops);
        assert_eq!(
            ops,
            vec![
                EditOp::Relabel { from: 0, to: 2 },
                EditOp::Match { from: 1, to: 1 },
                EditOp::Delete { from: 2 },
                EditOp::Insert { to: 0 },
                EditOp::Insert { to: 3 },
            ]
        );
    }

    #[test]
    fn render_json_parses_back() {
        let (schema, dtd) = standard();
        let doc = parse_xml("<resume><contact/><degree/></resume>").unwrap();
        let planner = MapPlanner {
            budget: Some(50),
            ..Default::default()
        };
        let planned = planner.plan(&doc, &schema, &dtd);
        let json = render_json(&planned, planner.budget);
        let value = Json::parse(&json).expect("render_json must emit valid JSON");
        assert_eq!(value.get("tier").and_then(Json::as_str), Some("exact"));
        assert_eq!(value.get("budget").and_then(Json::as_f64), Some(50.0));
        let xml = value.get("xml").and_then(Json::as_str).unwrap();
        assert_eq!(xml, to_xml(&planned.document));
        assert!(value.get("script").and_then(Json::as_arr).is_some());
    }
}
