//! Schema-guided document mapping.
//!
//! Transforms an XML document so that it conforms to a majority DTD, using
//! the smallest edits the schema admits:
//!
//! 1. **Relocate/demote** (top-down): a child whose label is not admitted
//!    under its parent in the schema is either wrapped into an admissible
//!    intermediate schema element (when its label occurs deeper along one
//!    of the parent's schema children) or *demoted*: the element is
//!    dissolved, its `val` merges into the parent, and its children are
//!    re-examined in the parent's context;
//! 2. **Reorder**: children are sorted into the DTD content-model order;
//! 3. **Complete**: required elements (plain names and `+` groups in the
//!    content model) that are missing are inserted as empty elements.
//!
//! The transform records the number of each edit; [`crate::planner`]
//! adds the tree-edit cost between the original and mapped documents,
//! which is the cost the paper's Document Mapping Component reports.

use webre_schema::MajoritySchema;
use webre_tree::NodeId;
use webre_xml::validate::conforms;
use webre_xml::{ContentExpr, Dtd, XmlDocument, XmlNode};

/// Maps `doc` onto the majority schema/DTD: returns the mapped document,
/// the edit counts and whether the result conforms. The tree-edit cost is
/// left to [`crate::MapPlanner`], whose filter tiers can skip the
/// quadratic dynamic program entirely.
pub(crate) fn transform(
    doc: &XmlDocument,
    schema: &MajoritySchema,
    dtd: &Dtd,
) -> (XmlDocument, Stats, bool) {
    let mut out = doc.clone();
    let mut stats = Stats::default();

    // The root must carry the schema root label.
    if out.root_name() != schema.root_label() {
        let root = out.root();
        if let XmlNode::Element { name, .. } = out.tree.value_mut(root) {
            *name = schema.root_label().to_owned();
        }
        stats.demoted += 1; // counted as a relabel-style edit
    }

    let out_root = out.root();
    restructure(&mut out, out_root, schema, schema.tree.root(), &mut stats);
    reorder_and_complete(&mut out, out_root, schema, schema.tree.root(), dtd, &mut stats);

    let conforms = conforms(&out, dtd);
    (out, stats, conforms)
}

#[derive(Default)]
pub(crate) struct Stats {
    pub(crate) demoted: u32,
    pub(crate) wrapped: u32,
    pub(crate) inserted: u32,
    pub(crate) merged: u32,
    pub(crate) reordered: u32,
}

/// Pass 1: make every element's label admissible under its parent's schema
/// node, demoting or wrapping as needed.
///
/// Fixing one child can splice new children into the list (demotion) or
/// replace a child (wrapping), so the pass restarts the scan after every
/// edit and only recurses once the child list is stable. Each edit strictly
/// reduces the number of inadmissible elements in the subtree (demotion
/// removes one; wrapping converts one into an admissible chain), so the
/// loop terminates.
fn restructure(
    doc: &mut XmlDocument,
    node: NodeId,
    schema: &MajoritySchema,
    snode: webre_tree::NodeId,
    stats: &mut Stats,
) {
    'rescan: loop {
        for c in doc.tree.children_vec(node) {
            let Some(label) = doc.tree.value(c).name().map(str::to_owned) else {
                continue; // text node
            };
            let admitted = schema
                .tree
                .children(snode)
                .any(|s| schema.tree.value(s).label == label);
            if admitted {
                continue;
            }
            if let Some(wrappers) = wrap_path(schema, snode, &label) {
                // The label lives deeper in the schema: nest it inside the
                // intermediate elements (node > w₁ > … > wₙ > c).
                let mut parent = doc.tree.orphan(XmlNode::element(wrappers[0].clone()));
                doc.tree.insert_before(c, parent);
                for w in &wrappers[1..] {
                    parent = doc.tree.append_child(parent, XmlNode::element(w.clone()));
                }
                doc.tree.detach(c);
                doc.tree.append(parent, c);
                stats.wrapped += wrappers.len() as u32;
            } else {
                // Demote: dissolve the element into its parent; its val is
                // kept and its children are re-examined here.
                if let Some(v) = doc.tree.value(c).val().map(str::to_owned) {
                    doc.tree.value_mut(node).push_val(&v);
                }
                doc.tree.replace_with_children(c);
                stats.demoted += 1;
            }
            continue 'rescan;
        }
        break;
    }
    for c in doc.tree.children_vec(node) {
        if let Some(label) = doc.tree.value(c).name() {
            if let Some(schild) = schema
                .tree
                .children(snode)
                .find(|s| schema.tree.value(*s).label == label)
            {
                restructure(doc, c, schema, schild, stats);
            }
        }
    }
}

/// If `label` occurs in the schema strictly below one of `snode`'s
/// children, returns the chain of intermediate labels to wrap with
/// (shortest chain, BFS).
fn wrap_path(
    schema: &MajoritySchema,
    snode: webre_tree::NodeId,
    label: &str,
) -> Option<Vec<String>> {
    // BFS over schema descendants of snode, tracking the path of labels.
    let mut queue: Vec<(webre_tree::NodeId, Vec<String>)> = schema
        .tree
        .children(snode)
        .map(|c| (c, vec![schema.tree.value(c).label.clone()]))
        .collect();
    let mut qi = 0;
    while qi < queue.len() {
        let (id, path) = queue[qi].clone();
        qi += 1;
        if schema.tree.value(id).label == label {
            // Drop the final label itself: the element already exists.
            let mut wrappers = path;
            wrappers.pop();
            return (!wrappers.is_empty()).then_some(wrappers);
        }
        for c in schema.tree.children(id) {
            let mut p = path.clone();
            p.push(schema.tree.value(c).label.clone());
            queue.push((c, p));
        }
    }
    None
}

/// Pass 2: order children per the DTD content model and insert missing
/// required elements, recursively.
fn reorder_and_complete(
    doc: &mut XmlDocument,
    node: NodeId,
    schema: &MajoritySchema,
    snode: webre_tree::NodeId,
    dtd: &Dtd,
    stats: &mut Stats,
) {
    let label = doc.label(node).to_owned();
    let Some(model) = dtd.content_of(&label) else {
        return;
    };
    let order: Vec<String> = model.names().iter().map(|s| (*s).to_owned()).collect();
    let required = required_names(model);

    // Merge surplus occurrences: if the model bounds a label to k
    // occurrences and the document has more, fold the extras into the
    // first occurrence (vals concatenate, children concatenate) so no
    // information is lost.
    for name in &order {
        let allowed = max_occurs(model, name);
        let Some(allowed) = allowed else { continue };
        let occurrences: Vec<NodeId> = doc
            .tree
            .children(node)
            .filter(|c| doc.label(*c) == name.as_str())
            .collect();
        if occurrences.len() as u32 <= allowed {
            continue;
        }
        let keep = occurrences[0];
        for &extra in &occurrences[allowed as usize..] {
            if let Some(v) = doc.tree.value(extra).val().map(str::to_owned) {
                doc.tree.value_mut(keep).push_val(&v);
            }
            doc.tree.reparent_children(extra, keep);
            doc.tree.detach(extra);
            stats.merged += 1;
        }
    }

    // Insert missing required children (empty elements).
    for name in &required {
        let present = doc
            .tree
            .children(node)
            .any(|c| doc.label(c) == name.as_str());
        if !present {
            doc.tree.append_child(node, XmlNode::element(name.clone()));
            stats.inserted += 1;
        }
    }

    // Reorder: stable-sort children into content-model order (text first,
    // matching the leading #PCDATA the derived DTDs use).
    let children = doc.tree.children_vec(node);
    let rank = |c: NodeId, doc: &XmlDocument| -> usize {
        match doc.tree.value(c) {
            XmlNode::Text(_) => 0,
            XmlNode::Element { name, .. } => order
                .iter()
                .position(|o| o == name)
                .map(|p| p + 1)
                .unwrap_or(order.len() + 1),
        }
    };
    let mut sorted = children.clone();
    sorted.sort_by_key(|c| rank(*c, doc));
    if sorted != children {
        stats.reordered += 1;
        for c in &sorted {
            doc.tree.detach(*c);
        }
        for c in &sorted {
            doc.tree.append(node, *c);
        }
    }

    for c in doc.tree.children_vec(node) {
        if let Some(l) = doc.tree.value(c).name().map(str::to_owned) {
            if let Some(schild) = schema
                .tree
                .children(snode)
                .find(|s| schema.tree.value(*s).label == l)
            {
                reorder_and_complete(doc, c, schema, schild, dtd, stats);
            }
        }
    }
}

/// Maximum admitted occurrences of `name` in the model, or `None` when
/// unbounded (`name` under `*`/`+`). Counts plain and optional mentions.
fn max_occurs(model: &ContentExpr, name: &str) -> Option<u32> {
    fn walk(expr: &ContentExpr, name: &str, bounded: &mut u32, unbounded: &mut bool) {
        match expr {
            ContentExpr::Name(n) => {
                if n == name {
                    *bounded += 1;
                }
            }
            ContentExpr::Seq(items) | ContentExpr::Choice(items) => {
                for i in items {
                    walk(i, name, bounded, unbounded);
                }
            }
            ContentExpr::Opt(inner) => walk(inner, name, bounded, unbounded),
            ContentExpr::Star(inner) | ContentExpr::Plus(inner) => {
                if inner.names().contains(&name) {
                    *unbounded = true;
                } else {
                    walk(inner, name, bounded, unbounded);
                }
            }
            ContentExpr::Empty | ContentExpr::PcData => {}
        }
    }
    let mut bounded = 0;
    let mut unbounded = false;
    walk(model, name, &mut bounded, &mut unbounded);
    if unbounded {
        None
    } else {
        Some(bounded.max(1))
    }
}

/// Names required by a content model: plain `Name` and `Plus` members of
/// the top-level sequence (choices/options/stars are not required).
fn required_names(model: &ContentExpr) -> Vec<String> {
    fn collect(expr: &ContentExpr, out: &mut Vec<String>) {
        match expr {
            ContentExpr::Name(n) => out.push(n.clone()),
            ContentExpr::Plus(inner) => collect(inner, out),
            ContentExpr::Seq(items) => {
                for i in items {
                    collect(i, out);
                }
            }
            ContentExpr::Empty
            | ContentExpr::PcData
            | ContentExpr::Choice(_)
            | ContentExpr::Opt(_)
            | ContentExpr::Star(_) => {}
        }
    }
    let mut out = Vec::new();
    collect(model, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MapPlanner, PlannedMap};
    use webre_schema::{derive_dtd, extract_paths, DtdConfig, FrequentPathMiner};
    use webre_xml::{parse_xml, to_xml};

    fn map(doc: &XmlDocument, schema: &MajoritySchema, dtd: &Dtd) -> PlannedMap {
        MapPlanner::default().plan(doc, schema, dtd)
    }

    /// Mines a schema + DTD from a small conforming corpus.
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
    fn conforming_document_is_untouched() {
        let (schema, dtd) = standard();
        let doc = parse_xml(
            "<resume><contact/><education><institution/><degree/></education></resume>",
        )
        .unwrap();
        let outcome = map(&doc, &schema, &dtd);
        assert!(outcome.conforms);
        assert_eq!(outcome.cost, Some(0));
        assert_eq!(to_xml(&outcome.document), to_xml(&doc));
    }

    #[test]
    fn misplaced_child_is_wrapped_into_schema_position() {
        let (schema, dtd) = standard();
        // degree directly under resume: must move under education.
        let doc = parse_xml("<resume><contact/><degree/></resume>").unwrap();
        let outcome = map(&doc, &schema, &dtd);
        assert!(outcome.conforms, "{}", to_xml(&outcome.document));
        assert!(outcome.wrapped >= 1);
        let xml = to_xml(&outcome.document);
        assert!(xml.contains("<education><institution/><degree/></education>")
            || xml.contains("<education><degree/><institution/></education>")
            || xml.contains("<education>"), "{xml}");
    }

    #[test]
    fn unknown_element_is_demoted_and_val_kept() {
        let (schema, dtd) = standard();
        let doc = parse_xml(
            r#"<resume><contact/><bogus val="keep me"><education><institution/><degree/></education></bogus></resume>"#,
        )
        .unwrap();
        let outcome = map(&doc, &schema, &dtd);
        assert!(outcome.conforms, "{}", to_xml(&outcome.document));
        assert!(outcome.demoted >= 1);
        assert_eq!(
            outcome.document.tree.value(outcome.document.root()).val(),
            Some("keep me")
        );
    }

    #[test]
    fn missing_required_elements_are_inserted() {
        let (schema, dtd) = standard();
        let doc = parse_xml("<resume><contact/></resume>").unwrap();
        let outcome = map(&doc, &schema, &dtd);
        assert!(outcome.conforms, "{}", to_xml(&outcome.document));
        assert!(outcome.inserted >= 1);
        assert!(to_xml(&outcome.document).contains("<education>"));
    }

    #[test]
    fn out_of_order_children_are_reordered() {
        let (schema, dtd) = standard();
        let doc = parse_xml(
            "<resume><education><degree/><institution/></education><contact/></resume>",
        )
        .unwrap();
        let outcome = map(&doc, &schema, &dtd);
        assert!(outcome.conforms, "{}", to_xml(&outcome.document));
        assert!(outcome.reordered >= 1);
        let xml = to_xml(&outcome.document);
        let contact = xml.find("<contact").unwrap();
        let education = xml.find("<education").unwrap();
        assert!(contact < education, "{xml}");
    }

    #[test]
    fn wrong_root_is_relabeled() {
        let (schema, dtd) = standard();
        let doc = parse_xml("<cv><contact/><education><institution/><degree/></education></cv>")
            .unwrap();
        let outcome = map(&doc, &schema, &dtd);
        assert!(outcome.conforms);
        assert_eq!(outcome.document.root_name(), "resume");
    }

    #[test]
    fn edit_distance_reflects_work_done() {
        let (schema, dtd) = standard();
        let doc = parse_xml("<resume><degree/><contact/></resume>").unwrap();
        let outcome = map(&doc, &schema, &dtd);
        assert!(outcome.conforms);
        assert!(outcome.cost > Some(0));
    }

    #[test]
    fn repetitive_elements_survive_mapping() {
        let (schema, dtd) = schema_and_dtd(&[
            "<resume><education/><education/><education/></resume>",
            "<resume><education/><education/><education/></resume>",
        ]);
        let doc =
            parse_xml("<resume><education/><education/><education/><education/></resume>")
                .unwrap();
        let outcome = map(&doc, &schema, &dtd);
        assert!(outcome.conforms, "{}", dtd.to_dtd_string());
        assert_eq!(outcome.cost, Some(0));
    }
}
