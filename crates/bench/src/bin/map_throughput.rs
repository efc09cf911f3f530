//! Mapping throughput: mapped documents/second through the tiered
//! [`webre_map::MapPlanner`], filter on vs filter off, across growing
//! document sizes.
//!
//! The corpus is synthetic and wide/flat (depth 3: root → sections →
//! leaves) so the exact Zhang–Shasha tier stays tractable while scaling
//! to thousands of nodes. Each scale mixes the three planner tiers the
//! way a crawl does:
//!
//! * **conformant** — byte-identical to the schema's canonical document;
//!   the filter resolves these by label-tree equality without the DP,
//! * **rejected** — a third of the leaves relabeled to alien names; the
//!   admissible lower bound exceeds the reject budget so the filter
//!   skips the DP outright,
//! * **exact** — two leaves relabeled; the bound stays under budget and
//!   the full edit-script DP runs in both modes.
//!
//! Filter on and off produce byte-identical mapping results (held by the
//! `map-vs-batch` oracle and the planner tests) — only the wall clock
//! differs, which is exactly what this harness measures.
//!
//! Sizes are multiples of the ~40-node base fixture: 10×, 30×, 100×.
//! Results go to stdout as a table and to `BENCH_map.json` (override
//! with `WEBRE_BENCH_MAP_OUT`) as JSON lines, one record per scale.
//!
//! Run with: `cargo run --release -p webre-bench --bin map_throughput`

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;
use webre_map::{MapPlanner, MapTier};
use webre_schema::{derive_dtd, extract_paths, DtdConfig, FrequentPathMiner, MajoritySchema};
use webre_xml::{parse_xml, Dtd, XmlDocument};

/// Sections per document (fixed); leaves per section scale.
const SECTIONS: usize = 10;
/// Leaves per section at the 1× base fixture (21 nodes total); 100×
/// puts the exact tier's quadratic DP around a thousand nodes, large
/// enough to dominate the linear transform without the filter-off
/// reference pass taking minutes.
const BASE_LEAVES: usize = 1;
/// Reject budget: far below the relabeled docs' bound, above the
/// exact-tier docs' cost.
const BUDGET: u32 = 8;

/// The canonical document: `SECTIONS` sections of `leaves` empty leaf
/// elements each. Leaf labels are shared across sections.
fn canonical_xml(leaves: usize) -> String {
    let mut xml = String::from("<doc>");
    for s in 0..SECTIONS {
        let _ = write!(xml, "<s{s}>");
        for f in 0..leaves {
            let _ = write!(xml, "<f{f}/>");
        }
        let _ = write!(xml, "</s{s}>");
    }
    xml.push_str("</doc>");
    xml
}

/// The canonical document with `relabeled` leaves renamed to alien
/// labels (spread round-robin across sections).
fn relabeled_xml(leaves: usize, relabeled: usize) -> String {
    let mut xml = String::from("<doc>");
    let mut alien = 0usize;
    for s in 0..SECTIONS {
        let _ = write!(xml, "<s{s}>");
        for f in 0..leaves {
            if (f * SECTIONS + s) < relabeled {
                let _ = write!(xml, "<z{alien}/>");
                alien += 1;
            } else {
                let _ = write!(xml, "<f{f}/>");
            }
        }
        let _ = write!(xml, "</s{s}>");
    }
    xml.push_str("</doc>");
    xml
}

/// Mines the majority schema + DTD from two copies of the canonical
/// document (setup; not timed).
fn schema_and_dtd(leaves: usize) -> (MajoritySchema, Dtd) {
    let canonical = canonical_xml(leaves);
    let corpus: Vec<_> = [&canonical, &canonical]
        .iter()
        .map(|x| extract_paths(&parse_xml(x).expect("canonical doc parses")))
        .collect();
    let schema = FrequentPathMiner {
        sup_threshold: 0.5,
        ratio_threshold: 0.0,
        ..Default::default()
    }
    .mine(&corpus)
    .expect("canonical corpus mines a schema")
    .schema;
    let dtd = derive_dtd(&schema, &corpus, &DtdConfig::default());
    (schema, dtd)
}

struct Mix {
    docs: Vec<XmlDocument>,
    conformant: usize,
    rejected: usize,
    exact: usize,
}

/// The mixed corpus at one scale: 5 conformant + 4 rejected + 1 exact.
fn mixed_corpus(leaves: usize) -> Mix {
    let total = SECTIONS * leaves;
    let mut xmls = Vec::new();
    for _ in 0..5 {
        xmls.push(canonical_xml(leaves));
    }
    for _ in 0..4 {
        xmls.push(relabeled_xml(leaves, total / 3));
    }
    xmls.push(relabeled_xml(leaves, 2));
    Mix {
        docs: xmls
            .iter()
            .map(|x| parse_xml(x).expect("corpus doc parses"))
            .collect(),
        conformant: 5,
        rejected: 4,
        exact: 1,
    }
}

struct Outcome {
    docs: usize,
    seconds: f64,
    docs_per_s: f64,
    tiers: [usize; 3],
}

fn run_mode(mix: &Mix, schema: &MajoritySchema, dtd: &Dtd, filter: bool) -> Outcome {
    let planner = MapPlanner {
        budget: Some(BUDGET),
        filter,
    };
    let started = Instant::now();
    let mut tiers = [0usize; 3];
    for doc in &mix.docs {
        let planned = planner.plan(doc, schema, dtd);
        tiers[match planned.tier {
            MapTier::Conformant => 0,
            MapTier::Rejected => 1,
            MapTier::Exact => 2,
        }] += 1;
    }
    let seconds = started.elapsed().as_secs_f64();
    Outcome {
        docs: mix.docs.len(),
        seconds,
        docs_per_s: mix.docs.len() as f64 / seconds,
        tiers,
    }
}

fn main() {
    println!("map_throughput: {SECTIONS} sections/doc, budget {BUDGET}, mix 5 conformant / 4 rejected / 1 exact");
    println!(
        "  {:<6} {:>7} {:>12} {:>13} {:>9}   {}",
        "scale", "nodes", "on docs/s", "off docs/s", "speedup", "tiers on (c/r/e)"
    );
    let mut records = Vec::new();
    for scale in [10usize, 30, 100] {
        let leaves = BASE_LEAVES * scale;
        let nodes = 1 + SECTIONS + SECTIONS * leaves;
        let (schema, dtd) = schema_and_dtd(leaves);
        let mix = mixed_corpus(leaves);
        // Warm-up pass so one-time costs (page faults, lazy allocs) don't
        // skew whichever mode runs first.
        let _ = run_mode(&mix, &schema, &dtd, true);
        let on = run_mode(&mix, &schema, &dtd, true);
        let off = run_mode(&mix, &schema, &dtd, false);
        // Filter on/off may only differ in time, never in tier counts.
        assert_eq!(on.tiers, off.tiers, "filter changed tier outcomes at {scale}x");
        assert_eq!(
            on.tiers,
            [mix.conformant, mix.rejected, mix.exact],
            "corpus mix did not land on the intended tiers at {scale}x"
        );
        let speedup = on.docs_per_s / off.docs_per_s;
        println!(
            "  {:<6} {:>7} {:>12.1} {:>13.1} {:>8.1}x   {}/{}/{}",
            format!("{scale}x"),
            nodes,
            on.docs_per_s,
            off.docs_per_s,
            speedup,
            on.tiers[0],
            on.tiers[1],
            on.tiers[2]
        );
        records.push((scale, nodes, on, off, speedup));
    }

    let out_path = std::env::var("WEBRE_BENCH_MAP_OUT")
        .unwrap_or_else(|_| "BENCH_map.json".to_owned());
    let mut out = std::fs::File::create(&out_path).expect("create bench output");
    for (scale, nodes, on, off, speedup) in &records {
        writeln!(
            out,
            "{{\"name\":\"map_throughput/{scale}x\",\"nodes\":{nodes},\"docs\":{},\
             \"budget\":{BUDGET},\"filter_on_docs_per_s\":{:.2},\
             \"filter_off_docs_per_s\":{:.2},\"speedup\":{:.2},\
             \"seconds_on\":{:.6},\"seconds_off\":{:.6},\
             \"conformant\":{},\"rejected\":{},\"exact\":{}}}",
            on.docs,
            on.docs_per_s,
            off.docs_per_s,
            speedup,
            on.seconds,
            off.seconds,
            on.tiers[0],
            on.tiers[1],
            on.tiers[2]
        )
        .expect("write bench record");
    }
    println!("==> wrote {} record(s) to {out_path}", records.len());
}
