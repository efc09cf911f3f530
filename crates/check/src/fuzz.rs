//! Crash/totality fuzzing of the full pipeline.
//!
//! The conversion → discovery → derivation → mapping chain must be total
//! over arbitrary tag soup: whatever the crawler drags in, the pipeline
//! may produce a poor document, never a panic. This oracle drives the
//! whole chain on generated/mutated soup corpora inside `catch_unwind`
//! and, when a panic surfaces, shrinks the offending document with
//! [`crate::minimize::ddmin`] before reporting.

use crate::gen;
use crate::minimize::ddmin;
use crate::oracles::snippet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use webre_convert::Converter;
use webre_map::MapPlanner;
use webre_schema::{derive_dtd, extract_paths, DocPaths, DtdConfig, FrequentPathMiner};
use webre_substrate::rand::rngs::StdRng;
use webre_substrate::rand::Rng;

/// Runs the full pipeline over one corpus; the return value is opaque —
/// only completing without a panic matters.
fn pipeline_total(htmls: &[String]) -> usize {
    let converter = Converter::new(webre_concepts::resume::concepts());
    let miner = FrequentPathMiner {
        sup_threshold: 0.5,
        ratio_threshold: 0.3,
        constraints: Some(webre_concepts::resume::constraints()),
        max_len: None,
    };
    let docs = converter.convert_corpus(htmls);
    let paths: Vec<DocPaths> = docs.iter().map(extract_paths).collect();
    let mut touched = docs.len();
    if let Some(outcome) = miner.mine(&paths) {
        let dtd = derive_dtd(&outcome.schema, &paths, &DtdConfig::default());
        let planner = MapPlanner::default();
        for doc in &docs {
            let mapped = planner.plan(doc, &outcome.schema, &dtd);
            touched += usize::from(mapped.conforms);
            touched += webre_xml::validate::validate(&mapped.document, &dtd).len();
        }
    }
    touched
}

/// `true` when the pipeline panics on a corpus containing just `html`.
/// The default panic hook is silenced for the probe so minimization does
/// not spray hundreds of backtraces.
fn panics_on(html: &str) -> bool {
    let corpus = vec![html.to_owned()];
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| pipeline_total(&corpus))).is_err();
    std::panic::set_hook(prev);
    result
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Fuzz oracle — the pipeline is total on arbitrary soup corpora. On a
/// panic, the failing document is isolated and minimized automatically.
pub fn fuzz_totality(rng: &mut StdRng) -> Result<(), String> {
    let n = rng.gen_range(1..=4usize);
    let htmls: Vec<String> = (0..n)
        .map(|_| {
            let base = if rng.gen_bool(0.5) {
                gen::resume_like(rng)
            } else {
                gen::soup_document(rng)
            };
            if rng.gen_bool(0.6) {
                gen::mutate(&base, rng)
            } else {
                base
            }
        })
        .collect();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(|| pipeline_total(&htmls)));
    std::panic::set_hook(prev);
    let Err(payload) = outcome else {
        return Ok(());
    };
    let message = panic_message(payload);
    // Isolate the offending document, then shrink it.
    let culprit = htmls.iter().find(|h| panics_on(h));
    let detail = match culprit {
        Some(h) => {
            let minimized = ddmin(h, panics_on, 400);
            format!("minimized input ({} bytes): {}", minimized.len(), snippet(&minimized))
        }
        None => format!(
            "panic needs the {}-document corpus to reproduce (first: {})",
            htmls.len(),
            snippet(&htmls[0])
        ),
    };
    Err(format!("pipeline panicked: {message}\n  {detail}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_substrate::rand::SeedableRng;

    #[test]
    fn pipeline_is_total_on_many_seeds() {
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            fuzz_totality(&mut rng).unwrap();
        }
    }

    #[test]
    fn pipeline_total_runs_on_fixed_inputs() {
        // Empty, whitespace, naked delimiters, a plain resume.
        for html in ["", "   ", "<<<>>>", "<h2>Education</h2><ul><li>MIT, B.S., 1990</ul>"] {
            pipeline_total(&[html.to_owned()]);
        }
    }
}
