//! The differential oracles: each one generates an adversarial input from
//! the case rng and cross-checks a production implementation against an
//! independent reference (or against itself through a semantics-preserving
//! transformation).
//!
//! Every oracle is a function `fn(&mut StdRng) -> Result<(), String>`; the
//! error string describes the divergence and embeds enough of the input to
//! eyeball it. The runner attributes failures to `(oracle, case seed)`.

use crate::gen;
use crate::reference::{ref_derive_dtd, ref_matches, ref_mine, sample_word};
use std::sync::OnceLock;
use std::time::Duration;
use webre_concepts::{Concept, ConceptMatcher, ConceptRole, ConceptSet};
use webre_convert::Converter;
use webre_schema::{extract_paths, DocPaths, FrequentPathMiner};
use webre_substrate::rand::rngs::StdRng;
use webre_substrate::rand::seq::SliceRandom;
use webre_substrate::rand::Rng;
use webre_xml::ContentExpr;

/// Truncates an input for inclusion in a failure message.
pub(crate) fn snippet(s: &str) -> String {
    const MAX: usize = 240;
    if s.len() <= MAX {
        return s.to_owned();
    }
    let mut end = MAX;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}… ({} bytes)", &s[..end], s.len())
}

/// A soup document, sometimes mutated on top.
fn soup_input(rng: &mut StdRng) -> String {
    let base = if rng.gen_bool(0.3) {
        gen::resume_like(rng)
    } else {
        gen::soup_document(rng)
    };
    if rng.gen_bool(0.5) {
        gen::mutate(&base, rng)
    } else {
        base
    }
}

/// Oracle 1 — parse → serialize → parse fixpoint. One parse+serialize
/// normalizes arbitrary soup; from there the pair must be a fixpoint:
/// reparsing the serialized form yields an equal tree and re-serializing
/// yields identical text.
pub fn fixpoint(rng: &mut StdRng) -> Result<(), String> {
    let input = soup_input(rng);
    let once = webre_html::parse(&input);
    let text1 = webre_html::to_html(&once);
    let twice = webre_html::parse(&text1);
    if !once
        .tree
        .subtree_eq(once.tree.root(), &twice.tree, twice.tree.root())
    {
        return Err(format!(
            "reparse changed the tree\n  input: {}\n  serialized: {}",
            snippet(&input),
            snippet(&text1)
        ));
    }
    let text2 = webre_html::to_html(&twice);
    if text1 != text2 {
        return Err(format!(
            "serialize is not a fixpoint after one round\n  first: {}\n  second: {}",
            snippet(&text1),
            snippet(&text2)
        ));
    }
    Ok(())
}

/// Oracle 2 — tidy idempotence: running the cleanup pass a second time
/// must change nothing.
pub fn tidy_idempotent(rng: &mut StdRng) -> Result<(), String> {
    let input = soup_input(rng);
    let mut doc = webre_html::parse(&input);
    webre_html::tidy(&mut doc);
    let once = webre_html::to_html(&doc);
    webre_html::tidy(&mut doc);
    let twice = webre_html::to_html(&doc);
    if once != twice {
        return Err(format!(
            "tidy is not idempotent\n  input: {}\n  after one pass: {}\n  after two: {}",
            snippet(&input),
            snippet(&once),
            snippet(&twice)
        ));
    }
    Ok(())
}

/// Oracle 3 — parallel corpus conversion ≡ sequential conversion, for
/// every thread count the splitter can produce.
pub fn parallel_convert(rng: &mut StdRng) -> Result<(), String> {
    let converter = Converter::new(webre_concepts::resume::concepts());
    let n = rng.gen_range(1..=6usize);
    let htmls: Vec<String> = (0..n).map(|_| soup_input(rng)).collect();
    let sequential = converter.convert_corpus(&htmls);
    let threads = rng.gen_range(2..=4usize);
    let parallel = converter.convert_corpus_parallel(&htmls, threads);
    if sequential.len() != parallel.len() {
        return Err(format!(
            "parallel returned {} documents, sequential {}",
            parallel.len(),
            sequential.len()
        ));
    }
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        let (s, p) = (webre_xml::to_xml(s), webre_xml::to_xml(p));
        if s != p {
            return Err(format!(
                "document {i} diverges under {threads} threads\n  sequential: {}\n  parallel: {}\n  input: {}",
                snippet(&s),
                snippet(&p),
                snippet(&htmls[i])
            ));
        }
    }
    Ok(())
}

/// Read and write bound for the served-oracle clients: a hung server
/// fails the case with its seed instead of hanging the battery.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Labels used by the random content models and token sequences.
const ALPHABET: &[&str] = &["a", "b", "c", "d"];

/// A random content-model expression of bounded depth.
fn random_expr(rng: &mut StdRng, depth: u32) -> ContentExpr {
    let leaf = depth == 0 || rng.gen_bool(0.35);
    if leaf {
        return match rng.gen_range(0..=5u32) {
            0 => ContentExpr::PcData,
            _ => ContentExpr::Name((*ALPHABET.choose(rng).expect("non-empty")).to_owned()),
        };
    }
    match rng.gen_range(0..=4u32) {
        0 => ContentExpr::Seq(
            (0..rng.gen_range(2..=3u32))
                .map(|_| random_expr(rng, depth - 1))
                .collect(),
        ),
        1 => ContentExpr::Choice(
            (0..rng.gen_range(2..=3u32))
                .map(|_| random_expr(rng, depth - 1))
                .collect(),
        ),
        2 => ContentExpr::Opt(Box::new(random_expr(rng, depth - 1))),
        3 => ContentExpr::Star(Box::new(random_expr(rng, depth - 1))),
        _ => ContentExpr::Plus(Box::new(random_expr(rng, depth - 1))),
    }
}

/// Oracle 4 — the Brzozowski-derivative validator agrees with the naive
/// backtracking reference matcher, on random token noise, on words
/// sampled from the model's language, and on near-miss perturbations of
/// those words.
pub fn brzozowski(rng: &mut StdRng) -> Result<(), String> {
    let expr = random_expr(rng, 3);
    for trial in 0..8 {
        let word: Vec<String> = match trial % 3 {
            // Language words (must match), possibly perturbed below.
            0 | 1 => sample_word(&expr, rng),
            // Pure noise.
            _ => (0..rng.gen_range(0..=6usize))
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        "#PCDATA".to_owned()
                    } else if rng.gen_bool(0.1) {
                        "z".to_owned() // foreign label
                    } else {
                        (*ALPHABET.choose(rng).expect("non-empty")).to_owned()
                    }
                })
                .collect(),
        };
        let word = if trial % 3 == 1 && !word.is_empty() {
            // Near-miss: drop, duplicate or swap one token.
            let mut w = word;
            let i = rng.gen_range(0..w.len());
            match rng.gen_range(0..=2u32) {
                0 => {
                    w.remove(i);
                }
                1 => {
                    let t = w[i].clone();
                    w.insert(i, t);
                }
                _ => w[i] = (*ALPHABET.choose(rng).expect("non-empty")).to_owned(),
            }
            w
        } else {
            word
        };
        let refs: Vec<&str> = word.iter().map(String::as_str).collect();
        let production = webre_xml::validate::matches(&expr, &refs);
        let reference = ref_matches(&expr, &refs);
        if production != reference {
            return Err(format!(
                "validator divergence on model {expr} with tokens {refs:?}: \
                 derivatives say {production}, backtracking reference says {reference}"
            ));
        }
    }
    Ok(())
}

/// A small random XML corpus (random label trees), shared by the miner
/// oracle and the metamorphic invariants.
pub(crate) fn random_xml_corpus(rng: &mut StdRng) -> Vec<webre_xml::XmlDocument> {
    const LABELS: &[&str] = &["a", "b", "c", "d", "e"];
    const ROOTS: &[&str] = &["r", "s"];
    let n = rng.gen_range(2..=6usize);
    (0..n)
        .map(|_| {
            // Mostly one root label so mining usually clears the support
            // threshold; occasionally a dissenting root.
            let root = if rng.gen_bool(0.85) { ROOTS[0] } else { *ROOTS.choose(rng).expect("non-empty") };
            let mut doc = webre_xml::XmlDocument::new(root);
            let root_id = doc.root();
            grow(rng, &mut doc, root_id, 3, LABELS);
            doc
        })
        .collect()
}

fn grow(
    rng: &mut StdRng,
    doc: &mut webre_xml::XmlDocument,
    at: webre_tree::NodeId,
    depth: u32,
    labels: &[&str],
) {
    if depth == 0 {
        return;
    }
    for _ in 0..rng.gen_range(0..=3u32) {
        let label = *labels.choose(rng).expect("non-empty");
        let child = doc
            .tree
            .append_child(at, webre_xml::XmlNode::element(label));
        if rng.gen_bool(0.5) {
            grow(rng, doc, child, depth - 1, labels);
        }
    }
}

/// Thresholds drawn from a discrete grid so float comparisons between the
/// production and reference miners see bit-identical values.
fn random_thresholds(rng: &mut StdRng) -> (f64, f64, Option<usize>) {
    const SUPS: &[f64] = &[0.0, 0.25, 0.4, 0.5, 0.75, 0.9];
    const RATIOS: &[f64] = &[0.0, 0.3, 0.5, 0.8];
    let max_len = if rng.gen_bool(0.25) {
        Some(rng.gen_range(1..=3usize))
    } else {
        None
    };
    (
        *SUPS.choose(rng).expect("non-empty"),
        *RATIOS.choose(rng).expect("non-empty"),
        max_len,
    )
}

/// Oracle 5 — the anti-monotone frequent-path miner agrees with the
/// brute-force enumerate-and-count reference on random corpora: same
/// `None` cases, same root, same frequent-path set, same supports.
pub fn miner(rng: &mut StdRng) -> Result<(), String> {
    let docs = random_xml_corpus(rng);
    let corpus: Vec<DocPaths> = docs.iter().map(extract_paths).collect();
    let (sup, ratio, max_len) = random_thresholds(rng);
    let production = FrequentPathMiner {
        sup_threshold: sup,
        ratio_threshold: ratio,
        constraints: None,
        max_len,
    }
    .mine(&corpus);
    let reference = ref_mine(&corpus, sup, ratio, max_len);
    let context = || {
        let xmls: Vec<String> = docs.iter().map(webre_xml::to_xml).collect();
        format!("sup={sup} ratio={ratio} max_len={max_len:?}\n  corpus: {}", xmls.join(" | "))
    };
    match (production, reference) {
        (None, None) => Ok(()),
        (Some(p), None) => Err(format!(
            "production mined a schema where the reference mined none\n  {}\n  schema:\n{}",
            context(),
            p.schema.render()
        )),
        (None, Some(_)) => Err(format!(
            "production mined nothing where the reference found a schema\n  {}",
            context()
        )),
        (Some(p), Some(r)) => {
            let mut produced: Vec<(Vec<String>, f64)> = p
                .schema
                .paths()
                .into_iter()
                .map(|path| {
                    let node = p.schema.find(&path).expect("path from schema");
                    (path, p.schema.tree.value(node).support)
                })
                .collect();
            produced.sort_by(|a, b| a.0.cmp(&b.0));
            if p.schema.root_label() != r.root_label {
                return Err(format!(
                    "root divergence: production {:?}, reference {:?}\n  {}",
                    p.schema.root_label(),
                    r.root_label,
                    context()
                ));
            }
            if produced != r.paths {
                let fmt = |v: &[(Vec<String>, f64)]| {
                    v.iter()
                        .map(|(p, s)| format!("{}={s}", p.join("/")))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                return Err(format!(
                    "frequent-path divergence\n  {}\n  production: {}\n  reference: {}",
                    context(),
                    fmt(&produced),
                    fmt(&r.paths)
                ));
            }
            Ok(())
        }
    }
}

/// Instance pool for the fuzzed concept catalogues: deliberately stacked
/// with prefixes/suffixes of each other (`uni` / `university` /
/// `universality`, `ver` / `versity`), multi-word instances that overlap
/// single-word ones, punctuation-heavy degree strings, and unicode whose
/// lowercase form changes byte length (`İstanbul`).
const INSTANCE_POOL: &[&str] = &[
    "uni",
    "university",
    "universality",
    "college",
    "state college",
    "b.s.",
    "b.s. degree",
    "m.s.",
    "science",
    "bachelor of science",
    "june",
    "june 1996",
    "1996",
    "gpa",
    "c++",
    "ver",
    "versity",
    "résumé",
    "istanbul",
    "İstanbul",
];

/// Filler that must never match (plus delimiters and whitespace shapes).
const NOISE_POOL: &[&str] = &[
    "zorp", "the", "of", "at", ",", ";", ":", "  ", " ", "universit", "ollege", "",
];

/// A random concept catalogue: a handful of concepts, each with a few
/// instances drawn (with cross-concept repetition, to force equal-span
/// tie-breaks) from [`INSTANCE_POOL`].
fn random_concept_set(rng: &mut StdRng) -> ConceptSet {
    let concepts = rng.gen_range(1..=5usize);
    (0..concepts)
        .map(|i| {
            let instances: Vec<&str> = (0..rng.gen_range(1..=4usize))
                .map(|_| *INSTANCE_POOL.choose(rng).expect("non-empty"))
                .collect();
            Concept::new(format!("c{i}"), ConceptRole::Content, instances)
        })
        .collect()
}

/// A random token text: instance words and noise glued together, with
/// random per-character case flips so the lowercasing path is always hot.
fn random_token_text(rng: &mut StdRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.gen_range(0..=8usize) {
        let piece = if rng.gen_bool(0.6) {
            *INSTANCE_POOL.choose(rng).expect("non-empty")
        } else {
            *NOISE_POOL.choose(rng).expect("non-empty")
        };
        for c in piece.chars() {
            if rng.gen_bool(0.3) {
                text.extend(c.to_uppercase());
            } else {
                text.push(c);
            }
        }
        if rng.gen_bool(0.7) {
            text.push(' ');
        }
    }
    text
}

/// The resume catalogue compiled once, plus every token the golden
/// fixtures produce — the fixed half of the matcher oracle. Compiled
/// lazily and cached: the catalogue and fixtures are constants, so
/// rebuilding the automaton per case would only add noise.
fn resume_fixture_state() -> &'static (ConceptSet, ConceptMatcher, Vec<String>) {
    static STATE: OnceLock<(ConceptSet, ConceptMatcher, Vec<String>)> = OnceLock::new();
    STATE.get_or_init(|| {
        const FIXTURES: &[&str] = &[
            include_str!("../../../tests/fixtures/resume_clean.html"),
            include_str!("../../../tests/fixtures/resume_nested.html"),
            include_str!("../../../tests/fixtures/resume_soup.html"),
            include_str!("../../../tests/fixtures/resume_table.html"),
        ];
        let set = webre_concepts::resume::concepts();
        let matcher = ConceptMatcher::new(&set);
        let delims = webre_text::tokenize::Delimiters::default();
        let mut tokens = Vec::new();
        for fixture in FIXTURES {
            let doc = webre_html::parse(fixture);
            for id in doc.tree.descendants(doc.tree.root()) {
                if let webre_html::HtmlNode::Text(t) = doc.tree.value(id) {
                    tokens.extend(webre_text::tokenize::split_tokens(t, &delims));
                }
            }
        }
        (set, matcher, tokens)
    })
}

/// One automaton-vs-naive comparison, with a divergence report that shows
/// both match lists.
fn compare_matchers(
    set: &ConceptSet,
    automaton: &ConceptMatcher,
    text: &str,
) -> Result<(), String> {
    let naive = webre_concepts::find_matches(set, text);
    let fast = automaton.find_matches(text);
    if naive != fast {
        return Err(format!(
            "automaton diverges from naive scanner\n  text: {}\n  naive:     {naive:?}\n  automaton: {fast:?}",
            snippet(text)
        ));
    }
    Ok(())
}

/// Oracle 8 — matcher-vs-naive: the Aho–Corasick concept automaton must
/// produce *identical* match sets (positions, concept attribution,
/// overlap/tie resolution) to the retained naive per-instance scanner —
/// on fuzzed catalogues over fuzzed token streams, and with the full
/// resume catalogue over every token of the golden fixtures. This is the
/// oracle that licenses routing the conversion hot path through the
/// automaton: any divergence is a byte-visible output change.
pub fn matcher_vs_naive(rng: &mut StdRng) -> Result<(), String> {
    // Fuzzed half: a fresh catalogue, compiled fresh, against a batch of
    // adversarial token texts.
    let set = random_concept_set(rng);
    let automaton = ConceptMatcher::new(&set);
    for _ in 0..8 {
        let text = random_token_text(rng);
        compare_matchers(&set, &automaton, &text)?;
    }
    // Fixed half: the production catalogue against the golden fixtures'
    // real token population.
    let (set, matcher, tokens) = resume_fixture_state();
    for token in tokens {
        compare_matchers(set, matcher, token)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use webre_substrate::rand::SeedableRng;

    fn run_many(oracle: fn(&mut StdRng) -> Result<(), String>, name: &str) {
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            if let Err(e) = oracle(&mut rng) {
                panic!("oracle {name} failed at unit-test seed {seed}: {e}");
            }
        }
    }

    #[test]
    fn fixpoint_holds_on_many_seeds() {
        run_many(fixpoint, "fixpoint");
    }

    #[test]
    fn tidy_idempotent_holds_on_many_seeds() {
        run_many(tidy_idempotent, "tidy-idempotent");
    }

    #[test]
    fn parallel_convert_holds_on_many_seeds() {
        // Fewer seeds: each case converts a corpus twice.
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            parallel_convert(&mut rng).unwrap();
        }
    }

    #[test]
    fn brzozowski_agrees_on_many_seeds() {
        run_many(brzozowski, "brzozowski");
    }

    #[test]
    fn miner_agrees_on_many_seeds() {
        run_many(miner, "miner");
    }

    #[test]
    fn trace_noop_holds_on_many_seeds() {
        // Fewer seeds: each case runs the full chain twice.
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            trace_noop(&mut rng).unwrap();
        }
    }

    #[test]
    fn map_vs_batch_holds_on_a_few_seeds() {
        // Fewer seeds: each case boots a server and runs exact tree-edit
        // mappings over the whole corpus.
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            map_vs_batch(&mut rng).unwrap();
        }
    }

    #[test]
    fn matcher_vs_naive_holds_on_many_seeds() {
        run_many(matcher_vs_naive, "matcher-vs-naive");
    }

    #[test]
    fn fixture_tokens_are_nonempty() {
        // The fixed half of the matcher oracle would be vacuous if fixture
        // tokenization ever produced nothing.
        let (_, _, tokens) = resume_fixture_state();
        assert!(tokens.len() >= 40, "only {} fixture tokens", tokens.len());
    }

    #[test]
    fn snippet_truncates_on_char_boundary() {
        let long = "é".repeat(400);
        let s = snippet(&long);
        assert!(s.contains("bytes"));
        let short = snippet("abc");
        assert_eq!(short, "abc");
    }
}

/// Oracle 6 — serve ≡ batch: a live HTTP server hammered by concurrent
/// clients must be indistinguishable from the sequential batch pipeline.
///
/// A random corpus is split across several client threads, each posting
/// its share to `POST /convert` and `POST /corpus/docs` over its own
/// keep-alive connection. Every `/convert` reply must be byte-identical
/// to the batch conversion of the same document, and the final
/// `GET /schema` / `GET /schema/dtd` must match a sequential
/// mine-and-derive over the whole corpus — interleaving, the response
/// cache, and the coalesced snapshot recompute must all be invisible.
pub fn serve_vs_batch(rng: &mut StdRng) -> Result<(), String> {
    use webre_serve::server::{ServeConfig, Server};
    use webre_serve::Engine;
    use webre_substrate::http::{request, Client};

    // Mostly resume-like documents (so a schema usually emerges), soup
    // mixed in to stress the converter's error paths under concurrency.
    let docs: Vec<String> = (0..rng.gen_range(3..=6))
        .map(|_| {
            if rng.gen_bool(0.7) {
                gen::resume_like(rng)
            } else {
                soup_input(rng)
            }
        })
        .collect();

    // Sequential batch reference, computed before the server exists.
    let engine = Engine::resume_domain();
    let expected_xml: Vec<String> = docs
        .iter()
        .map(|d| engine.convert_to_xml(d).2)
        .collect();
    let paths: Vec<DocPaths> = docs
        .iter()
        .map(|d| extract_paths(&engine.converter.convert_str(d).0))
        .collect();
    let expected_schema = engine.miner.mine(&paths).map(|outcome| {
        let dtd = webre_schema::derive_dtd(&outcome.schema, &paths, &engine.dtd_config);
        (outcome.schema.render(), dtd.to_dtd_string())
    });

    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: rng.gen_range(2..=4),
        queue_cap: 64,
        ..ServeConfig::default()
    };
    let server =
        Server::start(config, engine).map_err(|e| format!("cannot bind test server: {e}"))?;
    let addr = server.local_addr();

    // Concurrent clients; client c takes documents c, c+n, c+2n, …
    let clients = rng.gen_range(2..=3usize);
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let docs = docs.clone();
            std::thread::spawn(move || -> Result<Vec<(usize, String)>, String> {
                let mut client = Client::connect(addr, CLIENT_TIMEOUT)
                    .map_err(|e| format!("connect: {e}"))?;
                let mut converted = Vec::new();
                for (i, doc) in docs.iter().enumerate() {
                    if i % clients != c {
                        continue;
                    }
                    let response = client
                        .roundtrip("POST", "/convert", doc.as_bytes())
                        .map_err(|e| format!("/convert doc {i}: {e}"))?;
                    if response.status != 200 {
                        return Err(format!("/convert doc {i}: status {}", response.status));
                    }
                    converted.push((i, response.text()));
                    let response = client
                        .roundtrip("POST", "/corpus/docs", doc.as_bytes())
                        .map_err(|e| format!("/corpus/docs doc {i}: {e}"))?;
                    if response.status != 202 {
                        return Err(format!("/corpus/docs doc {i}: status {}", response.status));
                    }
                }
                Ok(converted)
            })
        })
        .collect();
    let mut served_xml: Vec<(usize, String)> = Vec::new();
    for handle in handles {
        served_xml.extend(
            handle
                .join()
                .map_err(|_| "client thread panicked".to_owned())??,
        );
    }

    for (i, served) in &served_xml {
        if served != &expected_xml[*i] {
            return Err(format!(
                "/convert diverged from batch conversion on doc {i}\n  input: {}\n  served: {}\n  batch:  {}",
                snippet(&docs[*i]),
                snippet(served),
                snippet(&expected_xml[*i])
            ));
        }
    }

    // Final schema state vs the sequential mine over the same corpus.
    let fetch = |path: &str| -> Result<(u16, String), String> {
        let response = request(addr, "GET", path, b"").map_err(|e| format!("{path}: {e}"))?;
        Ok((response.status, response.text()))
    };
    let schema = fetch("/schema")?;
    let dtd = fetch("/schema/dtd")?;
    match &expected_schema {
        None => {
            if schema.0 != 404 || dtd.0 != 404 {
                return Err(format!(
                    "batch mined no schema but the server answered {}/{} (expected 404/404)",
                    schema.0, dtd.0
                ));
            }
        }
        Some((schema_text, dtd_text)) => {
            if schema.0 != 200 || schema.1 != *schema_text {
                return Err(format!(
                    "final /schema diverged (status {})\n  served: {}\n  batch:  {}",
                    schema.0,
                    snippet(&schema.1),
                    snippet(schema_text)
                ));
            }
            if dtd.0 != 200 || dtd.1 != *dtd_text {
                return Err(format!(
                    "final /schema/dtd diverged (status {})\n  served: {}\n  batch:  {}",
                    dtd.0,
                    snippet(&dtd.1),
                    snippet(dtd_text)
                ));
            }
        }
    }

    server.request_drain();
    server.join();
    Ok(())
}

/// Oracle 7 — tracing is non-perturbing: the full convert → mine →
/// derive chain run under a live trace recorder must produce output
/// byte-identical to the untraced run. The observability layer may watch
/// the pipeline but never steer it — no counter, span, or clock read is
/// allowed to leak into a branch.
pub fn trace_noop(rng: &mut StdRng) -> Result<(), String> {
    use webre_obs::clock::FakeClock;
    use webre_obs::trace::TraceRecorder;
    use webre_obs::{counter, scoped, stage, Ctx};

    let converter = Converter::new(webre_concepts::resume::concepts());
    let n = rng.gen_range(1..=6usize);
    let htmls: Vec<String> = (0..n).map(|_| soup_input(rng)).collect();

    let recorder = TraceRecorder::new(Box::new(FakeClock::new(1_000)));
    let ctx = Ctx::new(&recorder);

    // Conversion, document by document.
    let mut docs = Vec::with_capacity(n);
    for (i, html) in htmls.iter().enumerate() {
        let (plain_doc, plain_stats) = converter.convert_str(html);
        let (traced_doc, traced_stats) = scoped(ctx, || converter.convert_str(html));
        let (plain_xml, traced_xml) =
            (webre_xml::to_xml(&plain_doc), webre_xml::to_xml(&traced_doc));
        if plain_xml != traced_xml {
            return Err(format!(
                "conversion diverges under tracing on doc {i}\n  input: {}\n  untraced: {}\n  traced:   {}",
                snippet(html),
                snippet(&plain_xml),
                snippet(&traced_xml)
            ));
        }
        if plain_stats != traced_stats {
            return Err(format!(
                "conversion stats diverge under tracing on doc {i}\n  input: {}\n  untraced: {plain_stats:?}\n  traced:   {traced_stats:?}",
                snippet(html)
            ));
        }
        docs.push(traced_doc);
    }

    // Mining and DTD derivation over the converted corpus.
    let paths: Vec<DocPaths> = docs.iter().map(extract_paths).collect();
    let miner = FrequentPathMiner {
        constraints: Some(webre_concepts::resume::constraints()),
        ..FrequentPathMiner::default()
    };
    let plain = miner.mine(&paths);
    let traced = scoped(ctx, || miner.mine_view(paths.as_slice()));
    let context = || {
        let inputs: Vec<String> = htmls.iter().map(|h| snippet(h)).collect();
        format!("corpus: {}", inputs.join(" | "))
    };
    match (plain, traced) {
        (None, None) => {}
        (Some(_), None) | (None, Some(_)) => {
            return Err(format!(
                "mining outcome presence differs under tracing\n  {}",
                context()
            ));
        }
        (Some(p), Some(t)) => {
            if p.schema.render() != t.schema.render()
                || p.nodes_explored != t.nodes_explored
                || p.nodes_accepted != t.nodes_accepted
            {
                return Err(format!(
                    "mining diverges under tracing\n  {}\n  untraced: explored={} accepted={}\n{}\n  traced: explored={} accepted={}\n{}",
                    context(),
                    p.nodes_explored,
                    p.nodes_accepted,
                    p.schema.render(),
                    t.nodes_explored,
                    t.nodes_accepted,
                    t.schema.render()
                ));
            }
            let config = webre_schema::DtdConfig::default();
            let plain_dtd = webre_schema::derive_dtd(&p.schema, &paths, &config).to_dtd_string();
            let traced_dtd = scoped(ctx, || webre_schema::derive_dtd(&t.schema, &paths, &config))
                .to_dtd_string();
            if plain_dtd != traced_dtd {
                return Err(format!(
                    "DTD diverges under tracing\n  {}\n  untraced: {}\n  traced:   {}",
                    context(),
                    snippet(&plain_dtd),
                    snippet(&traced_dtd)
                ));
            }
        }
    }

    // The recorder must actually have been live — a silently disabled
    // context would make this oracle vacuous.
    let spans = recorder.spans();
    if !spans.iter().any(|s| s.name == stage::CONVERT) {
        return Err("trace recorder saw no convert span; the traced path did not record".into());
    }
    if spans.iter().any(|s| s.end_ns.is_none()) {
        return Err("trace recorder holds an unclosed span after the run".into());
    }
    for span in &spans {
        for (name, _) in &span.counters {
            if counter::index_of(name).is_none() {
                return Err(format!("uncatalogued counter {name:?} recorded"));
            }
        }
    }
    Ok(())
}

/// Oracle 13 — sharded mining merges back to batch mining. The
/// frequent-path statistics are associative aggregates, so for a random
/// corpus, a random shard count and random thresholds, four independent
/// routes must agree byte-for-byte:
///
/// 1. batch mining over the document slice,
/// 2. mining the [`webre_schema::ShardedCorpus`] union view,
/// 3. mining the merge of the per-shard [`webre_schema::PathTable`]s,
/// 4. mining the merged table after a JSON round-trip (the
///    `/corpus/table` wire format).
///
/// DTD derivation must likewise equal the reference per-document scan
/// ([`ref_derive_dtd`]) from four sources — the batch slice, a single
/// [`webre_schema::CorpusIndex`], the sharded union and the merged table
/// — under four configurations: the default, `{rep_threshold: 2,
/// optional_below: 0.75}`, and the two threshold edges `rep_threshold: 0`
/// (every document counts as repeating, present or not) and
/// `rep_threshold: 1`. Group patterns stay off: group detection is seeded
/// by the first observed child sequence, so it is order-sensitive by
/// design and excluded from the identity.
pub fn shard_merge_vs_batch(rng: &mut StdRng) -> Result<(), String> {
    use webre_substrate::json::{FromJson, Json, ToJson};

    let docs = random_xml_corpus(rng);
    let corpus: Vec<DocPaths> = docs.iter().map(extract_paths).collect();
    let shard_count = rng.gen_range(1..=5usize);
    let (sup, ratio, max_len) = random_thresholds(rng);
    let context = || {
        let xmls: Vec<String> = docs.iter().map(webre_xml::to_xml).collect();
        format!(
            "shards={shard_count} sup={sup} ratio={ratio} max_len={max_len:?}\n  corpus: {}",
            xmls.join(" | ")
        )
    };

    // Route documents by real content hash, as the serving layer does.
    let mut sharded = webre_schema::ShardedCorpus::new(shard_count);
    for (doc, paths) in docs.iter().zip(&corpus) {
        let hash = webre_substrate::wal::checksum(webre_xml::to_xml(doc).as_bytes());
        sharded.push(hash, paths.clone());
    }

    let merged = webre_schema::PathTable::merged(
        &sharded
            .shards()
            .iter()
            .map(webre_schema::CorpusIndex::table)
            .collect::<Vec<_>>(),
    );
    let wire = merged.to_json().to_string();
    let decoded = Json::parse(&wire)
        .map_err(|e| format!("merged table serialized unparseably: {e}\n  {}", context()))
        .and_then(|v| {
            webre_schema::PathTable::from_json(&v)
                .map_err(|e| format!("merged table failed to decode: {e}\n  {}", context()))
        })?;
    if decoded != merged {
        return Err(format!(
            "merged table changed across its JSON round-trip\n  {}",
            context()
        ));
    }

    let miner = FrequentPathMiner {
        sup_threshold: sup,
        ratio_threshold: ratio,
        constraints: None,
        max_len,
    };
    let batch = miner.mine(&corpus);
    let routes: [(&str, Option<webre_schema::MiningOutcome>); 3] = [
        ("sharded view", miner.mine_view(&sharded)),
        ("merged table", miner.mine_view(&merged)),
        ("round-tripped table", miner.mine_view(&decoded)),
    ];
    for (route, outcome) in routes {
        match (&batch, outcome) {
            (None, None) => {}
            (Some(b), Some(o)) => {
                if b.schema.render() != o.schema.render() {
                    return Err(format!(
                        "{route} mined a different schema than batch\n  {}\n  batch:\n{}\n  {route}:\n{}",
                        context(),
                        b.schema.render(),
                        o.schema.render()
                    ));
                }
                if b.nodes_explored != o.nodes_explored || b.nodes_accepted != o.nodes_accepted {
                    return Err(format!(
                        "{route} explored a different search space than batch \
                         (batch {}de/{}da, {route} {}de/{}da)\n  {}",
                        b.nodes_explored,
                        b.nodes_accepted,
                        o.nodes_explored,
                        o.nodes_accepted,
                        context()
                    ));
                }
            }
            (b, o) => {
                return Err(format!(
                    "mining presence diverges: batch {} but {route} {}\n  {}",
                    if b.is_some() { "found a schema" } else { "found none" },
                    if o.is_some() { "found a schema" } else { "found none" },
                    context()
                ));
            }
        }
    }

    // DTD derivation: every aggregate source against the reference scan.
    if let Some(b) = &batch {
        use webre_schema::{derive_dtd, derive_dtd_from, CorpusIndex, DtdConfig};
        let index = CorpusIndex::from_docs(corpus.iter().cloned());
        for config in [
            DtdConfig::default(),
            DtdConfig {
                rep_threshold: 2,
                optional_below: Some(0.75),
                ..DtdConfig::default()
            },
            DtdConfig {
                rep_threshold: 0,
                ..DtdConfig::default()
            },
            DtdConfig {
                rep_threshold: 1,
                ..DtdConfig::default()
            },
        ] {
            let expected = ref_derive_dtd(&b.schema, &corpus, &config).to_dtd_string();
            let sources = [
                ("batch slice", derive_dtd(&b.schema, &corpus, &config)),
                (
                    "corpus index",
                    derive_dtd_from(&b.schema, &index, || index.docs(), &config),
                ),
                (
                    "sharded union",
                    derive_dtd_from(&b.schema, &sharded, || sharded.docs(), &config),
                ),
                (
                    "merged table",
                    derive_dtd_from(&b.schema, &merged, std::iter::empty, &config),
                ),
            ];
            for (source, dtd) in sources {
                let derived = dtd.to_dtd_string();
                if derived != expected {
                    return Err(format!(
                        "DTD derived from the {source} diverged from the reference scan \
                         (rep_threshold={}, optional_below={:?})\n  {}\n  reference: {}\n  {source}: {}",
                        config.rep_threshold,
                        config.optional_below,
                        context(),
                        snippet(&expected),
                        snippet(&derived)
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Oracle 14 — served mapping ≡ batch planning: `POST /map` answered by
/// a live server under concurrent clients must be byte-identical to the
/// sequential batch planner over the same corpus — same JSON body
/// (mapped XML, canonical edit script, cost, tier) and same status code,
/// with a randomized reject budget exercising all three tiers. The
/// response cache, the snapshot coalescing, and client interleaving must
/// all be invisible.
pub fn map_vs_batch(rng: &mut StdRng) -> Result<(), String> {
    use webre_map::{MapPlanner, MapTier};
    use webre_serve::server::{ServeConfig, Server};
    use webre_serve::Engine;
    use webre_substrate::http::Client;

    let docs: Vec<String> = (0..rng.gen_range(3..=6))
        .map(|_| {
            if rng.gen_bool(0.7) {
                gen::resume_like(rng)
            } else {
                soup_input(rng)
            }
        })
        .collect();
    // All three tiers get exercised across seeds: no budget (never
    // rejects), zero (rejects anything non-conformant), and a small one.
    let budget = match rng.gen_range(0..3u8) {
        0 => None,
        1 => Some(0),
        _ => Some(rng.gen_range(1..=40u32)),
    };

    // Sequential batch reference, computed before the server exists.
    let engine = Engine::resume_domain();
    let converted: Vec<_> = docs.iter().map(|d| engine.converter.convert_str(d).0).collect();
    let paths: Vec<DocPaths> = converted.iter().map(extract_paths).collect();
    let expected: Option<Vec<(u16, String)>> = engine.miner.mine(&paths).map(|outcome| {
        let dtd = webre_schema::derive_dtd(&outcome.schema, &paths, &engine.dtd_config);
        let planner = MapPlanner {
            budget,
            ..MapPlanner::default()
        };
        converted
            .iter()
            .map(|doc| {
                let planned = planner.plan(doc, &outcome.schema, &dtd);
                let status = if planned.tier == MapTier::Rejected { 422 } else { 200 };
                (status, format!("{}\n", webre_map::render_json(&planned, budget)))
            })
            .collect()
    });

    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: rng.gen_range(2..=4),
        queue_cap: 64,
        map_budget: budget,
        ..ServeConfig::default()
    };
    let server =
        Server::start(config, engine).map_err(|e| format!("cannot bind test server: {e}"))?;
    let addr = server.local_addr();

    // Accrete the whole corpus first so every /map sees the final schema.
    {
        let mut client =
            Client::connect(addr, CLIENT_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
        for (i, doc) in docs.iter().enumerate() {
            let response = client
                .roundtrip("POST", "/corpus/docs", doc.as_bytes())
                .map_err(|e| format!("/corpus/docs doc {i}: {e}"))?;
            if response.status != 202 {
                return Err(format!("/corpus/docs doc {i}: status {}", response.status));
            }
        }
    }

    // Concurrent clients; client c maps documents c, c+n, c+2n, … with a
    // duplicate pass to drive both cache misses and hits.
    let clients = rng.gen_range(2..=3usize);
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let docs = docs.clone();
            std::thread::spawn(move || -> Result<Vec<(usize, u16, String)>, String> {
                let mut client = Client::connect(addr, CLIENT_TIMEOUT)
                    .map_err(|e| format!("connect: {e}"))?;
                let mut mapped = Vec::new();
                for pass in 0..2 {
                    for (i, doc) in docs.iter().enumerate() {
                        if i % clients != c {
                            continue;
                        }
                        let response = client
                            .roundtrip("POST", "/map", doc.as_bytes())
                            .map_err(|e| format!("/map doc {i} pass {pass}: {e}"))?;
                        mapped.push((i, response.status, response.text()));
                    }
                }
                Ok(mapped)
            })
        })
        .collect();
    let mut served: Vec<(usize, u16, String)> = Vec::new();
    for handle in handles {
        served.extend(
            handle
                .join()
                .map_err(|_| "client thread panicked".to_owned())??,
        );
    }

    match &expected {
        None => {
            for (i, status, _) in &served {
                if *status != 404 {
                    return Err(format!(
                        "batch mined no schema but /map on doc {i} answered {status} (expected 404)"
                    ));
                }
            }
        }
        Some(expected) => {
            for (i, status, body) in &served {
                let (want_status, want_body) = &expected[*i];
                if status != want_status || body != want_body {
                    return Err(format!(
                        "/map diverged from the batch planner on doc {i} \
                         (status {status}, batch {want_status})\n  input: {}\n  served: {}\n  batch:  {}",
                        snippet(&docs[*i]),
                        snippet(body),
                        snippet(want_body)
                    ));
                }
            }
        }
    }

    server.request_drain();
    server.join();
    Ok(())
}

/// Oracle 11 — loris liveness: slow-loris connections must be reaped on
/// the read budget while the server keeps answering honest clients, and
/// afterwards no worker may be left holding anything.
///
/// A server with a short read budget gets a swarm of connections that
/// send a partial request head and then trickle one byte at a time —
/// the classic attack that pins one thread per socket on a
/// thread-per-connection design. Concurrently, an honest client runs
/// `/healthz` probes and one cold `/convert` whose reply must stay
/// byte-identical to the batch engine. Every loris must observe EOF (or
/// a courtesy 408) within twice the read budget, the reap counter must
/// account for all of them, and `requests_in_flight` must return to
/// zero — a reap that leaks a worker or a buffer fails here.
pub fn loris_liveness(rng: &mut StdRng) -> Result<(), String> {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;
    use std::time::Instant;
    use webre_serve::server::{ServeConfig, Server};
    use webre_serve::Engine;
    use webre_substrate::http::Client;

    // Short enough that 200 battery cases stay in tens of seconds, long
    // enough that several trickled bytes land inside the budget.
    let read_budget = Duration::from_millis(150);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: rng.gen_range(1..=2),
        queue_cap: 32,
        read_timeout: read_budget,
        idle_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let engine = Engine::resume_domain();
    let document = gen::resume_like(rng);
    let expected = engine.convert_to_xml(&document).2;
    let server =
        Server::start(config, engine).map_err(|e| format!("cannot bind test server: {e}"))?;
    let addr = server.local_addr();
    let app = server.app();

    // The swarm: partial head now, one trickled byte per sweep below.
    let loris_total = rng.gen_range(6..=12usize);
    let mut swarm = Vec::with_capacity(loris_total);
    for i in 0..loris_total {
        let stream = TcpStream::connect(addr).map_err(|e| format!("loris {i} connect: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("loris {i} nonblocking: {e}"))?;
        (&stream)
            .write_all(b"POST /convert HTTP/1.1\r\nx-drip: ")
            .map_err(|e| format!("loris {i} first bytes: {e}"))?;
        swarm.push((stream, Instant::now(), false));
    }

    // Honest traffic while the swarm hangs: the server must stay live.
    let roundtrip = |method: &str, path: &str, body: &[u8]| -> Result<(u16, String), String> {
        let response = Client::connect(addr, Duration::from_secs(5))
            .and_then(|mut client| client.roundtrip(method, path, body))
            .map_err(|e| format!("{method} {path}: {e}"))?;
        Ok((response.status, response.text()))
    };
    let (status, body) = roundtrip("POST", "/convert", document.as_bytes())?;
    if status != 200 || body != expected {
        return Err(format!(
            "/convert under loris load diverged from the batch engine (status {status})"
        ));
    }

    // Sweep the swarm until every connection is cut, proving liveness
    // with a healthz probe on each pass.
    let bound = read_budget * 2;
    let hard_stop = Instant::now() + Duration::from_secs(5);
    let mut reaped = 0usize;
    while reaped < loris_total {
        if Instant::now() > hard_stop {
            return Err(format!(
                "only {reaped}/{loris_total} loris connections reaped within 5s \
                 (read budget {read_budget:?})"
            ));
        }
        let (status, _) = roundtrip("GET", "/healthz", b"")?;
        if status != 200 {
            return Err(format!("healthz answered {status} during the loris storm"));
        }
        for (i, (stream, started, done)) in swarm.iter_mut().enumerate() {
            if *done {
                continue;
            }
            let mut buf = [0u8; 256];
            let closed = match stream.read(&mut buf) {
                Ok(0) => true,
                Ok(_) => false, // courtesy 408 bytes; EOF follows
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Trickle one more byte: the budget must run from
                    // the FIRST byte, so this must not buy time.
                    matches!(
                        stream.write(b"z"),
                        Err(ref we) if we.kind() != std::io::ErrorKind::WouldBlock
                    )
                }
                Err(_) => true,
            };
            if closed {
                let elapsed = started.elapsed();
                if elapsed > bound {
                    return Err(format!(
                        "loris {i} survived {elapsed:?}, past twice the {read_budget:?} budget"
                    ));
                }
                *done = true;
                reaped += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(swarm);

    // Accounting: every reap was a read-budget reap, and no worker is
    // left holding a request.
    let reaped_read = app.metrics.reaped_read.load(Ordering::Relaxed);
    if (reaped_read as usize) < loris_total {
        return Err(format!(
            "server counted {reaped_read} read-budget reaps for {loris_total} loris connections"
        ));
    }
    let settle = Instant::now() + Duration::from_secs(2);
    while app.metrics.in_flight.load(Ordering::Relaxed) != 0 {
        if Instant::now() > settle {
            return Err(format!(
                "{} request(s) still in flight after the storm — a worker is hung",
                app.metrics.in_flight.load(Ordering::Relaxed)
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    server.request_drain();
    server.join();
    Ok(())
}
