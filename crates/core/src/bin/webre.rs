//! `webre` — command-line front end for the pipeline.
//!
//! ```text
//! webre convert  <file.html>...  [--domain d.json] [--root NAME] [--compact] [--stats]
//! webre discover <file.html>...  [--domain d.json] [--root NAME] [--sup F] [--ratio F]
//!                [--group-patterns] [--trace-out FILE]
//! webre run      <file.html>...  [--domain d.json] [--root NAME] [--sup F] [--ratio F]
//!                [--group-patterns] --out-dir DIR [--trace-out FILE]
//! webre map      <file.html>...  [--domain d.json] [--root NAME] [--sup F] [--ratio F]
//!                [--group-patterns] [--budget N] [--no-filter] [--json] [--out-dir DIR] ...
//! webre serve    [--addr HOST:PORT] [--workers N] [--data-dir DIR] [--shards N] ...
//! webre load     [--addr HOST:PORT] [--connections N] [--loris N] [--duration SECS] ...
//! webre scale    [--instances K] [--docs N] [--data-dir DIR] ...
//! webre stats    <trace.json>...
//! webre validate <file.xml>...   --dtd <file.dtd>
//! webre generate --count N [--seed S] --out-dir DIR
//! webre check    [--seed S] [--iters N] [--only ORACLE]
//! webre lint     [PATHS]... [--deny-warnings] [--only RULE] [--format text|json]
//!                [--root DIR] [--list-rules]
//! ```
//!
//! `convert` prints concept-tagged XML for each input; `discover` prints
//! the majority schema and derived DTD; `run` converts, discovers, maps
//! every document onto the DTD and writes conforming XML files; `map`
//! runs the tiered mapping planner (lower-bound filter → exact
//! Zhang–Shasha) over each input against the schema mined from the whole
//! batch, printing one summary (or, with `--json`, exactly the JSON
//! document `POST /map` serves) per input; `serve`
//! exposes the pipeline over HTTP (see `webre-serve`); `load` drives
//! fault-injecting traffic (hot, cold, slow-loris, oversized, abrupt)
//! at a spawned `webre serve` child, or at `--addr`, and enforces its
//! liveness postconditions; `scale` spawns a
//! fleet of `webre serve` child processes, routes a synthetic XML stream
//! across them with a consistent-hash ring, and proves at every
//! checkpoint that the merged per-instance path tables equal a locally
//! maintained batch reference (the distributed incremental ≡ batch
//! identity), reporting docs/s, time-to-fresh-schema, and — when
//! durable — WAL replay time as a JSON line; `stats` summarizes
//! trace files written by `--trace-out` (per-stage span counts and
//! latencies plus rule-counter totals); `validate` checks
//! XML files against a DTD; `generate` materializes a synthetic resume
//! corpus (HTML plus ground-truth XML); `check` runs the differential/
//! metamorphic/fuzzing oracle battery from `webre-check` and prints a
//! one-line reproduction command for any failure; `lint` runs the
//! in-tree static-analysis pass from `webre-lint` over the workspace
//! (or explicit paths) and, under `--deny-warnings`, fails the build on
//! any finding.
//!
//! `discover`, `run`, `map`, and `serve` accept `--trace-out FILE`: the whole
//! run records hierarchical pipeline spans into a trace recorder and
//! writes a chrome://tracing-compatible JSON file on completion (for
//! `serve`, after drain). Tracing never changes output — `webre check
//! --only trace-noop` holds the pipeline to that byte-for-byte.
//!
//! Exit codes: `0` success, `1` runtime failure (unreadable input, failed
//! validation, failed oracle), `2` usage error (unknown command or flag,
//! missing argument, malformed flag value).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use webre::concepts::Domain;
use webre::convert::ConvertConfig;
use webre::obs::clock::MonotonicClock;
use webre::obs::trace::TraceRecorder;
use webre::obs::{scoped, Ctx};
use webre::serve::obs::ObsLayer;
use webre::serve::server::{ServeConfig, Server};
use webre::Pipeline;
use webre_corpus::CorpusGenerator;
use webre_schema::FrequentPathMiner;
use webre_substrate::json::Json;
use webre_xml::XmlDocument;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return exit_usage();
    };
    let result = match command.as_str() {
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        "--version" | "-V" | "version" => {
            println!("webre {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        }
        name => match COMMANDS.iter().find(|(command, ..)| *command == name) {
            Some(&(_, flags, run)) => parse_flags(rest, flags).and_then(|parsed| run(&parsed)),
            None => Err(CliError::Usage(format!("unknown command {name:?}"))),
        },
    };
    match result {
        Ok(code) => code,
        Err(CliError::Runtime(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            exit_usage()
        }
    }
}

/// Usage errors (unknown flag, missing argument) exit with 2 so scripts
/// can tell "you called it wrong" from "it ran and failed" (1).
fn exit_usage() -> ExitCode {
    ExitCode::from(2)
}

/// A batch that finished but skipped or failed `failures` inputs exits 1.
fn exit_for(failures: usize) -> ExitCode {
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str = "\
usage:
  webre convert  <file.html>...  [--domain d.json] [--root NAME] [--compact] [--stats]
  webre discover <file.html>...  [--domain d.json] [--root NAME] [--sup F] [--ratio F]
                 [--group-patterns] [--trace-out FILE]
  webre run      <file.html>...  [--domain d.json] [--root NAME] [--sup F] [--ratio F]
                 [--group-patterns] --out-dir DIR [--trace-out FILE]
  webre map      <file.html>...  [--domain d.json] [--root NAME] [--sup F] [--ratio F]
                 [--group-patterns] [--budget N] [--no-filter] [--json] [--out-dir DIR]
                 [--trace-out FILE]
  webre serve    [--addr HOST:PORT] [--workers N] [--cache-cap N] [--queue-cap N]
                 [--max-body BYTES] [--deadline-ms N] [--read-timeout-ms N]
                 [--idle-timeout-ms N] [--write-timeout-ms N] [--data-dir DIR]
                 [--shards N] [--fsync-every N] [--compact-min N] [--map-budget N]
                 [--domain d.json] [--root NAME] [--sup F] [--ratio F]
                 [--group-patterns] [--trace-out FILE]
  webre load     [--addr HOST:PORT] [--connections N] [--loris N] [--duration SECS]
                 [--workers N] [--queue-cap N] [--cache-cap N] [--deadline-ms N]
                 [--read-timeout-ms N] [--idle-timeout-ms N] [--bench-out FILE]
  webre scale    [--instances K] [--docs N] [--seed S] [--batch B] [--checkpoints C]
                 [--data-dir DIR] [--shards N] [--workers N]
  webre stats    <trace.json>...
  webre validate <file.xml>...   --dtd <file.dtd>
  webre generate --count N [--seed S] --out-dir DIR
  webre check    [--seed S] [--iters N] [--only ORACLE]
  webre lint     [PATHS]... [--deny-warnings] [--only RULE] [--format text|json]
                 [--root DIR] [--list-rules]
  webre --version | --help";

/// A CLI failure, split by who got it wrong.
enum CliError {
    /// The invocation itself is invalid → exit 2, usage printed.
    Usage(String),
    /// The invocation was fine but the work failed → exit 1.
    Runtime(String),
}

fn usage_err(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn runtime_err(message: impl Into<String>) -> CliError {
    CliError::Runtime(message.into())
}

/// The flags a command accepts: those taking a value, then switches.
type Flags = (&'static [&'static str], &'static [&'static str]);

const CONVERT_FLAGS: Flags = (&["domain", "root"], &["compact", "stats"]);
const DISCOVER_FLAGS: Flags = (
    &["domain", "root", "sup", "ratio", "trace-out"],
    &["group-patterns"],
);
const RUN_FLAGS: Flags = (
    &["domain", "root", "sup", "ratio", "out-dir", "trace-out"],
    &["group-patterns"],
);
const MAP_FLAGS: Flags = (
    &["domain", "root", "sup", "ratio", "budget", "out-dir", "trace-out"],
    &["group-patterns", "no-filter", "json"],
);
const SERVE_FLAGS: Flags = (
    &[
        "addr",
        "workers",
        "cache-cap",
        "queue-cap",
        "max-body",
        "deadline-ms",
        "read-timeout-ms",
        "idle-timeout-ms",
        "write-timeout-ms",
        "data-dir",
        "shards",
        "fsync-every",
        "compact-min",
        "map-budget",
        "domain",
        "root",
        "sup",
        "ratio",
        "trace-out",
    ],
    &["group-patterns"],
);
const LOAD_FLAGS: Flags = (
    &[
        "addr",
        "connections",
        "loris",
        "duration",
        "workers",
        "queue-cap",
        "cache-cap",
        "deadline-ms",
        "read-timeout-ms",
        "idle-timeout-ms",
        "bench-out",
    ],
    &[],
);
const SCALE_FLAGS: Flags = (
    &[
        "instances",
        "docs",
        "seed",
        "batch",
        "checkpoints",
        "data-dir",
        "shards",
        "workers",
    ],
    &[],
);
const STATS_FLAGS: Flags = (&[], &[]);
const VALIDATE_FLAGS: Flags = (&["dtd"], &[]);
const GENERATE_FLAGS: Flags = (&["count", "seed", "out-dir"], &[]);
const CHECK_FLAGS: Flags = (&["seed", "iters", "only"], &[]);
const LINT_FLAGS: Flags = (&["only", "format", "root"], &["deny-warnings", "list-rules"]);

/// The body of a subcommand, run over its parsed flags.
type Command = fn(&Parsed) -> Result<ExitCode, CliError>;

/// Every subcommand with the flags it accepts; `main` dispatches through
/// this table and the unit tests check it against `USAGE`.
const COMMANDS: &[(&str, Flags, Command)] = &[
    ("convert", CONVERT_FLAGS, cmd_convert),
    ("discover", DISCOVER_FLAGS, cmd_discover),
    ("run", RUN_FLAGS, cmd_run),
    ("map", MAP_FLAGS, cmd_map),
    ("serve", SERVE_FLAGS, cmd_serve),
    ("load", LOAD_FLAGS, cmd_load),
    ("scale", SCALE_FLAGS, cmd_scale),
    ("stats", STATS_FLAGS, cmd_stats),
    ("validate", VALIDATE_FLAGS, cmd_validate),
    ("generate", GENERATE_FLAGS, cmd_generate),
    ("check", CHECK_FLAGS, cmd_check),
    ("lint", LINT_FLAGS, cmd_lint),
];

/// Minimal flag parser: returns (positional, flag-values, flag-switches).
/// Flags outside the command's [`Flags`] are usage errors, so a typo
/// like `--suport 0.4` fails loudly instead of being ignored.
struct Parsed {
    positional: Vec<String>,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

fn parse_flags(args: &[String], (value_flags, switch_flags): Flags) -> Result<Parsed, CliError> {
    let mut out = Parsed {
        positional: Vec::new(),
        values: Vec::new(),
        switches: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if value_flags.contains(&name) {
                let value = it
                    .next()
                    .ok_or_else(|| usage_err(format!("--{name} needs a value")))?;
                out.values.push((name.to_owned(), value.clone()));
            } else if switch_flags.contains(&name) {
                out.switches.push(name.to_owned());
            } else {
                return Err(usage_err(format!("unknown flag --{name}")));
            }
        } else {
            out.positional.push(arg.clone());
        }
    }
    Ok(out)
}

impl Parsed {
    /// Rejects positional arguments for a `command` that takes none.
    fn no_positional(&self, command: &str) -> Result<(), CliError> {
        if self.positional.is_empty() {
            return Ok(());
        }
        Err(usage_err(format!(
            "{command} takes no positional arguments, got {:?}",
            self.positional
        )))
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn float(&self, name: &str, default: f64) -> Result<f64, CliError> {
        match self.value(name) {
            Some(v) => v
                .parse()
                .map_err(|_| usage_err(format!("--{name} expects a number, got {v:?}"))),
            None => Ok(default),
        }
    }

    fn uint(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.value(name) {
            Some(v) => v
                .parse()
                .map_err(|_| usage_err(format!("--{name} expects an integer, got {v:?}"))),
            None => Ok(default),
        }
    }
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| runtime_err(format!("cannot read {path}: {e}")))
}

/// `--trace-out FILE` support: runs `f` with a wall-clock trace recorder
/// installed when the flag is given, then writes the chrome://tracing
/// export. A failing `f` writes no trace.
fn traced<T>(parsed: &Parsed, f: impl FnOnce() -> Result<T, CliError>) -> Result<T, CliError> {
    let Some(path) = parsed.value("trace-out") else {
        return f();
    };
    let recorder = TraceRecorder::new(Box::new(MonotonicClock::new()));
    let out = scoped(Ctx::new(&recorder), f)?;
    std::fs::write(path, recorder.to_chrome_json())
        .map_err(|e| runtime_err(format!("cannot write trace {path}: {e}")))?;
    eprintln!("trace written to {path}");
    Ok(out)
}

/// Streams the input files through conversion one at a time: each
/// document is read, converted, and its HTML dropped before the next is
/// touched, so peak memory is one document (not the whole corpus).
/// Unreadable files are reported with their path and skipped; the batch
/// keeps going. Returns `(surviving paths, converted docs, failures)`.
fn convert_inputs(
    pipeline: &Pipeline,
    paths: &[String],
) -> Result<(Vec<String>, Vec<XmlDocument>, usize), CliError> {
    let mut survivors = Vec::new();
    let mut docs = Vec::new();
    let mut failures = 0usize;
    for path in paths {
        match std::fs::read_to_string(path) {
            Ok(html) => {
                docs.push(pipeline.convert_html(&html).0);
                survivors.push(path.clone());
            }
            Err(e) => {
                failures += 1;
                eprintln!("warning: skipping {path}: {e}");
            }
        }
    }
    if docs.is_empty() {
        return Err(runtime_err(format!(
            "no readable inputs ({failures} of {failures} failed)"
        )));
    }
    Ok((survivors, docs, failures))
}

/// Builds a pipeline from common flags (`--domain`, `--root`, `--sup`,
/// `--ratio`, `--group-patterns`).
fn pipeline_from(parsed: &Parsed) -> Result<Pipeline, CliError> {
    let mut pipeline = match parsed.value("domain") {
        Some(path) => {
            let domain = Domain::from_json(&read(path)?)
                .map_err(|e| runtime_err(format!("bad domain file {path}: {e}")))?;
            let root = parsed.value("root").unwrap_or("document").to_owned();
            let concepts = domain.concept_set();
            let constraints = domain.constraint_set();
            Pipeline::new(concepts)
                .with_convert_config(ConvertConfig {
                    root_concept: root,
                    constraints: Some(constraints.clone()),
                    ..ConvertConfig::default()
                })
                .with_miner(FrequentPathMiner {
                    constraints: Some(constraints),
                    ..FrequentPathMiner::default()
                })
        }
        None => {
            let mut p = Pipeline::resume_domain();
            if let Some(root) = parsed.value("root") {
                p = p.with_convert_config(ConvertConfig {
                    root_concept: root.to_owned(),
                    ..ConvertConfig::default()
                });
            }
            p
        }
    };
    let miner = FrequentPathMiner {
        sup_threshold: parsed.float("sup", 0.5)?,
        ratio_threshold: parsed.float("ratio", 0.3)?,
        constraints: pipeline.miner().constraints.clone(),
        max_len: None,
    };
    pipeline = pipeline.with_miner(miner);
    if parsed.switch("group-patterns") {
        pipeline = pipeline.with_dtd_config(webre_schema::DtdConfig {
            group_patterns: true,
            ..webre_schema::DtdConfig::default()
        });
    }
    Ok(pipeline)
}

fn cmd_convert(parsed: &Parsed) -> Result<ExitCode, CliError> {
    if parsed.positional.is_empty() {
        return Err(usage_err("convert needs at least one input file"));
    }
    let pipeline = pipeline_from(parsed)?;
    for path in &parsed.positional {
        let html = read(path)?;
        let (xml, stats) = pipeline.convert_html(&html);
        if parsed.switch("compact") {
            println!("{}", webre::xml::to_xml(&xml));
        } else {
            print!("{}", webre::xml::to_xml_pretty(&xml));
        }
        if parsed.switch("stats") {
            eprintln!(
                "{path}: {} tokens, {} identified, {} unidentified, {} decomposed",
                stats.tokens_total,
                stats.tokens_identified,
                stats.tokens_unidentified,
                stats.tokens_decomposed
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_discover(parsed: &Parsed) -> Result<ExitCode, CliError> {
    if parsed.positional.is_empty() {
        return Err(usage_err("discover needs at least one input file"));
    }
    let pipeline = pipeline_from(parsed)?;
    let (discovery, failures) = traced(parsed, || {
        let (_, docs, failures) = convert_inputs(&pipeline, &parsed.positional)?;
        let discovery = pipeline
            .discover_schema(&docs)
            .ok_or_else(|| runtime_err("empty corpus or root below support threshold"))?;
        Ok((discovery, failures))
    })?;
    println!("majority schema ({} paths):", discovery.schema.len());
    print!("{}", discovery.schema.render());
    println!();
    println!("derived DTD:");
    print!("{}", discovery.dtd.to_dtd_string());
    Ok(exit_for(failures))
}

fn cmd_run(parsed: &Parsed) -> Result<ExitCode, CliError> {
    if parsed.positional.is_empty() {
        return Err(usage_err("run needs at least one input file"));
    }
    let out_dir = PathBuf::from(
        parsed
            .value("out-dir")
            .ok_or_else(|| usage_err("run needs --out-dir"))?,
    );
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| runtime_err(format!("cannot create out dir: {e}")))?;
    let pipeline = pipeline_from(parsed)?;
    let (written, conforming, failures) = traced(parsed, || {
        let (survivors, docs, failures) = convert_inputs(&pipeline, &parsed.positional)?;
        let discovery = pipeline
            .discover_schema(&docs)
            .ok_or_else(|| runtime_err("empty corpus or root below support threshold"))?;
        std::fs::write(out_dir.join("schema.dtd"), discovery.dtd.to_dtd_string())
            .map_err(|e| runtime_err(e.to_string()))?;
        let planner = webre::map::MapPlanner::default();
        let mut conforming = 0usize;
        for (input, doc) in survivors.iter().zip(&docs) {
            let planned = pipeline.plan_document(doc, &discovery, &planner);
            write_mapped(&out_dir, input, &planned.document)?;
            if planned.conforms {
                conforming += 1;
            }
        }
        Ok((docs.len(), conforming, failures))
    })?;
    println!(
        "wrote {written} mapped documents + schema.dtd to {} ({conforming} conforming)",
        out_dir.display()
    );
    if failures > 0 {
        eprintln!("{failures} input(s) skipped due to read errors");
    }
    Ok(exit_for(failures))
}

/// Writes a mapped document as pretty XML to `{dir}/{stem}.xml`, where
/// `stem` is the input path's file stem (`doc` when it has none).
fn write_mapped(dir: &Path, input: &str, doc: &XmlDocument) -> Result<(), CliError> {
    let stem = Path::new(input)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "doc".into());
    std::fs::write(dir.join(format!("{stem}.xml")), webre::xml::to_xml_pretty(doc))
        .map_err(|e| runtime_err(e.to_string()))
}

/// An optional `u32` edit-cost budget flag (absent means "no budget").
fn budget_flag(parsed: &Parsed, name: &str) -> Result<Option<u32>, CliError> {
    match parsed.value(name) {
        Some(v) => v.parse::<u32>().map(Some).map_err(|_| {
            usage_err(format!("--{name} expects a non-negative integer, got {v:?}"))
        }),
        None => Ok(None),
    }
}

fn cmd_map(parsed: &Parsed) -> Result<ExitCode, CliError> {
    if parsed.positional.is_empty() {
        return Err(usage_err("map needs at least one input file"));
    }
    let out_dir = parsed.value("out-dir").map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| runtime_err(format!("cannot create out dir: {e}")))?;
    }
    let budget = budget_flag(parsed, "budget")?;
    let planner = webre::map::MapPlanner {
        budget,
        filter: !parsed.switch("no-filter"),
    };
    let pipeline = pipeline_from(parsed)?;
    let failures = traced(parsed, || {
        let (survivors, docs, failures) = convert_inputs(&pipeline, &parsed.positional)?;
        let discovery = pipeline
            .discover_schema(&docs)
            .ok_or_else(|| runtime_err("empty corpus or root below support threshold"))?;
        for (input, doc) in survivors.iter().zip(&docs) {
            let planned = pipeline.plan_document(doc, &discovery, &planner);
            if parsed.switch("json") {
                // Exactly the body `POST /map` serves for this document.
                println!("{}", webre::map::render_json(&planned, budget));
            } else {
                let cost = match planned.cost {
                    Some(cost) => cost.to_string(),
                    None => "-".to_owned(),
                };
                println!(
                    "{input}: tier={} cost={cost} lower-bound={} conforms={}",
                    planned.tier.label(),
                    planned.lower_bound,
                    planned.conforms
                );
            }
            if let Some(dir) = &out_dir {
                if planned.tier != webre::map::MapTier::Rejected {
                    write_mapped(dir, input, &planned.document)?;
                }
            }
        }
        Ok(failures)
    })?;
    if failures > 0 {
        eprintln!("{failures} input(s) skipped due to read errors");
    }
    Ok(exit_for(failures))
}

fn cmd_serve(parsed: &Parsed) -> Result<ExitCode, CliError> {
    parsed.no_positional("serve")?;
    let defaults = ServeConfig::default();
    let ms = |parsed: &Parsed, name: &str, default: std::time::Duration| {
        Ok::<_, CliError>(std::time::Duration::from_millis(
            parsed.uint(name, default.as_millis() as usize)? as u64,
        ))
    };
    let config = ServeConfig {
        addr: parsed
            .value("addr")
            .unwrap_or(&defaults.addr)
            .to_owned(),
        workers: parsed.uint("workers", defaults.workers)?.max(1),
        queue_cap: parsed.uint("queue-cap", defaults.queue_cap)?.max(1),
        cache_cap: parsed.uint("cache-cap", defaults.cache_cap)?,
        max_body: parsed.uint("max-body", defaults.max_body)?,
        read_timeout: ms(parsed, "read-timeout-ms", defaults.read_timeout)?,
        idle_timeout: ms(parsed, "idle-timeout-ms", defaults.idle_timeout)?,
        write_timeout: ms(parsed, "write-timeout-ms", defaults.write_timeout)?,
        // 0 (the default) disables deadline shedding entirely.
        deadline: match parsed.uint("deadline-ms", 0)? {
            0 => None,
            millis => Some(std::time::Duration::from_millis(millis as u64)),
        },
        data_dir: parsed.value("data-dir").map(PathBuf::from),
        shards: parsed.uint("shards", defaults.shards)?.max(1),
        sync_every: parsed.uint("fsync-every", defaults.sync_every)?.max(1),
        compact_min: parsed.uint("compact-min", defaults.compact_min)?.max(1),
        map_budget: budget_flag(parsed, "map-budget")?,
    };
    let pipeline = pipeline_from(parsed)?;
    let workers = config.workers;
    // A traced server tees every request's span tree into this recorder;
    // the export happens after drain so the file captures the full run.
    let trace_path = parsed.value("trace-out").map(str::to_owned);
    let trace = trace_path
        .as_ref()
        .map(|_| Arc::new(TraceRecorder::new(Box::new(MonotonicClock::new()))));
    let obs = ObsLayer::new(trace.clone());
    let server = Server::start_with_obs(config, pipeline.serve_engine(), obs)
        .map_err(|e| runtime_err(format!("cannot bind: {e}")))?;
    println!(
        "serving on http://{} ({workers} workers; POST /shutdown to drain)",
        server.local_addr()
    );
    server.join();
    println!("drained, all workers exited");
    if let (Some(path), Some(recorder)) = (trace_path, trace) {
        std::fs::write(&path, recorder.to_chrome_json())
            .map_err(|e| runtime_err(format!("cannot write trace {path}: {e}")))?;
        eprintln!("trace written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

// --- webre load: fault-injecting load harness ------------------------

/// Kills and reaps a child process on drop (normal exit or error
/// unwind), so a failed run never leaks a listening process.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        // webre::allow(dropped-result): best-effort teardown; the child may already be gone
        let _ = self.0.kill();
        // webre::allow(dropped-result): reap only; exit status of a killed child is meaningless
        let _ = self.0.wait();
    }
}

/// A spawned `webre serve` child. Its stdout pipe stays open for the
/// child's lifetime, so its drain banner never hits a closed pipe.
struct ServeChild {
    process: KillOnDrop,
    _stdout: std::io::BufReader<std::process::ChildStdout>,
    /// `HOST:PORT` from the "serving on http://HOST:PORT" banner.
    addr: String,
}

/// Spawns `exe serve --addr 127.0.0.1:0 extra_args…` and reads the
/// ephemeral address from its banner.
fn spawn_serve<S: AsRef<std::ffi::OsStr>>(
    exe: &Path,
    extra_args: impl IntoIterator<Item = S>,
) -> Result<ServeChild, CliError> {
    use std::io::BufRead;
    let mut process = KillOnDrop(
        std::process::Command::new(exe)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| runtime_err(format!("cannot spawn `webre serve`: {e}")))?,
    );
    let stdout = process
        .0
        .stdout
        .take()
        .ok_or_else(|| runtime_err("child stdout was not piped"))?;
    let mut stdout = std::io::BufReader::new(stdout);
    let mut banner = String::new();
    if stdout.read_line(&mut banner).is_err() || banner.is_empty() {
        return Err(runtime_err(
            "`webre serve` exited before announcing its address",
        ));
    }
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or_else(|| runtime_err(format!("unparseable serve banner: {banner:?}")))?
        .to_owned();
    Ok(ServeChild {
        process,
        _stdout: stdout,
        addr,
    })
}

fn cmd_load(parsed: &Parsed) -> Result<ExitCode, CliError> {
    use webre::serve::load::{run as run_load, LoadConfig};
    parsed.no_positional("load")?;
    let connections = parsed.uint("connections", 1000)?.max(32);
    let loris = parsed.uint("loris", connections / 5)?;
    if loris + 32 > connections {
        return Err(usage_err(format!(
            "--loris {loris} leaves no room for the other client classes \
             under --connections {connections}"
        )));
    }
    let duration = std::time::Duration::from_secs(parsed.uint("duration", 5)?.max(1) as u64);
    let workers = parsed.uint("workers", 4)?.max(1);
    let queue_cap = parsed.uint("queue-cap", 256)?.max(1);
    let cache_cap = parsed.uint("cache-cap", 4096)?;
    let deadline_ms = parsed.uint("deadline-ms", 50)?;
    let read_timeout_ms = parsed.uint("read-timeout-ms", 1000)?.max(100);
    // Idle holders must survive the whole run, so the idle budget
    // defaults to comfortably past the driving window.
    let idle_timeout_ms = parsed.uint(
        "idle-timeout-ms",
        duration.as_millis() as usize * 2 + 10_000,
    )?;

    // External server (--addr) or a child spawned for the run.
    let (child, addr) = match parsed.value("addr") {
        Some(addr) => (None, addr.to_owned()),
        None => {
            let exe = std::env::current_exe()
                .map_err(|e| runtime_err(format!("cannot locate own executable: {e}")))?;
            let child = spawn_serve(
                &exe,
                [
                    "--workers",
                    &workers.to_string(),
                    "--queue-cap",
                    &queue_cap.to_string(),
                    "--cache-cap",
                    &cache_cap.to_string(),
                    "--deadline-ms",
                    &deadline_ms.to_string(),
                    "--read-timeout-ms",
                    &read_timeout_ms.to_string(),
                    "--idle-timeout-ms",
                    &idle_timeout_ms.to_string(),
                ],
            )?;
            let addr = child.addr.clone();
            (Some(child), addr)
        }
    };

    // Bodies from the synthetic corpus: one hot document (pre-warmed
    // into the cache by the harness), a cold template mutated per
    // request, and an identity-probe document checked byte-for-byte
    // against the batch pipeline after the storm.
    let generator = CorpusGenerator::new(41);
    let hot_body = generator.generate_one(0).html.into_bytes();
    let cold_template = generator.generate_one(1).html.into_bytes();
    let probe_html = generator.generate_one(2).html;
    let expected = Pipeline::resume_domain()
        .serve_engine()
        .convert_to_xml(&probe_html)
        .2
        .into_bytes();

    println!(
        "load: {connections} connections ({loris} loris) against {addr} for {}s \
         (deadline {deadline_ms}ms, read budget {read_timeout_ms}ms)",
        duration.as_secs()
    );
    let config = LoadConfig {
        addr: addr.clone(),
        connections,
        loris,
        duration,
        hot_body,
        cold_template,
        max_body: 1 << 20,
        read_timeout: std::time::Duration::from_millis(read_timeout_ms as u64),
        identity_probe: Some((probe_html.into_bytes(), expected)),
    };
    let report = run_load(&config).map_err(runtime_err)?;

    // Drain the child gracefully so its corpus/obs teardown runs.
    if child.is_some() {
        // webre::allow(dropped-result): best-effort drain; the Drop guard kills regardless
        let _ = webre_substrate::http::request(&addr, "POST", "/shutdown", b"");
    }
    drop(child);

    println!("  {:<28} {:>12}", "metric", "value");
    let rows: &[(&str, String)] = &[
        ("connections opened", report.connections.to_string()),
        ("requests ok", report.requests_ok.to_string()),
        ("p50 / p99 / p99.9 µs", format!(
            "{} / {} / {}",
            report.p50_us, report.p99_us, report.p999_us
        )),
        ("healthz p99 µs", report.healthz_p99_us.to_string()),
        ("hot convert rps", report.hot_rps.to_string()),
        ("cold converts", report.cold_requests.to_string()),
        ("shed (client 429s)", report.shed_client_429.to_string()),
        ("shed (server deadline)", report.shed_server.to_string()),
        ("shed (server queue-full)", report.rejected_server.to_string()),
        ("loris reaped", format!(
            "{}/{} (p99 {}ms)",
            report.loris_reaped, report.loris_total, report.loris_reap_p99_ms
        )),
        ("reaped read/idle/write", format!(
            "{}/{}/{}",
            report.reaped_read, report.reaped_idle, report.reaped_write
        )),
        ("oversized 413s", format!(
            "{}/{}",
            report.oversized_413, report.oversized_total
        )),
        ("abrupt disconnects", report.abrupt.to_string()),
        ("idle still open", format!(
            "{}/{}",
            report.idle_open_after, report.idle_total
        )),
        ("stalled workers", report.stalled_workers.to_string()),
    ];
    for (name, value) in rows {
        println!("  {name:<28} {value:>12}");
    }

    // Hard postconditions: any failure here is the server misbehaving
    // under load, and the run must say so with a nonzero exit.
    let mut failures = Vec::new();
    if report.stalled_workers != 0 {
        failures.push(format!(
            "{} request(s) still in flight after quiesce — a worker is hung",
            report.stalled_workers
        ));
    }
    if report.loris_reaped != report.loris_total {
        failures.push(format!(
            "only {}/{} loris connections were reaped",
            report.loris_reaped, report.loris_total
        ));
    }
    if report.loris_reap_p99_ms > 2 * read_timeout_ms as u64 {
        failures.push(format!(
            "loris reap p99 {}ms exceeds twice the {read_timeout_ms}ms read budget",
            report.loris_reap_p99_ms
        ));
    }
    if !report.shed_accounted {
        failures.push(format!(
            "shed accounting mismatch: clients saw {} 429s, the server \
             recorded {} shed + {} queue-full",
            report.shed_client_429, report.shed_server, report.rejected_server
        ));
    }
    if report.idle_open_after != report.idle_total {
        failures.push(format!(
            "{}/{} idle keep-alive connections survived the run",
            report.idle_open_after, report.idle_total
        ));
    }
    if report.oversized_413 != report.oversized_total {
        failures.push(format!(
            "{}/{} oversized uploads got the early 413",
            report.oversized_413, report.oversized_total
        ));
    }
    if !report.byte_identical {
        failures.push("post-storm /convert output diverged from the batch pipeline".to_owned());
    }

    if let Some(path) = parsed.value("bench-out") {
        use std::io::Write as _;
        let record = format!(
            "{{\"name\":\"serve_load\",\"connections\":{},\"loris\":{},\"duration_s\":{},\
             \"workers\":{workers},\"deadline_ms\":{deadline_ms},\
             \"requests_ok\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\
             \"healthz_p99_us\":{},\"hot_rps\":{},\"cold_requests\":{},\
             \"shed_client_429\":{},\"shed_server\":{},\"rejected_server\":{},\
             \"shed_accounted\":{},\"reaped_read\":{},\"reaped_idle\":{},\"reaped_write\":{},\
             \"loris_total\":{},\"loris_reaped\":{},\"loris_reap_p99_ms\":{},\
             \"oversized_413\":{},\"oversized_total\":{},\"idle_open_after\":{},\
             \"idle_total\":{},\"stalled_workers\":{},\"byte_identical\":{}}}",
            report.connections,
            report.loris_total,
            duration.as_secs(),
            report.requests_ok,
            report.p50_us,
            report.p99_us,
            report.p999_us,
            report.healthz_p99_us,
            report.hot_rps,
            report.cold_requests,
            report.shed_client_429,
            report.shed_server,
            report.rejected_server,
            report.shed_accounted,
            report.reaped_read,
            report.reaped_idle,
            report.reaped_write,
            report.loris_total,
            report.loris_reaped,
            report.loris_reap_p99_ms,
            report.oversized_413,
            report.oversized_total,
            report.idle_open_after,
            report.idle_total,
            report.stalled_workers,
            report.byte_identical,
        );
        let mut out = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| runtime_err(format!("cannot open {path}: {e}")))?;
        writeln!(out, "{record}")
            .map_err(|e| runtime_err(format!("cannot write {path}: {e}")))?;
        println!("==> serve_load record appended to {path}");
    }

    if failures.is_empty() {
        println!("load: all postconditions held");
        Ok(ExitCode::SUCCESS)
    } else {
        Err(runtime_err(format!(
            "load postconditions failed:\n  - {}",
            failures.join("\n  - ")
        )))
    }
}

/// Per-stage aggregate over one or more trace files.
#[derive(Default)]
struct StageSummary {
    spans: u64,
    total_us: f64,
    max_us: f64,
}

fn cmd_stats(parsed: &Parsed) -> Result<ExitCode, CliError> {
    if parsed.positional.is_empty() {
        return Err(usage_err("stats needs at least one trace file"));
    }
    // Keyed by first-seen name; printed in pipeline order (stage::ALL)
    // with uncatalogued names, if any, trailing in file order.
    let mut names: Vec<String> = Vec::new();
    let mut stages: Vec<StageSummary> = Vec::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    for path in &parsed.positional {
        let doc = Json::parse(&read(path)?)
            .map_err(|e| runtime_err(format!("bad trace file {path}: {e}")))?;
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or_else(|| runtime_err(format!("{path}: no traceEvents array")))?;
        for event in events {
            let Some(name) = event.get("name").and_then(Json::as_str) else {
                continue;
            };
            let dur = event.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
            let idx = match names.iter().position(|n| n == name) {
                Some(idx) => idx,
                None => {
                    names.push(name.to_owned());
                    stages.push(StageSummary::default());
                    names.len() - 1
                }
            };
            let summary = &mut stages[idx];
            summary.spans += 1;
            summary.total_us += dur;
            summary.max_us = summary.max_us.max(dur);
            let Some(args) = event.get("args") else {
                continue;
            };
            for counter in webre::obs::counter::ALL.iter().copied() {
                let Some(n) = args.get(counter).and_then(Json::as_f64) else {
                    continue;
                };
                match counters.iter_mut().find(|(k, _)| k == counter) {
                    Some(entry) => entry.1 += n as u64,
                    None => counters.push((counter.to_owned(), n as u64)),
                }
            }
        }
    }
    let order: Vec<usize> = webre::obs::stage::ALL
        .iter()
        .filter_map(|stage| names.iter().position(|n| n == stage))
        .chain(
            (0..names.len()).filter(|&i| webre::obs::stage::index_of(&names[i]).is_none()),
        )
        .collect();
    println!(
        "{:<24} {:>8} {:>12} {:>10} {:>10}",
        "stage", "spans", "total(us)", "mean(us)", "max(us)"
    );
    for i in order {
        let s = &stages[i];
        let mean = if s.spans == 0 {
            0.0
        } else {
            s.total_us / s.spans as f64
        };
        println!(
            "{:<24} {:>8} {:>12.1} {:>10.1} {:>10.1}",
            names[i], s.spans, s.total_us, mean, s.max_us
        );
    }
    if !counters.is_empty() {
        println!();
        println!("{:<24} {:>8}", "counter", "total");
        for counter in webre::obs::counter::ALL.iter().copied() {
            if let Some((name, total)) = counters.iter().find(|(k, _)| k == counter) {
                println!("{name:<24} {total:>8}");
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_validate(parsed: &Parsed) -> Result<ExitCode, CliError> {
    let dtd_path = parsed
        .value("dtd")
        .ok_or_else(|| usage_err("validate needs --dtd"))?;
    let dtd = webre::xml::dtd::parse_dtd(&read(dtd_path)?)
        .map_err(|e| runtime_err(format!("bad DTD {dtd_path}: {e}")))?;
    if parsed.positional.is_empty() {
        return Err(usage_err("validate needs at least one XML file"));
    }
    let mut failures = 0usize;
    for path in &parsed.positional {
        let doc = webre::xml::parse_xml(&read(path)?)
            .map_err(|e| runtime_err(format!("bad XML {path}: {e}")))?;
        let errors = webre::xml::validate(&doc, &dtd);
        if errors.is_empty() {
            println!("{path}: conforms");
        } else {
            failures += 1;
            println!("{path}: {} violations", errors.len());
            for e in errors.iter().take(5) {
                println!("  {e}");
            }
        }
    }
    Ok(exit_for(failures))
}

fn cmd_check(parsed: &Parsed) -> Result<ExitCode, CliError> {
    parsed.no_positional("check")?;
    let seed = parsed.uint("seed", 1)? as u64;
    let iters = parsed.uint("iters", 200)? as u64;
    let config = webre_check::CheckConfig {
        seed,
        iters,
        only: parsed.value("only").map(str::to_owned),
    };
    let report = webre_check::run(&config);
    if report.oracles.is_empty() {
        let known: Vec<&str> = webre_check::runner::ORACLES
            .iter()
            .map(|(name, _, _)| *name)
            .collect();
        return Err(runtime_err(format!(
            "no oracle named {:?}; known oracles: {}",
            config.only.as_deref().unwrap_or(""),
            known.join(", ")
        )));
    }
    print!("{}", report.render());
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_lint(parsed: &Parsed) -> Result<ExitCode, CliError> {
    let rules = webre_lint::all_rules();
    if parsed.switch("list-rules") {
        for rule in &rules {
            println!("{:<24} {}", rule.id(), rule.description());
        }
        return Ok(ExitCode::SUCCESS);
    }
    let format = parsed.value("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(usage_err(format!(
            "--format expects text or json, got {format:?}"
        )));
    }
    let mut config = webre_lint::LintConfig::default();
    if let Some(only) = parsed.value("only") {
        if !rules.iter().any(|r| r.id() == only) {
            let known: Vec<&str> = rules.iter().map(|r| r.id()).collect();
            return Err(runtime_err(format!(
                "no rule named {only:?}; known rules: {}",
                known.join(", ")
            )));
        }
        config.only = Some(only.to_owned());
    }
    let root = match parsed.value("root") {
        Some(dir) => PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| runtime_err(format!("cannot resolve current dir: {e}")))?;
            webre_lint::Workspace::find_root(&cwd).ok_or_else(|| {
                runtime_err("no workspace root found above the current directory; pass --root")
            })?
        }
    };
    let diagnostics = if parsed.positional.is_empty() {
        webre_lint::lint_workspace(&root, &config)
    } else {
        let paths: Vec<PathBuf> = parsed.positional.iter().map(PathBuf::from).collect();
        webre_lint::lint_paths(&root, &paths, &config)
    }
    .map_err(|e| runtime_err(format!("lint failed: {e}")))?;
    match format {
        "json" => print!("{}", webre_lint::render_json(&diagnostics)),
        _ => {
            print!("{}", webre_lint::render_text(&diagnostics));
            if diagnostics.is_empty() {
                eprintln!("lint: no findings");
            } else {
                eprintln!("lint: {} finding(s)", diagnostics.len());
            }
        }
    }
    Ok(if diagnostics.is_empty() || !parsed.switch("deny-warnings") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_generate(parsed: &Parsed) -> Result<ExitCode, CliError> {
    let count: usize = parsed
        .value("count")
        .ok_or_else(|| usage_err("generate needs --count"))?
        .parse()
        .map_err(|_| usage_err("--count expects an integer"))?;
    let seed = parsed.uint("seed", 2002)? as u64;
    let out_dir = PathBuf::from(
        parsed
            .value("out-dir")
            .ok_or_else(|| usage_err("generate needs --out-dir"))?,
    );
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| runtime_err(format!("cannot create out dir: {e}")))?;
    let generator = CorpusGenerator::new(seed);
    for doc in generator.generate(count) {
        std::fs::write(out_dir.join(format!("resume{:04}.html", doc.id)), &doc.html)
            .map_err(|e| runtime_err(e.to_string()))?;
        std::fs::write(
            out_dir.join(format!("resume{:04}.truth.xml", doc.id)),
            webre::xml::to_xml_pretty(&doc.truth),
        )
        .map_err(|e| runtime_err(e.to_string()))?;
    }
    println!("wrote {count} documents (+ ground truth) to {}", out_dir.display());
    Ok(ExitCode::SUCCESS)
}

// --- webre scale: multi-process sharded-ingest demonstration ----------

/// One spawned `webre serve` child plus its keep-alive client
/// connection.
struct ScaleNode {
    server: ServeChild,
    client: webre_substrate::http::Client,
    /// Pipelined requests written but not yet answered.
    pending: usize,
}

/// Opens a keep-alive connection to a scale instance.
fn scale_connect(addr: &str) -> Result<webre_substrate::http::Client, CliError> {
    webre_substrate::http::Client::connect(addr, std::time::Duration::from_secs(120))
        .map_err(|e| runtime_err(format!("cannot connect to instance at {addr}: {e}")))
}

/// Spawns one `webre serve` child on an ephemeral port and opens one
/// keep-alive connection to it. With one worker per child, that single
/// connection pins the worker, so every request to the instance must
/// flow through it — exactly the pipelined discipline the sender uses.
fn spawn_scale_node(
    exe: &Path,
    index: usize,
    workers: usize,
    shards: usize,
    data_dir: Option<&Path>,
) -> Result<ScaleNode, CliError> {
    let mut args: Vec<std::ffi::OsString> = vec![
        "--workers".into(),
        workers.to_string().into(),
        "--queue-cap".into(),
        "256".into(),
        "--cache-cap".into(),
        "16".into(),
    ];
    if let Some(dir) = data_dir {
        // Bulk-load posture: big fsync batches, compaction off. A
        // mid-stream compaction rewrites the whole shard snapshot, and
        // past ~100k docs that stall outlives the sibling instances'
        // keep-alive read timeout; the raw WAL for a million stream docs
        // is only ~150 MB, so deferring compaction to the next restart
        // is the cheaper trade. Compaction itself is exercised by the
        // persistence tests and the verify-script smoke run.
        args.extend([
            "--data-dir".into(),
            dir.join(format!("instance-{index}")).into(),
            "--shards".into(),
            shards.to_string().into(),
            "--fsync-every".into(),
            "2048".into(),
            "--compact-min".into(),
            "1000000000".into(),
        ]);
    }
    let server = spawn_serve(exe, args)?;
    let client = scale_connect(&server.addr)?;
    Ok(ScaleNode {
        server,
        client,
        pending: 0,
    })
}

/// Reads every pipelined response still owed by a node; each must be a
/// 202 accretion acknowledgment.
fn drain_scale_node(node: &mut ScaleNode) -> Result<(), CliError> {
    while node.pending > 0 {
        let response = node
            .client
            .recv()
            .map_err(|e| runtime_err(format!("ingest response: {e}")))?;
        if response.status != 202 {
            return Err(runtime_err(format!(
                "ingest rejected: {} {}",
                response.status,
                response.text()
            )));
        }
        node.pending -= 1;
    }
    Ok(())
}

/// One request/response exchange on a node's keep-alive connection.
/// Only valid when no pipelined responses are outstanding. If the
/// server closed the idle connection (its keep-alive read timeout can
/// fire while a slow request to a *sibling* instance is in flight),
/// the exchange reconnects once and retries — safe for these
/// idempotent GETs, never used on the accretion path.
fn scale_roundtrip(
    node: &mut ScaleNode,
    method: &str,
    target: &str,
) -> Result<webre_substrate::http::ParsedResponse, CliError> {
    for attempt in 0..2 {
        match node.client.roundtrip(method, target, b"") {
            // A 408 is the server timing out the *idle* connection: it
            // was queued before our request arrived, so the request was
            // never processed. Treat it like a closed connection —
            // reconnect and resend.
            Ok(response) if response.status == 408 && attempt == 0 => {}
            Ok(response) => return Ok(response),
            Err(e) if attempt == 1 => {
                return Err(runtime_err(format!("{method} {target}: {e}")));
            }
            Err(_) => {}
        }
        node.client = scale_connect(&node.server.addr)?;
    }
    unreachable!("loop returns on success or second failure")
}

/// Fetches every instance's path table and merges them — the
/// distributed corpus seen through the merge algebra.
fn merged_remote_table(fleet: &mut [ScaleNode]) -> Result<webre_schema::PathTable, CliError> {
    use webre_substrate::json::FromJson;
    let mut tables = Vec::with_capacity(fleet.len());
    for node in fleet {
        let response = scale_roundtrip(node, "GET", "/corpus/table")?;
        if response.status != 200 {
            return Err(runtime_err(format!(
                "/corpus/table returned {}",
                response.status
            )));
        }
        let value = Json::parse(response.text().trim())
            .map_err(|e| runtime_err(format!("bad /corpus/table JSON: {e}")))?;
        tables.push(
            webre_schema::PathTable::from_json(&value)
                .map_err(|e| runtime_err(format!("bad /corpus/table payload: {e}")))?,
        );
    }
    Ok(webre_schema::PathTable::merged(tables.iter()))
}

fn cmd_scale(parsed: &Parsed) -> Result<ExitCode, CliError> {
    parsed.no_positional("scale")?;
    let instances = parsed.uint("instances", 2)?.max(1);
    let docs = parsed.uint("docs", 100_000)?.max(1) as u64;
    let seed = parsed.uint("seed", 2002)? as u64;
    let batch = parsed.uint("batch", 64)?.max(1);
    let checkpoints = parsed.uint("checkpoints", 4)?.max(1) as u64;
    let workers = parsed.uint("workers", 1)?.max(1);
    let shards = parsed.uint("shards", 2)?.max(1);
    let data_dir = parsed.value("data-dir").map(PathBuf::from);
    let exe = std::env::current_exe()
        .map_err(|e| runtime_err(format!("cannot locate own executable: {e}")))?;
    if let Some(dir) = &data_dir {
        // A fresh run must not replay a previous run's corpus.
        if dir.exists() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| runtime_err(format!("cannot clear {}: {e}", dir.display())))?;
        }
    }

    // Dropping the fleet (normal exit or error unwind) kills every child.
    let mut fleet = Vec::with_capacity(instances);
    for k in 0..instances {
        fleet.push(spawn_scale_node(&exe, k, workers, shards, data_dir.as_deref())?);
    }
    eprintln!(
        "scale: {instances} instance(s) up, streaming {docs} docs (batch {batch}, {checkpoints} checkpoint(s){})",
        if data_dir.is_some() { ", durable" } else { "" }
    );

    // Ingest: route each generated document by content hash through the
    // consistent-hash ring, pipelining `batch` requests per connection,
    // while maintaining the local batch reference table.
    let stream = webre_corpus::XmlStream::new(seed);
    let ring = webre_substrate::ring::HashRing::with_nodes(instances as u32);
    let mut reference = webre_schema::PathTable::new();
    // The stream draws from a few hundred distinct document shapes, so
    // the reference table can memoize extraction per shape instead of
    // re-parsing every document — the client shares one core with the
    // whole fleet and its parse time would otherwise rival the servers'.
    let mut extracted: std::collections::BTreeMap<String, webre_schema::DocPaths> =
        std::collections::BTreeMap::new();
    let checkpoint_every = (docs / checkpoints).max(1);
    let mut checks = 0u64;
    let ingest_start = std::time::Instant::now();
    for i in 0..docs {
        let xml = stream.doc(i);
        let hash = webre_substrate::wal::checksum(xml.as_bytes());
        let Some(node) = ring.route(hash) else {
            return Err(runtime_err("empty hash ring"));
        };
        let node = &mut fleet[node as usize];
        node.client
            .send("POST", "/corpus/xml", xml.as_bytes())
            .map_err(|e| runtime_err(format!("ingest write: {e}")))?;
        node.pending += 1;
        if node.pending >= batch {
            drain_scale_node(node)?;
        }
        match extracted.get(&xml) {
            Some(paths) => reference.add_doc(paths),
            None => {
                let paths = webre_schema::extract_paths(
                    &webre::xml::parse_xml(&xml)
                        .map_err(|e| runtime_err(format!("generated doc {i} is not XML: {e}")))?,
                );
                reference.add_doc(&paths);
                extracted.insert(xml, paths);
            }
        }
        if (i + 1) % checkpoint_every == 0 || i + 1 == docs {
            for node in &mut fleet {
                drain_scale_node(node)?;
            }
            let merged = merged_remote_table(&mut fleet)?;
            if merged != reference {
                return Err(runtime_err(format!(
                    "checkpoint at doc {}: merged shard tables diverge from the batch reference",
                    i + 1
                )));
            }
            checks += 1;
            eprintln!(
                "scale: checkpoint {}/{} at {} docs — merged table ≡ batch reference",
                checks,
                checkpoints,
                i + 1
            );
        }
    }
    let ingest_s = ingest_start.elapsed().as_secs_f64();
    let docs_per_s = docs as f64 / ingest_s.max(f64::EPSILON);

    // Time-to-fresh-schema: every instance mines its share from scratch
    // (accretion invalidated the cached snapshot on every doc).
    let schema_start = std::time::Instant::now();
    for node in &mut fleet {
        let response = scale_roundtrip(node, "GET", "/schema")?;
        if response.status != 200 {
            return Err(runtime_err(format!("/schema returned {}", response.status)));
        }
    }
    let schema_s = schema_start.elapsed().as_secs_f64();

    // The mined view of the merged tables must match mining the local
    // reference — the identity the shard-merge-vs-batch oracle checks,
    // here across real process boundaries.
    let merged = merged_remote_table(&mut fleet)?;
    let miner = FrequentPathMiner::default();
    let agreement = match (miner.mine_view(&reference), miner.mine_view(&merged)) {
        (None, None) => true,
        (Some(a), Some(b)) => a.schema.render() == b.schema.render(),
        _ => false,
    };
    if !agreement {
        return Err(runtime_err(
            "schema mined from merged shard tables diverges from the batch schema",
        ));
    }

    // Orderly shutdown: drain each instance over its own connection.
    // The roundtrip's reconnect-and-retry matters here: an undelivered
    // drain request would leave `wait` below blocking forever.
    for node in &mut fleet {
        let response = scale_roundtrip(node, "POST", "/shutdown")?;
        if response.status != 200 {
            return Err(runtime_err(format!(
                "/shutdown returned {}",
                response.status
            )));
        }
    }
    for (k, node) in fleet.iter_mut().enumerate() {
        let status = node
            .server
            .process
            .0
            .wait()
            .map_err(|e| runtime_err(format!("waiting for instance {k}: {e}")))?;
        if !status.success() {
            return Err(runtime_err(format!("instance {k} exited with {status}")));
        }
    }

    // Durable runs: reopen every instance's store and time the replay.
    let (replay_s, replay_docs) = match &data_dir {
        None => (0.0, 0usize),
        Some(dir) => {
            let replay_start = std::time::Instant::now();
            let mut total = 0usize;
            for k in 0..instances {
                let config = webre::serve::persist::StoreConfig {
                    data_dir: dir.join(format!("instance-{k}")),
                    shards,
                    sync_every: 256,
                    compact_min: 1024,
                };
                let (_, corpus, report) = webre::serve::persist::CorpusStore::open(&config)
                    .map_err(|e| runtime_err(format!("replay of instance {k} failed: {e}")))?;
                if !report.warnings.is_empty() {
                    return Err(runtime_err(format!(
                        "replay of instance {k} warned: {:?}",
                        report.warnings
                    )));
                }
                total += corpus.len();
            }
            (replay_start.elapsed().as_secs_f64(), total)
        }
    };
    if data_dir.is_some() && replay_docs as u64 != docs {
        return Err(runtime_err(format!(
            "replay recovered {replay_docs} docs, expected {docs}"
        )));
    }

    eprintln!(
        "scale: {docs} docs through {instances} instance(s) in {ingest_s:.2}s ({docs_per_s:.0} docs/s); \
         fresh schema in {schema_s:.3}s{}",
        if data_dir.is_some() {
            format!("; replayed {replay_docs} docs in {replay_s:.2}s")
        } else {
            String::new()
        }
    );
    let summary = Json::Obj(vec![
        ("bench".to_owned(), Json::Str("corpus_scale".to_owned())),
        ("docs".to_owned(), Json::Num(docs as f64)),
        ("instances".to_owned(), Json::Num(instances as f64)),
        ("shards".to_owned(), Json::Num(shards as f64)),
        ("ingest_s".to_owned(), Json::Num(ingest_s)),
        ("docs_per_s".to_owned(), Json::Num(docs_per_s)),
        ("schema_s".to_owned(), Json::Num(schema_s)),
        ("checkpoints".to_owned(), Json::Num(checks as f64)),
        ("agreement".to_owned(), Json::Bool(true)),
        ("durable".to_owned(), Json::Bool(data_dir.is_some())),
        ("replay_s".to_owned(), Json::Num(replay_s)),
        ("replay_docs".to_owned(), Json::Num(replay_docs as f64)),
    ]);
    println!("{summary}");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flags in `command`'s `USAGE` entry: its line and the indented
    /// continuation lines under it.
    fn usage_flags(command: &str) -> Vec<&'static str> {
        let mut lines = USAGE.lines().skip_while(|line| {
            let mut words = line.split_whitespace();
            (words.next(), words.next()) != (Some("webre"), Some(command))
        });
        let first = lines.next().unwrap_or_else(|| panic!("no USAGE entry for {command}"));
        std::iter::once(first)
            .chain(lines.take_while(|line| line.starts_with("   ")))
            .flat_map(|line| line.split(|c: char| c.is_whitespace() || c == '[' || c == ']'))
            .filter_map(|word| word.strip_prefix("--"))
            .collect()
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_command_accepts() {
        for &(command, (values, switches), _) in COMMANDS {
            let mut accepted: Vec<&str> = values.iter().chain(switches).copied().collect();
            let mut listed = usage_flags(command);
            accepted.sort_unstable();
            listed.sort_unstable();
            assert_eq!(listed, accepted, "USAGE entry for `webre {command}`");
        }
    }
}
