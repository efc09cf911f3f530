//! Integration tests for the `webre` command-line tool.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_webre"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webre-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = bin().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn help_succeeds() {
    let out = bin().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("webre convert"));
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn usage_lists_every_subcommand() {
    let out = bin().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let usage = String::from_utf8_lossy(&out.stdout).into_owned();
    for subcommand in [
        "convert", "discover", "run", "map", "serve", "load", "stats", "validate", "generate",
        "check", "lint",
    ] {
        assert!(
            usage.contains(&format!("webre {subcommand}")),
            "usage is missing subcommand {subcommand:?}:\n{usage}"
        );
    }
    assert!(usage.contains("--version"), "{usage}");
}

#[test]
fn version_flag_prints_package_version() {
    for flag in ["--version", "-V"] {
        let out = bin().arg(flag).output().expect("spawn");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert_eq!(text.trim(), format!("webre {}", env!("CARGO_PKG_VERSION")));
    }
}

#[test]
fn unknown_flag_is_a_usage_error_on_every_subcommand() {
    for subcommand in [
        "convert", "discover", "run", "map", "serve", "load", "stats", "validate", "generate",
        "check", "lint",
    ] {
        let out = bin()
            .args([subcommand, "--no-such-flag"])
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{subcommand} accepted an unknown flag"
        );
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            stderr.contains("unknown flag --no-such-flag"),
            "{subcommand}: {stderr}"
        );
        assert!(stderr.contains("usage"), "{subcommand}: {stderr}");
    }
}

#[test]
fn run_skips_unreadable_inputs_and_keeps_going() {
    let dir = temp_dir("skip-unreadable");
    let corpus = dir.join("corpus");
    let mapped = dir.join("mapped");
    let out = bin()
        .args(["generate", "--count", "6", "--seed", "5", "--out-dir"])
        .arg(&corpus)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let mut inputs: Vec<PathBuf> = (0..6)
        .map(|i| corpus.join(format!("resume{i:04}.html")))
        .collect();
    inputs.insert(3, corpus.join("missing.html")); // does not exist
    let out = bin()
        .arg("run")
        .args(&inputs)
        .arg("--out-dir")
        .arg(&mapped)
        .output()
        .expect("spawn");
    // The batch completed (every readable document mapped, DTD written)
    // but the exit code still reports the skipped file.
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("missing.html"), "{stderr}");
    assert!(mapped.join("schema.dtd").exists());
    for i in 0..6 {
        assert!(mapped.join(format!("resume{i:04}.xml")).exists(), "doc {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn discover_reports_each_unreadable_input_with_its_path() {
    let dir = temp_dir("discover-unreadable");
    let corpus = dir.join("corpus");
    let out = bin()
        .args(["generate", "--count", "4", "--seed", "9", "--out-dir"])
        .arg(&corpus)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let mut inputs: Vec<PathBuf> = (0..4)
        .map(|i| corpus.join(format!("resume{i:04}.html")))
        .collect();
    inputs.push(corpus.join("gone-a.html"));
    inputs.push(corpus.join("gone-b.html"));
    let out = bin().arg("discover").args(&inputs).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("gone-a.html"), "{stderr}");
    assert!(stderr.contains("gone-b.html"), "{stderr}");
    // Discovery still ran over the readable majority.
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("majority schema"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn map_without_inputs_is_a_usage_error() {
    let out = bin().arg("map").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("at least one input"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn map_reports_a_tier_per_input_and_writes_mapped_xml() {
    let dir = temp_dir("map-tiers");
    let corpus = dir.join("corpus");
    let mapped = dir.join("mapped");
    let out = bin()
        .args(["generate", "--count", "6", "--seed", "17", "--out-dir"])
        .arg(&corpus)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let htmls: Vec<PathBuf> = (0..6)
        .map(|i| corpus.join(format!("resume{i:04}.html")))
        .collect();
    let out = bin()
        .arg("map")
        .args(&htmls)
        .arg("--out-dir")
        .arg(&mapped)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    // One summary line per input, each naming its tier.
    assert_eq!(stdout.lines().count(), 6, "{stdout}");
    for line in stdout.lines() {
        assert!(line.contains("tier="), "{line}");
        assert!(line.contains("lower-bound="), "{line}");
    }
    for i in 0..6 {
        assert!(mapped.join(format!("resume{i:04}.xml")).exists(), "doc {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn map_json_emits_one_parseable_object_per_input() {
    let dir = temp_dir("map-json");
    let corpus = dir.join("corpus");
    let out = bin()
        .args(["generate", "--count", "4", "--seed", "23", "--out-dir"])
        .arg(&corpus)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let htmls: Vec<PathBuf> = (0..4)
        .map(|i| corpus.join(format!("resume{i:04}.html")))
        .collect();
    let out = bin().arg("map").args(&htmls).arg("--json").output().expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    for line in lines {
        let json = webre_substrate::json::Json::parse(line).expect("line parses as JSON");
        let tier = json
            .get("tier")
            .and_then(webre_substrate::json::Json::as_str)
            .expect("tier field");
        assert!(
            ["conformant", "rejected", "exact"].contains(&tier),
            "unexpected tier {tier:?}"
        );
        assert!(json.get("lower_bound").is_some(), "{line}");
        assert!(json.get("edits").is_some(), "{line}");
    }
    // --no-filter must not change a single byte of the output.
    let out2 = bin()
        .arg("map")
        .args(&htmls)
        .args(["--json", "--no-filter"])
        .output()
        .expect("spawn");
    assert!(out2.status.success());
    assert_eq!(out.stdout, out2.stdout, "filter changed the mapping output");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn map_skips_unreadable_inputs_and_reports_each_path() {
    let dir = temp_dir("map-unreadable");
    let corpus = dir.join("corpus");
    let out = bin()
        .args(["generate", "--count", "4", "--seed", "29", "--out-dir"])
        .arg(&corpus)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let mut inputs: Vec<PathBuf> = (0..4)
        .map(|i| corpus.join(format!("resume{i:04}.html")))
        .collect();
    inputs.insert(2, corpus.join("vanished.html")); // does not exist
    let out = bin().arg("map").args(&inputs).output().expect("spawn");
    // The batch completed over the readable majority; the exit code
    // still reports the skipped file.
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("vanished.html"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(stdout.lines().count(), 4, "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn map_budget_flag_rejects_bad_values() {
    let out = bin()
        .args(["map", "x.html", "--budget", "many"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--budget"), "stderr");
}

#[test]
fn serve_subcommand_answers_http_and_drains_on_shutdown() {
    use std::io::{BufRead, BufReader, Read as _};
    use webre_substrate::http::request;

    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    // "serving on http://127.0.0.1:PORT (...)"
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .expect("address in banner")
        .to_owned();

    let health = request(&addr, "GET", "/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200, "{}", health.text());
    let converted =
        request(&addr, "POST", "/convert", b"<h2>Skills</h2><p>Rust</p>").expect("convert");
    assert_eq!(converted.status, 200, "{}", converted.text());
    assert!(converted.text().contains("<resume"), "{}", converted.text());
    let drain = request(&addr, "POST", "/shutdown", b"").expect("shutdown");
    assert_eq!(drain.status, 200, "{}", drain.text());

    let status = child.wait().expect("serve exit");
    assert!(status.success(), "serve exited {status:?}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drained"), "{rest}");
}

#[test]
fn generate_convert_discover_run_validate_round_trip() {
    let dir = temp_dir("roundtrip");
    let corpus = dir.join("corpus");
    let mapped = dir.join("mapped");

    // generate
    let out = bin()
        .args(["generate", "--count", "8", "--seed", "5", "--out-dir"])
        .arg(&corpus)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let html0 = corpus.join("resume0000.html");
    assert!(html0.exists());
    assert!(corpus.join("resume0007.truth.xml").exists());

    // convert one document
    let out = bin().arg("convert").arg(&html0).output().expect("spawn");
    assert!(out.status.success());
    let xml = String::from_utf8_lossy(&out.stdout);
    assert!(xml.starts_with("<resume"), "{xml}");

    // discover over the corpus
    let htmls: Vec<PathBuf> = (0..8).map(|i| corpus.join(format!("resume{i:04}.html"))).collect();
    let out = bin().arg("discover").args(&htmls).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("majority schema"), "{text}");
    assert!(text.contains("<!ELEMENT resume"), "{text}");

    // full run with mapping
    let out = bin()
        .arg("run")
        .args(&htmls)
        .arg("--out-dir")
        .arg(&mapped)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(mapped.join("schema.dtd").exists());
    assert!(mapped.join("resume0000.xml").exists());

    // validate the mapped output against the written DTD
    let out = bin()
        .arg("validate")
        .arg(mapped.join("resume0000.xml"))
        .arg("--dtd")
        .arg(mapped.join("schema.dtd"))
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("conforms"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_trace_out_emits_chrome_trace_and_stats_summarizes_it() {
    let dir = temp_dir("trace-out");
    let corpus = dir.join("corpus");
    let mapped = dir.join("mapped");
    let trace = dir.join("trace.json");
    let out = bin()
        .args(["generate", "--count", "4", "--seed", "11", "--out-dir"])
        .arg(&corpus)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let htmls: Vec<PathBuf> = (0..4).map(|i| corpus.join(format!("resume{i:04}.html"))).collect();
    let out = bin()
        .arg("run")
        .args(&htmls)
        .arg("--out-dir")
        .arg(&mapped)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // Mapped output is unaffected by tracing; the trace file is valid
    // chrome://tracing JSON naming every restructuring rule plus the
    // mining and DTD stages.
    assert!(mapped.join("schema.dtd").exists());
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let doc = webre_substrate::json::Json::parse(&text).expect("trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(webre_substrate::json::Json::as_arr)
        .expect("traceEvents array");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(webre_substrate::json::Json::as_str))
        .collect();
    for stage in [
        "tokenization-rule",
        "concept-instance-rule",
        "grouping-rule",
        "consolidation-rule",
        "mine-frequent-paths",
        "derive-dtd",
        "map-to-dtd",
    ] {
        assert!(names.contains(&stage), "trace missing stage {stage}: {names:?}");
    }
    // `webre stats` summarizes the file into a per-stage table.
    let out = bin().arg("stats").arg(&trace).output().expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let summary = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(summary.contains("stage"), "{summary}");
    assert!(summary.contains("mine-frequent-paths"), "{summary}");
    assert!(summary.contains("tokens_split"), "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validate_fails_on_nonconforming_document() {
    let dir = temp_dir("nonconforming");
    std::fs::write(dir.join("doc.xml"), "<resume><bogus/></resume>").unwrap();
    std::fs::write(
        dir.join("schema.dtd"),
        "<!ELEMENT resume ((#PCDATA), contact)>\n<!ELEMENT contact (#PCDATA)>\n",
    )
    .unwrap();
    let out = bin()
        .arg("validate")
        .arg(dir.join("doc.xml"))
        .arg("--dtd")
        .arg(dir.join("schema.dtd"))
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("violations"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_with_custom_domain_json() {
    let dir = temp_dir("domain");
    std::fs::write(
        dir.join("domain.json"),
        r#"{
          "concepts": [
            { "name": "listing", "role": "Title", "instances": ["for sale"] },
            { "name": "price",   "role": "Content", "instances": ["price", "asking"] }
          ]
        }"#,
    )
    .unwrap();
    std::fs::write(
        dir.join("page.html"),
        "<h2>For Sale</h2><p>Asking price: 1200</p>",
    )
    .unwrap();
    let out = bin()
        .arg("convert")
        .arg(dir.join("page.html"))
        .arg("--domain")
        .arg(dir.join("domain.json"))
        .arg("--root")
        .arg("ad")
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let xml = String::from_utf8_lossy(&out.stdout);
    assert!(xml.starts_with("<ad"), "{xml}");
    assert!(xml.contains("listing"), "{xml}");
    assert!(xml.contains("price"), "{xml}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_passes_and_is_deterministic() {
    let run = || {
        bin()
            .args(["check", "--iters", "10", "--seed", "1"])
            .output()
            .expect("spawn")
    };
    let (a, b) = (run(), run());
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stdout));
    assert_eq!(a.stdout, b.stdout, "check output is not deterministic");
    let text = String::from_utf8_lossy(&a.stdout);
    // All eleven differential oracles, all three metamorphic invariants
    // and the fuzzer ran.
    for oracle in [
        "fixpoint",
        "tidy-idempotence",
        "parallel-convert",
        "brzozowski-vs-backtracking",
        "miner-vs-bruteforce",
        "serve-vs-batch",
        "loris-liveness",
        "trace-noop",
        "matcher-vs-naive",
        "shard-merge-vs-batch",
        "map-vs-batch",
        "remove-document",
        "duplicate-corpus",
        "permute-order",
        "fuzz-totality",
    ] {
        assert!(text.contains(oracle), "missing oracle {oracle} in:\n{text}");
    }
    assert!(text.contains("all 15 oracles passed"), "{text}");
}

#[test]
fn check_only_restricts_to_one_oracle() {
    let out = bin()
        .args(["check", "--only", "fixpoint", "--iters", "5", "--seed", "3"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fixpoint"), "{text}");
    assert!(!text.contains("miner-vs-bruteforce"), "{text}");
}

#[test]
fn check_failing_oracle_exits_nonzero_with_repro_line() {
    // The hidden self-test oracle fails unconditionally; it exists to pin
    // down the failure path: non-zero exit plus a reproduction command
    // carrying the exact case seed.
    let out = bin()
        .args(["check", "--only", "self-test", "--seed", "42", "--iters", "7"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FAIL"), "{text}");
    assert!(
        text.contains("reproduce: webre check --only self-test --seed 42 --iters 1"),
        "missing repro line in:\n{text}"
    );
}

#[test]
fn check_unknown_oracle_is_an_error() {
    let out = bin()
        .args(["check", "--only", "no-such-oracle"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("known oracles"), "{text}");
}

/// Workspace root (the directory holding the top-level `Cargo.toml`).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A lint-rule fixture file (never compiled; input data for `webre lint`).
fn lint_fixture(name: &str) -> PathBuf {
    repo_root().join("crates/lint/tests/fixtures").join(name)
}

#[test]
fn lint_workspace_is_clean_under_deny_warnings() {
    let out = bin()
        .args(["lint", "--deny-warnings", "--root"])
        .arg(repo_root())
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "workspace must lint clean:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("no findings"));
}

#[test]
fn lint_findings_fail_only_under_deny_warnings() {
    let args = |deny: bool| {
        let mut v = vec!["lint".to_owned()];
        if deny {
            v.push("--deny-warnings".to_owned());
        }
        v.push("--root".to_owned());
        v.push(repo_root().display().to_string());
        v.push(lint_fixture("panic_pos.rs").display().to_string());
        v
    };
    // Without --deny-warnings findings are reported but the exit is 0.
    let out = bin().args(args(false)).output().expect("spawn");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("[panic-in-hot-path]"), "{stdout}");
    // With it, the same findings gate the exit code.
    let out = bin().args(args(true)).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("finding"));
}

#[test]
fn lint_json_output_is_stable() {
    let run = || {
        bin()
            .args(["lint", "--format", "json", "--root"])
            .arg(repo_root())
            .arg(lint_fixture("nondet_pos.rs"))
            .arg(lint_fixture("dropped_pos.rs"))
            .output()
            .expect("spawn")
    };
    let (a, b) = (run(), run());
    assert!(a.status.success());
    assert_eq!(a.stdout, b.stdout, "lint --format json is not stable");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.trim_start().starts_with('['), "{text}");
    assert!(text.contains("\"rule\""), "{text}");
    assert!(text.contains("nondet-iter"), "{text}");
    assert!(text.contains("dropped-result"), "{text}");
}

#[test]
fn lint_list_rules_names_all_nine() {
    let out = bin().args(["lint", "--list-rules"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    for rule in [
        "dropped-result",
        "lock-across-blocking",
        "lock-order",
        "no-wall-clock",
        "nondet-iter",
        "panic-in-hot-path",
        "std-only",
        "unbounded-request-alloc",
        "unjoined-thread",
    ] {
        assert!(text.contains(rule), "missing rule {rule}:\n{text}");
    }
    assert_eq!(text.lines().count(), 9, "one line per rule:\n{text}");
}

#[test]
fn lint_unknown_rule_is_an_error() {
    let out = bin()
        .args(["lint", "--only", "no-such-rule", "--root"])
        .arg(repo_root())
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("known rules"));
}

#[test]
fn lint_bad_format_is_a_usage_error() {
    let out = bin()
        .args(["lint", "--format", "xml", "--root"])
        .arg(repo_root())
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_file_reports_error() {
    let out = bin()
        .args(["convert", "/nonexistent/nope.html"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
