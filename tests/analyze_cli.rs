//! End-to-end acceptance of `autocsp analyze`, its checked-in JSON
//! goldens, and determinism regression for the diagnostic-emitting
//! subcommands: two identical invocations must produce byte-identical
//! stdout and stderr, in both output formats.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn autocsp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autocsp"))
}

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    autocsp().args(args).output().expect("autocsp runs")
}

fn assert_deterministic(args: &[&str]) {
    let first = run(args);
    let second = run(args);
    assert_eq!(
        first.status.code(),
        second.status.code(),
        "exit codes differ for {args:?}"
    );
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&second.stdout),
        "stdout differs between runs for {args:?}"
    );
    assert_eq!(
        String::from_utf8_lossy(&first.stderr),
        String::from_utf8_lossy(&second.stderr),
        "stderr differs between runs for {args:?}"
    );
}

// ---------------------------------------------------------------------------
// `autocsp analyze` acceptance
// ---------------------------------------------------------------------------

#[test]
fn analyze_ota_example_reports_alphabets_graphs_and_predictions() {
    let ota = example("ota_x1373.csp");
    let out = run(&["analyze", ota.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Per-definition inferred alphabets…
    assert!(text.contains("ROGUE : {rec.reqSw, send.rptSw}"), "{text}");
    // …per-operand graph classification…
    assert!(text.contains("divergence-free, deadlock-free"), "{text}");
    // …and the state-space prediction, with the idiomatic channel-closure
    // sync set not misreported as stale.
    assert!(text.contains("predicted product ≤"), "{text}");
    assert!(text.ends_with("0 error(s), 0 warning(s)\n"), "{text}");
}

#[test]
fn analyze_json_is_valid_and_carries_the_report() {
    let ota = example("ota_x1373.csp");
    let out = run(&["analyze", ota.to_str().unwrap(), "--format", "json"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"file\":",
        "\"rounds\":",
        "\"definitions\":",
        "\"assertions\":",
        "\"predicted_product\":",
        "\"divergence_free\":true",
        "\"deadlock_free\":true",
        "\"predicted_states\":",
        "\"diagnostics\":[]",
        "\"errors\":0",
        "\"warnings\":0",
    ] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
}

#[test]
fn analyze_flags_one_sided_sync_and_denies_warnings() {
    let onesided = example("lint/onesided.csp");
    let out = run(&["analyze", onesided.to_str().unwrap()]);
    assert!(out.status.success(), "warnings alone must not fail analyze");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ANA301"), "{text}");
    assert!(text.contains("ANA306"), "{text}");

    let denied = run(&["analyze", onesided.to_str().unwrap(), "--deny-warnings"]);
    assert_eq!(denied.status.code(), Some(1));
}

#[test]
fn analyze_budget_prediction_fires_before_exploration() {
    let ota = example("ota_x1373.csp");
    let out = run(&["analyze", ota.to_str().unwrap(), "--max-states", "1"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ANA307"), "{text}");
}

/// Every shipped model (`examples/*.csp`, `examples/faults/*.csp`) must be
/// free of semantic findings, and its full JSON report — inferred
/// alphabets, SCC/divergence classification, state-space predictions —
/// byte-identical to `examples/analyze/<name>.json`. The report names the
/// model by the path it was given, so the models are passed relative to
/// the repository root. Regenerate a golden there with
/// `autocsp analyze examples/<model>.csp --format json --deny-warnings`.
#[test]
fn every_example_model_matches_its_analyze_golden() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut models = Vec::new();
    for dir in ["examples", "examples/faults"] {
        for entry in fs::read_dir(root.join(dir)).expect("examples directory") {
            let file = entry.expect("directory entry").file_name();
            let file = file.to_str().expect("UTF-8 file name");
            if let Some(name) = file.strip_suffix(".csp") {
                models.push((format!("{dir}/{file}"), name.to_owned()));
            }
        }
    }
    models.sort();
    assert!(!models.is_empty(), "no example models found");
    for (model, name) in models {
        let out = autocsp()
            .current_dir(&root)
            .args(["analyze", &model, "--format", "json", "--deny-warnings"])
            .output()
            .expect("autocsp runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{model}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let golden = root.join(format!("examples/analyze/{name}.json"));
        let expected =
            fs::read_to_string(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected,
            "{model}: the report differs from its golden"
        );
    }
}

// ---------------------------------------------------------------------------
// Determinism: repeated runs are byte-identical (the CI determinism job
// diffs full stdout+stderr; these keep the property pinned at test level).
// ---------------------------------------------------------------------------

#[test]
fn lint_runs_are_byte_identical() {
    let clean_can = example("lint/clean.can");
    let clean_csp = example("lint/clean.csp");
    let defective = example("lint/defective.can");
    let onesided = example("lint/onesided.csp");
    let dbc = example("lint/net.dbc");
    for format in ["text", "json"] {
        assert_deterministic(&[
            "lint",
            clean_can.to_str().unwrap(),
            clean_csp.to_str().unwrap(),
            defective.to_str().unwrap(),
            onesided.to_str().unwrap(),
            "--dbc",
            dbc.to_str().unwrap(),
            "--format",
            format,
        ]);
    }
}

#[test]
fn analyze_runs_are_byte_identical() {
    let ota = example("ota_x1373.csp");
    let onesided = example("lint/onesided.csp");
    for format in ["text", "json"] {
        assert_deterministic(&["analyze", ota.to_str().unwrap(), "--format", format]);
        assert_deterministic(&["analyze", onesided.to_str().unwrap(), "--format", format]);
    }
}

#[test]
fn lint_diagnostics_are_sorted_by_span_within_a_file() {
    let onesided = example("lint/onesided.csp");
    let out = run(&["lint", onesided.to_str().unwrap(), "--format", "json"]);
    let text = String::from_utf8_lossy(&out.stdout);
    // Extract the reported line numbers in emission order; they must be
    // non-decreasing (span-sorted), interleaving the CSP202 and ANA3xx
    // findings rather than appending one family after the other.
    let mut lines = Vec::new();
    let mut rest = text.as_ref();
    while let Some(at) = rest.find("\"line\":") {
        rest = &rest[at + 7..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        lines.push(digits.parse::<u32>().unwrap());
    }
    assert!(!lines.is_empty());
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted, "diagnostics not span-ordered: {text}");
}
