//! End-to-end acceptance of `autocsp conform`: corpus ingest from files,
//! directories and stdin, SIM31x corpus-hygiene findings, the exit-code
//! contract, and the headline determinism guarantee — JSON verdicts
//! byte-identical at 1 and 8 threads.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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

/// A scratch directory unique to this test binary invocation.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autocsp-conform-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn model() -> String {
    example("faults/ota_model.csp").to_str().unwrap().to_owned()
}

fn traces_dir() -> String {
    example("faults/traces").to_str().unwrap().to_owned()
}

// ---------------------------------------------------------------------------
// Verdicts and exit codes
// ---------------------------------------------------------------------------

#[test]
fn conformant_corpus_exits_zero() {
    let ota = example("faults/traces/ota_sessions.jsonl");
    let out = run(&[
        "conform",
        &model(),
        ota.to_str().unwrap(),
        "--spec",
        "HONEST",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("PASS: 6 trace(s), 6 conformant, 0 refuted, 0 unknown-event"),
        "{text}"
    );
}

#[test]
fn violating_traces_fail_with_counterexamples() {
    let bad = example("faults/traces/replayed_sessions.jsonl");
    let out = run(&[
        "conform",
        &model(),
        bad.to_str().unwrap(),
        "--spec",
        "HONEST",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("trace replayed-report  ...  FAIL"), "{text}");
    assert!(
        text.contains("after ⟨rec.reqSw, send.rptSw⟩, the implementation performs `send.rptSw`"),
        "{text}"
    );
    // The conformant control trace is not listed — only failures print.
    assert!(!text.contains("honest-control"), "{text}");
    assert!(
        text.contains("FAIL: 4 trace(s), 1 conformant, 3 refuted, 0 unknown-event"),
        "{text}"
    );
}

#[test]
fn spec_name_comes_from_the_fault_plan_when_not_given() {
    let ota = example("faults/traces/ota_sessions.jsonl");
    let plan = example("faults/baseline.toml");
    let out = run(&[
        "conform",
        &model(),
        ota.to_str().unwrap(),
        "--faults",
        plan.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("conformance HONEST [T= corpus"),
        "plan's [conformance] spec must be used"
    );
}

#[test]
fn missing_spec_and_missing_corpus_are_usage_errors() {
    let out = run(&["conform", &model(), "--stdin"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--spec"),
        "must ask for a spec source"
    );

    let out = run(&["conform", &model(), "--spec", "HONEST"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("needs a corpus"),
        "must ask for a corpus source"
    );
}

// ---------------------------------------------------------------------------
// Corpus hygiene: SIM310 / SIM311 / SIM312
// ---------------------------------------------------------------------------

#[test]
fn corpus_hygiene_findings_carry_codes_and_spans() {
    let dir = scratch("hygiene");
    let corpus = dir.join("corpus.jsonl");
    fs::write(
        &corpus,
        "[\"rec.reqSw\"]\nnot json\n[\"rec.reqSw\",\"ghost.evt\"]\n",
    )
    .unwrap();
    let out = run(&[
        "conform",
        &model(),
        corpus.to_str().unwrap(),
        "--spec",
        "HONEST",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "unknown event is nonconformance"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("warning[SIM310]"), "{err}");
    assert!(err.contains(":2:1"), "SIM310 span points at line 2: {err}");
    assert!(err.contains("warning[SIM311]"), "{err}");
    assert!(err.contains("`ghost.evt`"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_line_nested_30000_deep_is_skipped_not_a_stack_overflow() {
    let dir = scratch("deep");
    let corpus = dir.join("deep.jsonl");
    fs::write(
        &corpus,
        format!(
            "{{\"id\":\"honest\",\"events\":[\"rec.reqSw\",\"send.rptSw\"]}}\n{}\n\
             {{\"id\":\"unsolicited\",\"events\":[\"send.rptSw\"]}}\n",
            "[".repeat(30_000)
        ),
    )
    .unwrap();
    let out = run(&[
        "conform",
        &model(),
        corpus.to_str().unwrap(),
        "--spec",
        "HONEST",
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("warning[SIM310]"), "{err}");
    assert!(err.contains("nesting deeper than 128 levels"), "{err}");
    assert!(err.contains(":2:129"), "SIM310 points at the 129th `[`");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("trace unsolicited  ...  FAIL"), "{text}");
    assert!(
        text.contains("FAIL: 2 trace(s), 1 conformant, 1 refuted, 0 unknown-event"),
        "{text}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_corpus_warns_sim312_and_deny_warnings_fails_it() {
    let dir = scratch("empty");
    let corpus = dir.join("empty.jsonl");
    fs::write(&corpus, "\n").unwrap();

    let out = run(&[
        "conform",
        &model(),
        corpus.to_str().unwrap(),
        "--spec",
        "HONEST",
    ]);
    assert!(out.status.success(), "vacuously conformant");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("warning[SIM312]"),
        "empty corpus must warn"
    );

    let out = run(&[
        "conform",
        &model(),
        corpus.to_str().unwrap(),
        "--spec",
        "HONEST",
        "--deny-warnings",
    ]);
    assert_eq!(out.status.code(), Some(1), "denied under --deny-warnings");
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Sources: --traces-dir and --stdin
// ---------------------------------------------------------------------------

#[test]
fn traces_dir_ingests_every_jsonl_sorted_and_stdin_appends() {
    let mut child = autocsp()
        .args([
            "conform",
            &model(),
            "--spec",
            "HONEST",
            "--traces-dir",
            &traces_dir(),
            "--stdin",
            "--format",
            "json",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("autocsp spawns");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"id\":\"from-stdin\",\"events\":[\"rec.reqSw\"]}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let json = String::from_utf8_lossy(&out.stdout);
    // ota_sessions.jsonl sorts before replayed_sessions.jsonl; stdin is last.
    let honest = json.find("honest-session").expect("dir corpus ingested");
    let replayed = json.find("replayed-report").expect("second file ingested");
    let stdin_at = json.find("from-stdin").expect("stdin corpus ingested");
    assert!(honest < replayed && replayed < stdin_at, "{json}");
    assert!(json.contains("\"traces\":11"), "{json}");
}

// ---------------------------------------------------------------------------
// Determinism: JSON verdicts are thread-count- and repeat-invariant
// ---------------------------------------------------------------------------

/// SplitMix64: a seeded generator for test corpora.
struct SplitMix(u64);

impl SplitMix {
    /// A uniform draw from `0..bound`.
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % bound as u64) as usize
    }
}

/// Write 5,000 seeded traces to `path`, each a prefix of the HONEST update
/// dialogue (prefix-closed, so conformant). About 15% have one event
/// replaced by a dialogue event, and about 5% carry an event the model
/// does not declare, so every verdict class is on the diffed path.
fn generated_corpus(path: &std::path::Path) {
    const SPINE: [&str; 4] = ["rec.reqSw", "send.rptSw", "rec.reqApp", "send.rptUpd"];
    let mut rng = SplitMix(1373);
    let mut lines = String::new();
    for i in 0..5_000 {
        let mut trace: Vec<&str> = SPINE[..rng.below(SPINE.len() + 1)].to_vec();
        let roll = rng.below(100);
        if roll < 15 && !trace.is_empty() {
            let at = rng.below(trace.len());
            trace[at] = SPINE[rng.below(SPINE.len())];
        } else if roll < 20 {
            trace.insert(rng.below(trace.len() + 1), "ghost.evt");
        }
        let events: Vec<String> = trace.iter().map(|e| format!("\"{e}\"")).collect();
        lines += &format!(
            "{{\"id\": \"gen-{i}\", \"events\": [{}]}}\n",
            events.join(", ")
        );
    }
    fs::write(path, lines).expect("corpus written");
}

#[test]
fn json_verdicts_are_byte_identical_at_1_and_8_threads() {
    let corpus = scratch("determinism").join("corpus.jsonl");
    generated_corpus(&corpus);
    let base: Vec<String> = vec![
        "conform".into(),
        model(),
        corpus.to_str().unwrap().to_owned(),
        "--spec".into(),
        "HONEST".into(),
        "--traces-dir".into(),
        traces_dir(),
        "--format".into(),
        "json".into(),
    ];
    let mut outputs = Vec::new();
    for threads in ["1", "8"] {
        for _ in 0..2 {
            let out = autocsp()
                .args(&base)
                .args(["--threads", threads])
                .output()
                .expect("autocsp runs");
            assert_eq!(out.status.code(), Some(1), "corpus contains violations");
            outputs.push(out.stdout);
        }
    }
    for other in &outputs[1..] {
        assert_eq!(
            String::from_utf8_lossy(&outputs[0]),
            String::from_utf8_lossy(other),
            "JSON verdicts must not depend on thread count or repetition"
        );
    }
}

// ---------------------------------------------------------------------------
// Stats surface
// ---------------------------------------------------------------------------

#[test]
fn stats_report_dedup_ratio_and_throughput() {
    let dir = scratch("stats");
    let stats_path = dir.join("stats.json");
    let ota = example("faults/traces/ota_sessions.jsonl");
    let out = run(&[
        "conform",
        &model(),
        ota.to_str().unwrap(),
        "--spec",
        "HONEST",
        "--stats",
        "--stats-json",
        stats_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sharing"), "human stats show dedup: {err}");
    let json = fs::read_to_string(&stats_path).unwrap();
    for key in [
        "\"traces\":6",
        "\"dedup_ratio\":",
        "\"trie_nodes\":",
        "\"traces_per_sec\":",
        "\"ingest_us\":",
        "\"check_us\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // The six sessions share the ⟨reqSw, rptSw, reqApp, rptUpd⟩ spine, so
    // the corpus must dedup strictly.
    let ratio: f64 = json
        .split("\"dedup_ratio\":")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.parse().ok())
        .expect("dedup_ratio parses");
    assert!(ratio > 1.5, "expected heavy prefix sharing, got {ratio}");
    let _ = fs::remove_dir_all(&dir);
}
