//! Golden tests for rendered lint diagnostics and end-to-end acceptance of
//! `autocsp lint` over the seeded-defect fixtures in `examples/lint/`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

use diag::json;

fn autocsp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autocsp"))
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/lint")
        .join(name)
}

// ---------------------------------------------------------------------------
// Golden rendering: the exact text a finding produces, excerpt and caret
// included, is part of the tool's contract.
// ---------------------------------------------------------------------------

#[test]
fn dead_store_renders_with_excerpt_and_caret() {
    let source = "on start {\n  int unused;\n  unused = 7;\n}\n";
    let program = capl::parse(source).unwrap();
    let diags = lint::lint_program(&program);
    let dead = diags
        .iter()
        .find(|d| d.code == lint::codes::DEAD_STORE)
        .expect("dead store reported");
    let rendered = dead.render("app.can", source);
    let expected = "\
warning[CAPL012]: value of local `unused` is never read
  --> app.can:2:3
  |
2 |   int unused;
  |   ^^^^^^
  note: remove the variable or the stores into it
";
    assert_eq!(rendered, expected);
}

/// The semantic findings `lint` and `check` print for a loadable script.
fn analyze(source: &str) -> Vec<lint::Diagnostic> {
    let script = cspm::Script::parse(source).unwrap();
    let loaded = script.load().unwrap();
    let checker = fdrlite::Checker::new();
    let store = fdrlite::ModelStore::new();
    cspm::analyze::analyze_script(script.module(), &loaded, &checker, &store, None).diagnostics
}

#[test]
fn one_sided_sync_renders_with_deadlock_note() {
    let source = "channel a, b\nP = a -> P\nQ = b -> Q\nSYS = P [| {a} |] Q\n";
    let diags = analyze(source);
    let sync = diags
        .iter()
        .find(|d| d.code == lint::codes::ANA_SYNC_ONE_SIDED)
        .expect("one-sided sync reported");
    let rendered = sync.render("model.csp", source);
    let expected = "\
warning[ANA301]: synchronised event `a` in the definition of `SYS` can only ever be performed by the left side of the parallel; the right side never offers it
  --> model.csp:4:1
  |
4 | SYS = P [| {a} |] Q
  | ^^^
  note: the inferred may-alphabets see through renaming and hiding; synchronising on this event blocks it forever
";
    assert_eq!(rendered, expected);
}

#[test]
fn cross_check_mismatch_renders_against_the_capl_source() {
    let source = "variables {\n  message bogusCmd m;\n}\non message bogusCmd { output(m); }\n";
    let dbc = "BU_: ECU\nBO_ 256 reqSw: 8 ECU\n SG_ x : 0|8@1+ (1,0) [0|255] \"\" ECU\n";
    let program = capl::parse(source).unwrap();
    let db = candb::parse(dbc).unwrap();
    let diags = lint::cross_check(&program, &db);
    let miss = diags
        .iter()
        .find(|d| d.code == lint::codes::UNKNOWN_DB_MESSAGE)
        .expect("unknown database message reported");
    assert_eq!(miss.severity, lint::Severity::Error);
    assert_eq!((miss.span.line, miss.span.col), (2, 3));
    let rendered = miss.render("app.can", source);
    assert!(rendered.contains("error[DBC101]"), "{rendered}");
    assert!(rendered.contains("message bogusCmd m;"), "{rendered}");
}

#[test]
fn seeded_defect_fixtures_have_stable_codes_and_spans() {
    let capl_src = std::fs::read_to_string(fixture("defective.can")).unwrap();
    let dbc_src = std::fs::read_to_string(fixture("net.dbc")).unwrap();
    let csp_src = std::fs::read_to_string(fixture("onesided.csp")).unwrap();

    let program = capl::parse(&capl_src).unwrap();
    let db = candb::parse(&dbc_src).unwrap();
    let mut diags = lint::lint_program(&program);
    diags.extend(lint::cross_check(&program, &db));

    let code_at = |code: lint::Code| {
        diags
            .iter()
            .find(|d| d.code == code)
            .unwrap_or_else(|| panic!("{code:?} not reported: {diags:?}"))
    };
    // Undeclared message used by output() — the acceptance finding.
    assert_eq!(code_at(lint::codes::UNDECLARED_MESSAGE).span.line, 11);
    // Cross-check mismatch points at the declaration of the bogus message.
    assert_eq!(code_at(lint::codes::UNKNOWN_DB_MESSAGE).span.line, 6);
    // Dataflow findings anchor at the declarations they concern.
    assert_eq!(code_at(lint::codes::USE_BEFORE_INIT).span.line, 12);
    assert_eq!(code_at(lint::codes::DEAD_STORE).span.line, 13);
    assert_eq!(code_at(lint::codes::TIMER_WITHOUT_HANDLER).span.line, 7);

    let csp_diags = analyze(&csp_src);
    let sided: Vec<_> = csp_diags
        .iter()
        .filter(|d| d.code == lint::codes::ANA_SYNC_ONE_SIDED)
        .collect();
    assert_eq!(sided.len(), 2, "{csp_diags:?}");
    assert!(sided.iter().all(|d| d.span.line == 9), "{sided:?}");
}

// ---------------------------------------------------------------------------
// CLI acceptance: one invocation surfaces a CAPL finding, a database
// cross-check mismatch, and a CSPm alphabet-coverage warning; exit codes and
// JSON output behave as documented.
// ---------------------------------------------------------------------------

#[test]
fn lint_cli_reports_all_three_classes_and_fails() {
    let out = autocsp()
        .arg("lint")
        .arg(fixture("defective.can"))
        .arg(fixture("onesided.csp"))
        .arg("--dbc")
        .arg(fixture("net.dbc"))
        .output()
        .unwrap();
    assert!(!out.status.success(), "defects must fail the lint run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning[CAPL008]"), "{stdout}");
    assert!(stdout.contains("error[DBC101]"), "{stdout}");
    assert!(stdout.contains("warning[ANA301]"), "{stdout}");
    assert!(stdout.contains("deadlock"), "{stdout}");

    let denied = autocsp()
        .arg("lint")
        .arg(fixture("defective.can"))
        .arg(fixture("onesided.csp"))
        .arg("--dbc")
        .arg(fixture("net.dbc"))
        .arg("--deny-warnings")
        .output()
        .unwrap();
    assert!(
        !denied.status.success(),
        "seeded defects must fail under --deny-warnings too"
    );
    assert_eq!(denied.stdout, out.stdout, "the same findings either way");
}

/// `autocsp lint` on every CSPm model under `examples/` and on the
/// `examples/lint` fixtures, run from the repository root, as a transcript:
/// each command line, its stdout and its exit code.
fn lint_transcript() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut models = Vec::new();
    let mut dirs = vec![PathBuf::from("examples")];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(root.join(&dir)).expect("examples/ is readable") {
            let rel = dir.join(entry.expect("directory entry").file_name());
            if root.join(&rel).is_dir() {
                dirs.push(rel);
            } else if rel.extension().is_some_and(|e| e == "csp") {
                models.push(rel.to_str().expect("UTF-8 path").to_owned());
            }
        }
    }
    models.sort();
    let fixtures = [
        "examples/lint/clean.can",
        "examples/lint/clean.csp",
        "examples/lint/defective.can",
        "examples/lint/onesided.csp",
        "--dbc",
        "examples/lint/net.dbc",
    ];
    let cases = models
        .iter()
        .map(|model| vec![model.as_str()])
        .chain([fixtures.to_vec()]);
    let mut transcript = String::new();
    for args in cases {
        let out = autocsp()
            .current_dir(&root)
            .arg("lint")
            .args(&args)
            .output()
            .expect("autocsp runs");
        let _ = writeln!(transcript, "$ autocsp lint {}", args.join(" "));
        transcript.push_str(&String::from_utf8_lossy(&out.stdout));
        let _ = writeln!(transcript, "{}\n", out.status);
    }
    transcript
}

fn lint_golden() -> PathBuf {
    fixture("expected.txt")
}

/// Each finding is printed once: the golden holds no finding of a retired
/// code and no second report of one defect. Rewrite it with
/// `cargo test --test lint_diagnostics -- --ignored`.
#[test]
fn lint_output_of_every_example_matches_its_golden() {
    let expected = fs::read_to_string(lint_golden()).expect("the golden is readable");
    assert_eq!(lint_transcript(), expected);
}

/// Rewrites the golden from the current linter.
#[test]
#[ignore = "rewrites the golden"]
fn bless_lint_golden() {
    fs::write(lint_golden(), lint_transcript()).expect("golden written");
}

#[test]
fn lint_cli_emits_valid_json() {
    let out = autocsp()
        .arg("lint")
        .arg(fixture("defective.can"))
        .arg(fixture("onesided.csp"))
        .arg("--dbc")
        .arg(fixture("net.dbc"))
        .args(["--format", "json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = json::parse(stdout.trim()).unwrap_or_else(|e| panic!("{e}: {stdout}"));
    let json::Value::Object(top) = value else {
        panic!("top level is not an object: {stdout}")
    };
    let keys: Vec<_> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["diagnostics", "errors", "warnings"]);
    let json::Value::Array(diags) = &top[0].1 else {
        panic!("diagnostics is not an array")
    };
    let codes: Vec<&str> = diags
        .iter()
        .filter_map(|d| match d {
            json::Value::Object(fields) => fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("code", json::Value::String(s)) => Some(s.as_str()),
                _ => None,
            }),
            _ => None,
        })
        .collect();
    assert!(codes.contains(&"CAPL008"), "{codes:?}");
    assert!(codes.contains(&"DBC101"), "{codes:?}");
    assert!(codes.contains(&"ANA301"), "{codes:?}");
}

#[test]
fn lint_cli_clean_fixtures_pass_deny_warnings() {
    let out = autocsp()
        .arg("lint")
        .arg(fixture("clean.can"))
        .arg(fixture("clean.csp"))
        .arg("--dbc")
        .arg(fixture("net.dbc"))
        .arg("--deny-warnings")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn lint_cli_deny_warnings_escalates_warnings() {
    let dir = std::env::temp_dir().join(format!("autocsp-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let warn_only = dir.join("warn.can");
    std::fs::write(&warn_only, "on start { int unused; unused = 7; }\n").unwrap();

    let out = autocsp().arg("lint").arg(&warn_only).output().unwrap();
    assert!(out.status.success(), "warnings alone must not fail");

    let out = autocsp()
        .arg("lint")
        .arg(&warn_only)
        .arg("--deny-warnings")
        .output()
        .unwrap();
    assert!(!out.status.success(), "--deny-warnings must escalate");
}

#[test]
fn lint_cli_surfaces_parse_errors_as_diagnostics() {
    let dir = std::env::temp_dir().join(format!("autocsp-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let broken = dir.join("broken.can");
    std::fs::write(&broken, "on message { ???").unwrap();
    let out = autocsp().arg("lint").arg(&broken).output().unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[CAPL000]"), "{stdout}");
}

#[test]
fn deep_cspm_nesting_is_a_positioned_parse_error_not_a_stack_overflow() {
    let dir = std::env::temp_dir().join(format!("autocsp-nesting-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Each is followed by a stray `)`; both used to overflow the parser's
    // stack before it got there. Level 129 opens at 1:133 in the nest and
    // at 2:645 in the chain.
    let scripts = [
        (
            "nest.csp",
            format!("N = {}1{}\n)\n", "(".repeat(2_000), ")".repeat(2_000)),
            "1:133",
        ),
        (
            "chain.csp",
            format!("channel a\nN = {}STOP\n)\n", "a -> ".repeat(5_000)),
            "2:645",
        ),
    ];
    for (name, text, at) in scripts {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let out = autocsp().arg("lint").arg(&path).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "lint {name}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!(
                "error[CSP200]: parse error at {at}: expression nested deeper than 128"
            )),
            "lint {name}: {stdout}"
        );
        assert!(stdout.contains(&format!("{name}:{at}")), "lint {name}");
        let out = autocsp().arg("check").arg(&path).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "check {name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("parse error at {at}: expression nested deeper")),
            "check {name}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
