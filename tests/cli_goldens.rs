//! Byte-for-byte goldens for `autocsp check` and `autocsp conform`: the
//! stdout and exit code of each invocation below, run from the repository
//! root (the JSON reports embed the paths as given). The goldens live in
//! `examples/check/` and `examples/conform/`, beside the analyze goldens
//! in `examples/analyze/`. Regenerate one by running its command from the
//! repository root with stdout redirected to the golden file.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// `(arguments, golden file, exit code)`.
fn cases() -> Vec<(Vec<&'static str>, String, i32)> {
    let mut cases = Vec::new();
    for (model, name) in [
        ("examples/ota_x1373.csp", "ota_x1373"),
        ("examples/faults/ota_model.csp", "ota_model"),
    ] {
        let golden = |suffix: &str| format!("examples/check/{name}{suffix}");
        cases.push((vec!["check", model], golden(".txt"), 1));
        cases.push((vec!["check", model, "--format", "json"], golden(".json"), 1));
        cases.push((
            vec!["check", model, "--max-states", "1"],
            golden(".max-states-1.txt"),
            3,
        ));
    }
    let conform = vec![
        "conform",
        "examples/faults/ota_model.csp",
        "--faults",
        "examples/faults/baseline.toml",
        "--traces-dir",
        "examples/faults/traces",
    ];
    let mut json = conform.clone();
    json.extend(["--format", "json"]);
    cases.push((conform, "examples/conform/ota_model.txt".to_owned(), 1));
    cases.push((json, "examples/conform/ota_model.json".to_owned(), 1));
    cases
}

#[test]
fn check_and_conform_match_their_goldens() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for (args, golden, code) in cases() {
        let out = Command::new(env!("CARGO_BIN_EXE_autocsp"))
            .current_dir(&root)
            .args(&args)
            .output()
            .expect("autocsp runs");
        assert_eq!(
            out.status.code(),
            Some(code),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let expected = fs::read(root.join(&golden)).unwrap_or_else(|e| panic!("{golden}: {e}"));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&expected),
            "{args:?}: stdout differs from {golden}"
        );
    }
}
