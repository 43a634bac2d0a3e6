//! End-to-end tests of the `autocsp` command-line interface.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn autocsp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autocsp"))
}

/// The CAPL/`.dbc` fixtures in a directory of the test's own: tests run
/// in parallel, and a shared directory would let one test rewrite a file
/// while another test's `autocsp` child reads it.
fn fixture_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autocsp-cli-{}-{test}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    fs::write(
        dir.join("ecu.can"),
        "variables { message reqSw a; message rptSw b; }\non message reqSw { output(b); }\n",
    )
    .unwrap();
    fs::write(
        dir.join("vmg.can"),
        "variables { message reqSw req; }\non start { output(req); }\non message rptSw { write(\"done\"); }\n",
    )
    .unwrap();
    fs::write(
        dir.join("net.dbc"),
        "BU_: VMG ECU\nBO_ 256 reqSw: 8 VMG\n SG_ x : 0|8@1+ (1,0) [0|255] \"\" ECU\nBO_ 512 rptSw: 8 ECU\n SG_ x : 0|8@1+ (1,0) [0|255] \"\" VMG\n",
    )
    .unwrap();
    dir
}

#[test]
fn translate_prints_the_model() {
    let dir = fixture_dir("translate");
    let out = autocsp()
        .args(["translate", dir.join("ecu.can").to_str().unwrap()])
        .arg("--dbc")
        .arg(dir.join("net.dbc"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("ECU = rec.reqSw -> send.rptSw -> ECU"),
        "{stdout}"
    );
}

#[test]
fn compose_then_check_passes() {
    let dir = fixture_dir("compose");
    let model = dir.join("system.csp");
    let out = autocsp()
        .args(["compose"])
        .arg(dir.join("vmg.can"))
        .arg(dir.join("ecu.can"))
        .arg("--dbc")
        .arg(dir.join("net.dbc"))
        .arg("-o")
        .arg(&model)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut script = fs::read_to_string(&model).unwrap();
    script.push_str("\nassert SYSTEM :[divergence free]\n");
    fs::write(&model, script).unwrap();

    let out = autocsp()
        .args(["check", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));
}

#[test]
fn check_fails_with_nonzero_exit_on_violation() {
    let dir = fixture_dir("check");
    let model = dir.join("bad.csp");
    fs::write(
        &model,
        "channel a, b\nSPEC = a -> SPEC\nIMPL = a -> b -> IMPL\nassert SPEC [T= IMPL\n",
    )
    .unwrap();
    let out = autocsp()
        .args(["check", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("after ⟨a⟩"), "{stdout}");
}

#[test]
fn a_script_that_fails_to_load_fails_check_and_is_one_lint_error() {
    let dir = fixture_dir("load-error");
    let model = dir.join("broken.csp");
    fs::write(
        &model,
        "channel a\nP = a -> P\nS = a -> T\nassert P [T= P\n",
    )
    .unwrap();
    let run = |args: &[&str]| autocsp().args(args).arg(&model).output().unwrap();
    for args in [&["check"][..], &["check", "--deny-warnings"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr, "error: evaluation error: unknown name `T`\n",
            "{args:?}"
        );
    }

    let out = run(&["lint"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("error[CSP200]: evaluation error: unknown name `T`\n"),
        "{stdout}"
    );
    assert!(stdout.ends_with("1 error(s), 0 warning(s)\n"), "{stdout}");
}

#[test]
fn simulate_prints_the_trace() {
    let dir = fixture_dir("simulate");
    let out = autocsp()
        .arg("simulate")
        .arg(dir.join("vmg.can"))
        .arg(dir.join("ecu.can"))
        .arg("--dbc")
        .arg(dir.join("net.dbc"))
        .args(["--for-ms", "50"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("transmit  reqSw"), "{stdout}");
    assert!(stdout.contains("transmit  rptSw"), "{stdout}");
    assert!(stdout.contains("log       done"), "{stdout}");
}

#[test]
fn unknown_subcommand_is_an_error() {
    let out = autocsp().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn help_prints_usage() {
    let out = autocsp().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}
