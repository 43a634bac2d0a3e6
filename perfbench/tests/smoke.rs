//! The correctness gate end to end: a short run passes, and the same run
//! with one planted verdict inverted reports the mismatch and fails.

use std::process::{Command, Output};

fn run(workload: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_owned()
}

fn gate_catches_a_flipped_verdict(workload: &str) {
    let clean = run(workload, &[]);
    let line = last_line(&clean);
    assert!(
        clean.status.success(),
        "{line}\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    assert!(line.contains("\"failed\":0,"), "{line}");

    let flipped = run(workload, &["--flip-expected", "3"]);
    let line = last_line(&flipped);
    assert!(
        !flipped.status.success(),
        "a wrong verdict must fail the command: {line}"
    );
    assert!(line.starts_with("{\"correct\":false,"), "{line}");
    assert!(line.contains("\"failed\":1,"), "{line}");
}

#[test]
fn fig1_gate_catches_a_flipped_verdict() {
    gate_catches_a_flipped_verdict("fig1_capl");
}

#[test]
fn service_gate_catches_a_flipped_verdict() {
    gate_catches_a_flipped_verdict("service_mix");
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "fig1_capl", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "fig1_capl",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
