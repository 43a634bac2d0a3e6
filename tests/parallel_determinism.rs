//! Determinism of multi-threaded checks at the CLI: a script checked with
//! `--threads 2` or `8` must print byte-identical output — verdicts and
//! counterexample traces — run to run and against a 1-thread run. No
//! `--stats` in the compared output: timings vary.
//!
//! Every check starts on the serial explorer and moves to the partitioned
//! engine only once its product reaches the switch size (`SERIAL_PAIRS` in
//! `crates/fdrlite/src/store.rs`, 16,384 pairs). The OTA example and the
//! `[F=`/`[FD=` script stay below it, so they cover the store path; the
//! generated rings grow past it, before or after their violation.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Exit code, stdout and stderr of `autocsp check script [--threads N]`.
fn check(script: &Path, threads: Option<usize>) -> (Option<i32>, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_autocsp"));
    cmd.arg("check").arg(script);
    if let Some(n) = threads {
        cmd.args(["--threads", &n.to_string()]);
    }
    let out = cmd.output().expect("autocsp runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_deterministic(script: &Path) {
    let first = check(script, Some(8));
    let second = check(script, Some(8));
    let serial = check(script, None);
    assert_eq!(first.0, Some(1), "8 threads, run 1: {first:?}");
    assert_eq!(second.0, Some(1), "8 threads, run 2: {second:?}");
    assert_eq!(first, second, "two 8-thread runs differ");
    assert_eq!(serial, first, "the 8-thread output differs from serial");
}

#[test]
fn ota_example_is_identical_at_8_threads_and_serial() {
    let script = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/ota_x1373.csp");
    assert_deterministic(&script);
}

#[test]
fn failures_and_fd_script_is_identical_at_8_threads_and_serial() {
    // The `[F=` assertion refuses at the root by design; the `[FD=` one
    // passes.
    let dir = std::env::temp_dir().join(format!("autocsp-determinism-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let script = dir.join("fdmodels.csp");
    fs::write(
        &script,
        "datatype T = t1 | t2\n\
         channel a, b : T\n\
         PA = a.t1 -> a.t2 -> PA\n\
         PB = b.t1 -> b.t2 -> PB\n\
         SYS = PA ||| PB\n\
         RUNSPEC = a?x -> RUNSPEC [] b?x -> RUNSPEC\n\
         assert SYS [FD= SYS\n\
         assert RUNSPEC [F= SYS\n",
    )
    .unwrap();
    assert_deterministic(&script);
    let _ = fs::remove_dir_all(&dir);
}

/// `ring_script` of `tests/crash_matrix.rs`, at 6 interleaved 3-cycles
/// against an `m`-node ring (`3^6 · m / 3` pairs when 3 divides `m`). With
/// `gap`, ring node `gap` refuses channel `a`: a trace violation at visible
/// depth `gap`, after about `243 · gap` pairs.
fn ring(m: usize, gap: Option<usize>) -> String {
    let names = ["a", "b", "c", "d", "e", "f"];
    let mut lines = vec![
        "datatype T = t1 | t2 | t3".to_owned(),
        format!("channel {} : T", names.join(", ")),
    ];
    for n in names {
        let u = n.to_ascii_uppercase();
        lines.push(format!("P{u} = {n}.t1 -> {n}.t2 -> {n}.t3 -> P{u}"));
    }
    for i in 0..m {
        let choices: Vec<String> = names
            .iter()
            .filter(|&&n| gap != Some(i) || n != "a")
            .map(|n| format!("{n}?x -> SPEC{}", (i + 1) % m))
            .collect();
        lines.push(format!("SPEC{i} = {}", choices.join(" [] ")));
    }
    let system: Vec<String> = names
        .iter()
        .map(|n| format!("P{}", n.to_ascii_uppercase()))
        .collect();
    lines.push(format!("SYS = {}", system.join(" ||| ")));
    lines.push("assert SPEC0 [T= SYS".to_owned());
    lines.join("\n") + "\n"
}

fn scratch_script(name: &str, text: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("parallel-determinism");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    fs::write(&path, text).unwrap();
    path
}

/// The 1-thread output, and `--threads 2` and `8` printing it verbatim.
fn switches_identically(name: &str, text: &str, exit: i32) {
    let script = scratch_script(name, text);
    let serial = check(&script, Some(1));
    assert_eq!(serial.0, Some(exit), "{name}: {serial:?}");
    for threads in [2, 8] {
        let run = check(&script, Some(threads));
        assert_eq!(run, serial, "{name}: {threads} threads differ from 1");
    }
}

#[test]
fn a_passing_ring_past_the_switch_is_identical_at_2_and_8_threads() {
    // 21,870 pairs.
    switches_identically("ring-pass.csp", &ring(90, None), 0);
}

#[test]
fn a_ring_failing_before_the_switch_is_identical_at_2_and_8_threads() {
    switches_identically("ring-early.csp", &ring(90, Some(5)), 1);
}

#[test]
fn a_ring_failing_past_the_switch_is_identical_at_2_and_8_threads() {
    // About 19,000 pairs lie above the violation's depth.
    switches_identically("ring-late.csp", &ring(90, Some(80)), 1);
}

#[test]
fn only_a_product_past_the_switch_leaves_the_serial_explorer() {
    for (name, m, engine) in [
        ("ring-small.csp", 9, "1 thread(s)"),
        ("ring-big.csp", 90, "2 thread(s)"),
    ] {
        let script = scratch_script(name, &ring(m, None));
        let out = Command::new(env!("CARGO_BIN_EXE_autocsp"))
            .arg("check")
            .arg(&script)
            .args(["--threads", "2", "--stats"])
            .output()
            .expect("autocsp runs");
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let stats = String::from_utf8_lossy(&out.stderr);
        assert!(stats.contains(engine), "{name}: {stats}");
    }
}
