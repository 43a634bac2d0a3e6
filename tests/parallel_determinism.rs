//! Determinism of the work-stealing engine at the CLI: a script checked
//! twice with `--threads 8` must exit 1 both times (each script carries an
//! intentionally failing assertion) and print byte-identical output —
//! verdicts and counterexample traces — run to run and against the serial
//! engine. No `--stats`: timings vary.

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
