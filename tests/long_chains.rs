//! Long `[]` and `|~|` chains reach a verdict and lint clean. The parser
//! reads such a chain in a loop into a left-deep tree; every later layer
//! must handle that tree without one native stack frame per link. The test
//! binary runs the debug `autocsp` on the main thread's stack, where
//! elaborating a 600-link chain by recursion, and linting a 20,000-link
//! one, used to overflow.

use std::path::PathBuf;
use std::process::Command;

const LINKS: usize = 50_000;

fn autocsp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autocsp"))
}

/// `N = a -> STOP <op> a -> STOP <op> …`, `LINKS` branches, checked
/// against the one-event spec it trace-refines.
fn chain_script(op: &str) -> String {
    let branches = vec!["a -> STOP"; LINKS].join(&format!("\n  {op} "));
    format!("channel a\nSPEC = a -> STOP\nN = {branches}\nassert SPEC [T= N\n")
}

#[test]
fn long_external_and_internal_choice_chains_reach_a_verdict() {
    let dir: PathBuf = std::env::temp_dir().join(format!("autocsp-chains-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, op) in [("ext.csp", "[]"), ("int.csp", "|~|")] {
        let path = dir.join(name);
        std::fs::write(&path, chain_script(op)).unwrap();

        let out = autocsp().arg("check").arg(&path).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "check {name}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout, "assert SPEC [T= N  ...  PASS\n", "check {name}");

        let out = autocsp().arg("lint").arg(&path).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "lint {name}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout, "0 error(s), 0 warning(s)\n", "lint {name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
