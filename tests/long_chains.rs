//! Long `[]` and `|~|` chains reach a verdict and lint clean. The parser
//! reads such a chain in a loop into a left-deep tree; every later layer
//! must handle that tree without one native stack frame per link. The test
//! binary runs the debug `autocsp` on the main thread's stack, where
//! elaborating a 600-link chain by recursion, and linting a 20,000-link
//! one, used to overflow.
//!
//! Long chains of definitions are judged exactly: 10,000 aliases and a
//! countdown from 10,000 check and lint clean, 10,000 aliases of `SKIP`
//! lint clean, a real cycle is named as unguarded recursion, and a chain
//! nesting 1,280 definitions through `[]` ends in the firing rules' size
//! limit, not in recursion or an abort.

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

/// Run `autocsp <command> <script>`: its exit code, stdout and stderr.
fn run(command: &str, script: &std::path::Path) -> (Option<i32>, String, String) {
    let out = autocsp().arg(command).arg(script).output().unwrap();
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn long_definition_chains_are_judged_exactly() {
    let dir: PathBuf = std::env::temp_dir().join(format!("autocsp-defs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = |name: &str, body: String| {
        let path = dir.join(name);
        let text = format!("channel a\n{body}SPEC = a -> STOP\nassert SPEC [T= P0\n");
        std::fs::write(&path, text).unwrap();
        path
    };
    let aliases: String = (0..10_000)
        .map(|i| format!("P{i} = P{}\n", i + 1))
        .collect();
    let aliases = script("aliases.csp", aliases + "P10000 = a -> STOP\n");
    let countdown = script(
        "countdown.csp",
        "P(n) = if n == 0 then a -> STOP else P(n-1)\nP0 = P(10000)\n".to_owned(),
    );
    for path in [&aliases, &countdown] {
        let (code, stdout, stderr) = run("check", path);
        assert_eq!(code, Some(0), "check {path:?}: {stderr}");
        assert_eq!(stdout, "assert SPEC [T= P0  ...  PASS\n");
        let (code, stdout, _) = run("lint", path);
        assert_eq!(code, Some(0), "lint {path:?}");
        assert_eq!(stdout, "0 error(s), 0 warning(s)\n");
    }
    // Each alias terminates silently only once the next one does: found
    // in one walk up the chain, where rounds over the table in definition
    // order would take 10,000.
    let to_skip: String = (0..10_000)
        .map(|i| format!("P{i} = P{}\n", i + 1))
        .collect();
    let to_skip = script("to_skip.csp", to_skip + "P10000 = SKIP\n");
    let (code, stdout, _) = run("lint", &to_skip);
    assert_eq!(code, Some(0), "lint {to_skip:?}");
    assert_eq!(stdout, "0 error(s), 0 warning(s)\n");

    let cycle = script("cycle.csp", "P0 = B [] a -> STOP\nB = P0\n".to_owned());
    let (code, _, stderr) = run("check", &cycle);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.ends_with("unguarded recursion in `P0`: it unfolds into itself before any event\n")
            || stderr
                .ends_with("unguarded recursion in `B`: it unfolds into itself before any event\n"),
        "{stderr}"
    );
    let (code, stdout, _) = run("lint", &cycle);
    assert_eq!(code, Some(0));
    let findings: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("warning["))
        .collect();
    assert_eq!(
        findings,
        [
            "warning[CSP202]: process `P0` can recurse without performing an event first",
            "warning[CSP202]: process `B` can recurse without performing an event first",
        ],
        "{stdout}"
    );
    assert!(stdout.ends_with("0 error(s), 2 warning(s)\n"), "{stdout}");

    let nested: String = (0..1_279)
        .map(|i| format!("P{i} = P{} [] a -> STOP\n", i + 1))
        .collect();
    let nested = script("nested.csp", nested + "P1279 = a -> STOP\n");
    let (code, _, stderr) = run("check", &nested);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.ends_with(
            "error: check error: unfolding `P128` nests more than 128 definitions deep before an event\n"
        ),
        "{stderr}"
    );
    let (code, stdout, _) = run("lint", &nested);
    assert_eq!(code, Some(0));
    let findings: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("warning["))
        .collect();
    assert_eq!(findings.len(), 1, "{stdout}");
    assert!(findings[0].starts_with("warning[ANA300]: "), "{stdout}");
    assert!(stdout.ends_with("0 error(s), 1 warning(s)\n"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}
