//! The model store is a pure cache. Two identical `autocsp check` runs
//! must print byte-identical verdicts and counterexamples (stats go to
//! stderr, so stdout is timing-free), and the per-assertion stats JSON
//! must show later assertions served from the store. The OTA script's
//! ROGUE assertion fails by design, so both runs exit 1. Conformance
//! checking through the store (`simulate --conformance`) must print the
//! same report twice as well.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn autocsp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autocsp"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("autocsp runs")
}

/// Every `"store_hits":N` value in a stats JSON document.
fn store_hits(json: &str) -> Vec<u64> {
    json.split("\"store_hits\":")
        .skip(1)
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("store_hits is a number")
        })
        .collect()
}

#[test]
fn checking_twice_prints_identical_verdicts_and_hits_the_store() {
    let dir = std::env::temp_dir().join(format!("autocsp-cache-coherence-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let run = |n: usize| -> (Output, String) {
        let stats: PathBuf = dir.join(format!("stats{n}.json"));
        let out = autocsp(&[
            "check",
            "examples/ota_x1373.csp",
            "--stats",
            "--stats-json",
            stats.to_str().expect("a UTF-8 temp path"),
        ]);
        (
            out,
            fs::read_to_string(&stats).expect("--stats-json writes its file"),
        )
    };
    let (first, stats1) = run(1);
    let (second, stats2) = run(2);
    assert_eq!(first.status.code(), Some(1), "run 1: {first:?}");
    assert_eq!(second.status.code(), Some(1), "run 2: {second:?}");
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&second.stdout),
        "two identical checks print different verdicts"
    );
    for stats in [&stats1, &stats2] {
        assert!(
            store_hits(stats).iter().any(|&hits| hits >= 1),
            "no assertion was served from the store: {stats}"
        );
    }
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(
        stderr.lines().any(|l| l
            .split_once("model store: ")
            .is_some_and(|(_, rest)| rest.contains(" hit(s)"))),
        "no model store summary on stderr: {stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn conformance_twice_through_the_store_prints_identical_reports() {
    let sim_conf = || {
        autocsp(&[
            "simulate",
            "examples/faults/vmg.can",
            "examples/faults/ecu.can",
            "--dbc",
            "examples/faults/net.dbc",
            "--for-ms",
            "100",
            "--faults",
            "examples/faults/baseline.toml",
            "--conformance",
            "examples/faults/ota_model.csp",
        ])
    };
    let first = sim_conf();
    let second = sim_conf();
    assert!(first.status.success(), "run 1: {first:?}");
    assert!(second.status.success(), "run 2: {second:?}");
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&second.stdout),
        "two identical conformance runs print different reports"
    );
}
