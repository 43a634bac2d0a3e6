//! The fault-plan determinism matrix and the conformance/replay loop,
//! driven through the `autocsp` binary over the shipped `examples/faults/`
//! artefacts, from the repository root:
//!
//! * every fault plan lints clean;
//! * every plan, simulated twice at seeds 1 and 99, prints byte-identical
//!   traces (the chaos plan draws probability triggers and delay jitter
//!   from the seeded RNG, so this is not trivial);
//! * `simulate --conformance`: the baseline and the modelled replay
//!   conform to the model, the raw replay attack does not;
//! * `check --cex-json` refutes (exit 1), and `replay` reproduces the
//!   counterexample on the unprotected ECU but not on the hardened one;
//! * a check whose only non-pass is a budget cut exits 3.

use std::fs;
use std::path::Path;
use std::process::{Command, Output};

const NET_DBC: &str = "examples/faults/net.dbc";

/// `autocsp args…`, run from the repository root.
fn autocsp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autocsp"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("autocsp runs")
}

/// Every example fault plan, as a path relative to the repository root.
fn plans() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/faults");
    let mut plans: Vec<String> = fs::read_dir(dir)
        .expect("examples/faults is listable")
        .map(|entry| entry.expect("dir entry").file_name())
        .filter_map(|name| name.to_str().map(str::to_owned))
        .filter(|name| name.ends_with(".toml"))
        .map(|name| format!("examples/faults/{name}"))
        .collect();
    plans.sort();
    assert!(!plans.is_empty(), "examples/faults holds fault plans");
    plans
}

/// Simulate the VMG + ECU update network for 100 ms with `extra` flags.
fn simulate(extra: &[&str]) -> Output {
    let mut args = vec![
        "simulate",
        "examples/faults/vmg.can",
        "examples/faults/ecu.can",
        "--dbc",
        NET_DBC,
        "--for-ms",
        "100",
    ];
    args.extend_from_slice(extra);
    autocsp(&args)
}

#[test]
fn every_fault_plan_lints_clean() {
    for plan in plans() {
        let out = autocsp(&["lint", "--faults", &plan, "--dbc", NET_DBC]);
        assert!(out.status.success(), "{plan}: {out:?}");
    }
}

#[test]
fn every_plan_gives_byte_identical_traces_at_seeds_1_and_99() {
    for plan in plans() {
        for seed in ["1", "99"] {
            let runs: Vec<Output> = (0..2)
                .map(|_| simulate(&["--faults", &plan, "--seed", seed]))
                .collect();
            for run in &runs {
                assert!(run.status.success(), "{plan} seed={seed}: {run:?}");
            }
            assert_eq!(
                String::from_utf8_lossy(&runs[0].stdout),
                String::from_utf8_lossy(&runs[1].stdout),
                "{plan} seed={seed}"
            );
        }
    }
}

#[test]
fn conformance_passes_the_baseline_and_flags_the_replay_attack() {
    let conform = |plan: &str| {
        simulate(&[
            "--faults",
            plan,
            "--conformance",
            "examples/faults/ota_model.csp",
        ])
    };
    for plan in [
        "examples/faults/baseline.toml",
        "examples/faults/replay_attack_modelled.toml",
    ] {
        let out = conform(plan);
        assert!(out.status.success(), "{plan}: {out:?}");
    }
    let attack = conform("examples/faults/replay_attack.toml");
    assert!(
        !attack.status.success(),
        "the replay attack must fail conformance against HONEST: {attack:?}"
    );
}

#[test]
fn counterexample_reproduces_on_the_unprotected_ecu_only() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fault-matrix");
    fs::create_dir_all(&dir).expect("scratch dir");
    let cex = dir.join("cex.json");
    let cex = cex.to_str().expect("a UTF-8 temp path");

    let check = autocsp(&["check", "examples/faults/ota_model.csp", "--cex-json", cex]);
    assert_eq!(
        check.status.code(),
        Some(1),
        "SINGLE_UPDATE [T= ATTACKED must fail: {check:?}"
    );
    let replay = autocsp(&["replay", cex, "examples/faults/ecu.can", "--dbc", NET_DBC]);
    assert!(replay.status.success(), "{replay:?}");
    let hardened = autocsp(&[
        "replay",
        cex,
        "examples/faults/ecu_hardened.can",
        "--dbc",
        NET_DBC,
    ]);
    assert!(
        !hardened.status.success(),
        "the hardened ECU must not reproduce the replay: {hardened:?}"
    );
}

#[test]
fn an_inconclusive_only_check_exits_3() {
    let out = autocsp(&["check", "examples/ota_x1373.csp", "--max-states", "1"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
}
