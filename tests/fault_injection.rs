//! End-to-end tests for the fault-injection → conformance → replay loop
//! over the X.1373 case study, driven by the *shipped* example artefacts in
//! `examples/faults/` — the same files the README walkthrough, the docs and
//! `tests/fault_matrix.rs` use, so these tests keep all of them honest.

use auto_csp::canoe_sim::{CaplValue, Simulation, TraceEvent};
use auto_csp::faults::conformance::{check_lifted_with, lift_trace, ConformanceVerdict};
use auto_csp::faults::replay::{counterexample_to_json, replay, ReplayConfig, ReplayFile};
use auto_csp::faults::{apply_plan, FaultPlan};
use auto_csp::fdrlite::{Checker, ModelStore, Verdict};
use auto_csp::{candb, capl, cspm, ota};

const NET_DBC: &str = include_str!("../examples/faults/net.dbc");
const VMG_CAN: &str = include_str!("../examples/faults/vmg.can");
const ECU_CAN: &str = include_str!("../examples/faults/ecu.can");
const ECU_HARDENED_CAN: &str = include_str!("../examples/faults/ecu_hardened.can");
const OTA_MODEL: &str = include_str!("../examples/faults/ota_model.csp");
const BASELINE_PLAN: &str = include_str!("../examples/faults/baseline.toml");
const REPLAY_ATTACK_PLAN: &str = include_str!("../examples/faults/replay_attack.toml");
const REPLAY_MODELLED_PLAN: &str = include_str!("../examples/faults/replay_attack_modelled.toml");
const CHAOS_PLAN: &str = include_str!("../examples/faults/chaos.toml");

fn plan(src: &str) -> FaultPlan {
    FaultPlan::parse(src).expect("example plan parses")
}

/// The VMG + ECU update network with a fault plan installed; runs one
/// session (plus the attack tail) and returns the simulation.
fn run_session(plan_src: &str, seed: Option<u64>) -> Simulation {
    let db = candb::parse(NET_DBC).expect("example database parses");
    let mut sim = Simulation::new(Some(db));
    sim.add_node("VMG", capl::parse(VMG_CAN).unwrap()).unwrap();
    sim.add_node("ECU", capl::parse(ECU_CAN).unwrap()).unwrap();
    apply_plan(&mut sim, &plan(plan_src), seed).unwrap();
    sim.run_for(100_000).unwrap();
    sim
}

#[test]
fn example_database_matches_the_embedded_network() {
    // The standalone `.dbc` must agree with `ota::messages::NETWORK_DBC`
    // on the update-path messages, or the examples would drift from the
    // case study the rest of the repo reasons about.
    let example = candb::parse(NET_DBC).unwrap();
    let embedded = ota::messages::database();
    for name in ["reqSw", "reqApp", "rptSw", "rptUpd"] {
        let a = example.message_by_name(name).expect(name);
        let b = embedded.message_by_name(name).expect(name);
        assert_eq!(a.id, b.id, "{name}: example/embedded id mismatch");
        assert_eq!(a.dlc, b.dlc, "{name}: example/embedded dlc mismatch");
    }
}

#[test]
fn replay_attack_applies_the_update_twice() {
    let sim = run_session(BASELINE_PLAN, None);
    assert_eq!(
        sim.node_global("ECU", "updatesApplied").unwrap(),
        Some(CaplValue::Int(1)),
        "baseline: one session applies one update"
    );

    let sim = run_session(REPLAY_ATTACK_PLAN, None);
    assert_eq!(
        sim.node_global("ECU", "updatesApplied").unwrap(),
        Some(CaplValue::Int(2)),
        "replayed reqApp must be applied again by the unprotected ECU"
    );
    // The injected fault is visible and attributable in the trace.
    assert!(
        sim.trace()
            .iter()
            .any(|e| e.event.fault_name() == Some("replay-reqApp")),
        "the fault engine must tag its action in the trace"
    );
}

#[test]
fn same_plan_and_seed_give_identical_traces() {
    // The chaos plan uses every randomness source the engine has
    // (probability triggers, delay jitter); determinism must still hold.
    let a = run_session(CHAOS_PLAN, None);
    let b = run_session(CHAOS_PLAN, None);
    assert_eq!(a.trace(), b.trace(), "same plan + seed ⇒ identical trace");

    // And the seed actually matters: an override diverges.
    let c = run_session(CHAOS_PLAN, Some(99));
    assert_ne!(a.trace(), c.trace(), "different seed ⇒ different run");
    // …but is just as deterministic.
    let d = run_session(CHAOS_PLAN, Some(99));
    assert_eq!(c.trace(), d.trace());
}

#[test]
fn conformance_passes_honest_and_flags_the_attack() {
    let loaded = cspm::Script::parse(OTA_MODEL).unwrap().load().unwrap();
    let (checker, store) = (Checker::new(), ModelStore::new());

    // Baseline traffic is a trace of the honest session model.
    let sim = run_session(BASELINE_PLAN, None);
    let conf = plan(BASELINE_PLAN).conformance.unwrap();
    let events = lift_trace(sim.trace(), &conf.rules);
    let report = check_lifted_with(&loaded, &conf.spec, &events, &checker, &store).unwrap();
    assert!(
        report.verdict.is_conformant(),
        "baseline must conform to HONEST: {:?}",
        report.verdict
    );
    assert_eq!(
        report.events,
        ["rec.reqSw", "send.rptSw", "rec.reqApp", "send.rptUpd"],
        "lifted honest session"
    );

    // The replay attack is refuted by the honest model…
    let sim = run_session(REPLAY_ATTACK_PLAN, None);
    let conf = plan(REPLAY_ATTACK_PLAN).conformance.unwrap();
    let events = lift_trace(sim.trace(), &conf.rules);
    let report = check_lifted_with(&loaded, &conf.spec, &events, &checker, &store).unwrap();
    assert!(
        matches!(report.verdict, ConformanceVerdict::Refuted(_)),
        "HONEST must refute the replayed session: {:?}",
        report.verdict
    );

    // …and admitted by the implementation-with-attacker model.
    let conf = plan(REPLAY_MODELLED_PLAN).conformance.unwrap();
    let events = lift_trace(sim.trace(), &conf.rules);
    let report = check_lifted_with(&loaded, &conf.spec, &events, &checker, &store).unwrap();
    assert!(
        report.verdict.is_conformant(),
        "ATTACKED must admit the replayed session: {:?}",
        report.verdict
    );
}

#[test]
fn model_counterexample_replays_on_the_unprotected_ecu_only() {
    // Check the model: SINGLE_UPDATE [T= ATTACKED fails with the replay
    // trace as witness.
    let loaded = cspm::Script::parse(OTA_MODEL).unwrap().load().unwrap();
    let results = loaded.check(&Checker::new()).unwrap();
    let failed: Vec<_> = results
        .iter()
        .filter_map(|r| match &r.verdict {
            Verdict::Fail(cex) => Some((r.description.as_str(), cex)),
            _ => None,
        })
        .collect();
    let [(description, cex)] = failed.as_slice() else {
        panic!("expected exactly one failing assertion, got {failed:?}");
    };
    assert!(description.contains("ATTACKED"), "{description}");

    // Serialise the counterexample exactly as `autocsp check --cex-json`
    // does, and parse it back as `autocsp replay` would.
    let json = counterexample_to_json(description, cex, loaded.alphabet());
    let file = ReplayFile::parse(&json).unwrap();
    assert_eq!(file.kind, "trace-violation");
    assert_eq!(
        file.events,
        [
            "rec.reqSw",
            "send.rptSw",
            "rec.reqApp",
            "send.rptUpd",
            "rec.reqApp",
            "send.rptUpd"
        ]
    );

    // Replaying it against the unprotected ECU reproduces the violation on
    // the simulated bus: the second (replayed) reqApp is applied again.
    let db = candb::parse(NET_DBC).unwrap();
    let mut sim = Simulation::new(Some(db.clone()));
    sim.add_node("ECU", capl::parse(ECU_CAN).unwrap()).unwrap();
    let outcome = replay(&mut sim, &db, &file.events, &ReplayConfig::for_node("ECU")).unwrap();
    assert_eq!(outcome.injected, ["reqSw", "reqApp", "reqApp"]);
    assert_eq!(outcome.expected, ["rptSw", "rptUpd", "rptUpd"]);
    assert!(outcome.reproduced, "{outcome:?}");
    assert_eq!(
        sim.node_global("ECU", "updatesApplied").unwrap(),
        Some(CaplValue::Int(2))
    );

    // The hardened ECU (freshness guard standing in for the MAC check)
    // refuses the replay: the same counterexample does NOT reproduce.
    let mut sim = Simulation::new(Some(db.clone()));
    sim.add_node("ECU", capl::parse(ECU_HARDENED_CAN).unwrap())
        .unwrap();
    let outcome = replay(&mut sim, &db, &file.events, &ReplayConfig::for_node("ECU")).unwrap();
    assert!(!outcome.reproduced, "{outcome:?}");
    assert_eq!(outcome.observed, ["rptSw", "rptUpd"]);
    assert_eq!(
        sim.node_global("ECU", "updatesApplied").unwrap(),
        Some(CaplValue::Int(1))
    );
}

#[test]
fn hardened_ecu_stays_conformant_under_the_attack() {
    // Run the hardened ECU under the very same attack plan: the replayed
    // frame still reaches it (the wire cannot hide a delivery) but is
    // never acted on, so the update path stays safe.
    let db = candb::parse(NET_DBC).unwrap();
    let mut sim = Simulation::new(Some(db));
    sim.add_node("VMG", capl::parse(VMG_CAN).unwrap()).unwrap();
    sim.add_node("ECU", capl::parse(ECU_HARDENED_CAN).unwrap())
        .unwrap();
    apply_plan(&mut sim, &plan(REPLAY_ATTACK_PLAN), None).unwrap();
    sim.run_for(100_000).unwrap();
    assert_eq!(
        sim.node_global("ECU", "updatesApplied").unwrap(),
        Some(CaplValue::Int(1)),
        "hardened ECU must not re-apply the replayed update"
    );
    // No second rptUpd ever goes on the bus.
    let updates = sim
        .trace()
        .iter()
        .filter(|e| matches!(&e.event, TraceEvent::Transmit { message, .. } if message == "rptUpd"))
        .count();
    assert_eq!(updates, 1);

    // And the lifted trace (⟨…, rec.reqApp⟩ — the replayed frame is still
    // *delivered*, just never answered) conforms to the attacked model.
    let loaded = cspm::Script::parse(OTA_MODEL).unwrap().load().unwrap();
    let conf = plan(REPLAY_MODELLED_PLAN).conformance.unwrap();
    let events = lift_trace(sim.trace(), &conf.rules);
    let report = check_lifted_with(
        &loaded,
        &conf.spec,
        &events,
        &Checker::new(),
        &ModelStore::new(),
    )
    .unwrap();
    assert!(report.verdict.is_conformant(), "{:?}", report.verdict);
    assert_eq!(
        report.events.last().map(String::as_str),
        Some("rec.reqApp"),
        "the delivered-but-ignored replay is the trace's last event"
    );
}
