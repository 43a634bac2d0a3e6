//! Table III reproduction: requirements R01–R05 as refinement checks.
//!
//! * On the honest system every requirement passes.
//! * Under each attack scenario the matching requirement fails with a
//!   counterexample trace (the Fig. 1 feedback artefact).
//! * R05 (shared keys) is exercised through the MAC-secured model: with
//!   verification the authentication assertion holds; without it the forged
//!   update is accepted.

use auto_csp::fdrlite::{Checker, RefinementModel, Verdict};
use auto_csp::ota::{attacks, requirements, secured, system::OtaSystem};

fn run(req: &requirements::Requirement, study: &OtaSystem) -> Verdict {
    let checker = Checker::new();
    match req.model {
        RefinementModel::Traces => checker
            .trace_refinement(&req.spec, &req.scoped_system, study.definitions())
            .unwrap(),
        RefinementModel::Failures => checker
            .failures_refinement(&req.spec, &req.scoped_system, study.definitions())
            .unwrap(),
        RefinementModel::FailuresDivergences => checker
            .failures_divergences_refinement(&req.spec, &req.scoped_system, study.definitions())
            .unwrap(),
    }
}

#[test]
fn r01_to_r04_pass_on_the_honest_system() {
    let mut study = OtaSystem::build().unwrap();
    let reqs = requirements::all(&mut study).unwrap();
    let ids: Vec<&str> = reqs.iter().map(|r| r.id).collect();
    assert_eq!(ids, vec!["R01", "R02", "R03", "R04"]);
    for req in &reqs {
        let verdict = run(req, &study);
        assert!(
            verdict.is_pass(),
            "{} ({}) failed: {:?}",
            req.id,
            req.text,
            verdict
                .counterexample()
                .map(|c| c.display(study.alphabet()).to_string())
        );
    }
}

#[test]
fn sp02_the_papers_literal_property_passes() {
    let mut study = OtaSystem::build().unwrap();
    let req = requirements::sp02(&mut study).unwrap();
    assert!(run(&req, &study).is_pass());
}

#[test]
fn r05_shared_keys_hold_in_the_mac_model() {
    let results = secured::check_script(secured::MAC_SCRIPT, &Checker::new()).unwrap();
    assert!(results.iter().all(|r| r.verdict.is_pass()));
    // And in the signature variant (the paper's planned extension).
    let results = secured::check_script(secured::SIGNATURE_SCRIPT, &Checker::new()).unwrap();
    assert!(results.iter().all(|r| r.verdict.is_pass()));
}

#[test]
fn r05_fails_without_verification() {
    let results = secured::check_script(secured::INSECURE_SCRIPT, &Checker::new()).unwrap();
    assert!(results.iter().any(|r| !r.verdict.is_pass()));
}

#[test]
fn every_attack_violates_its_requirement_with_a_counterexample() {
    let mut study = OtaSystem::build().unwrap();
    let scenarios = attacks::scenarios(&mut study).unwrap();
    let kinds: Vec<attacks::AttackKind> = scenarios.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        vec![
            attacks::AttackKind::Forge,
            attacks::AttackKind::Replay,
            attacks::AttackKind::Drop
        ]
    );
    for sc in &scenarios {
        let verdict = run(&sc.requirement, &study);
        let cex = verdict
            .counterexample()
            .unwrap_or_else(|| panic!("{:?} should violate {}", sc.kind, sc.requirement.id));
        // The counterexample renders with real event names — the feedback
        // loop of Fig. 1.
        let shown = cex.display(study.alphabet()).to_string();
        assert!(shown.contains("after ⟨"), "{shown}");
    }
}

#[test]
fn replay_counterexample_contains_the_duplicate_delivery() {
    let mut study = OtaSystem::build().unwrap();
    let scenarios = attacks::scenarios(&mut study).unwrap();
    let replay = scenarios
        .iter()
        .find(|s| s.kind == attacks::AttackKind::Replay)
        .unwrap();
    let verdict = run(&replay.requirement, &study);
    let shown = verdict
        .counterexample()
        .unwrap()
        .display(study.alphabet())
        .to_string();
    // The witness contains a duplicated delivery: some message was
    // delivered to the ECU more often than the VMG sent it.
    let replayed = ["reqSw", "reqApp"].iter().any(|m| {
        shown.matches(&format!("dlv.{m}")).count() > shown.matches(&format!("rec.{m}")).count()
    });
    assert!(replayed, "{shown}");
}
