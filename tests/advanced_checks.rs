//! Advanced checker features exercised on the case-study models:
//! failures-divergences refinement, the interrupt operator and the
//! parallel decision procedure must all agree with the baseline.

use fdrlite::Checker;
use ota::{requirements, system::OtaSystem};

#[test]
fn fd_refinement_holds_for_the_honest_system() {
    // The honest system is divergence-free, so ⊑FD coincides with ⊑F; both
    // must accept the system against the weakest failures spec over its
    // alphabet (CHAOS).
    let mut study = OtaSystem::build().unwrap();
    let comm = study.comm_set().unwrap();
    let system = study.system().clone();
    let (_, defs) = study.parts_mut();
    let chaos = fdrlite::properties::chaos(defs, "CHAOS_COMM", &comm);
    let v = Checker::new()
        .failures_divergences_refinement(&chaos, &system, study.definitions())
        .unwrap();
    assert!(v.is_pass());
}

#[test]
fn fd_refinement_rejects_a_divergent_variant() {
    // Hiding the whole exchange in a looping system diverges.
    let mut study = OtaSystem::build().unwrap();
    let comm = study.comm_set().unwrap();
    // A looping requester with the whole alphabet hidden diverges.
    let req = study.event("rec.reqSw").unwrap();
    let looping = {
        let (_, defs) = study.parts_mut();
        let d = defs.declare("LOOPY");
        defs.define(d, csp::Process::prefix(req, csp::Process::var(d)));
        csp::Process::hide(csp::Process::var(d), comm.clone())
    };
    let (_, defs) = study.parts_mut();
    let chaos = fdrlite::properties::chaos(defs, "CHAOS2", &comm);
    let v = Checker::new()
        .failures_divergences_refinement(&chaos, &looping, study.definitions())
        .unwrap();
    assert!(matches!(
        v.counterexample().unwrap().kind(),
        fdrlite::FailureKind::Divergence
    ));
}

#[test]
fn parallel_checker_agrees_on_the_case_study() {
    let mut study = OtaSystem::build().unwrap();
    let reqs = requirements::all(&mut study).unwrap();
    let checker = Checker::new();
    for req in &reqs {
        let serial = checker
            .trace_refinement(&req.spec, &req.scoped_system, study.definitions())
            .unwrap();
        let request = fdrlite::CheckRequest {
            model: fdrlite::RefinementModel::Traces,
            spec: &req.spec,
            impl_: &req.scoped_system,
            defs: study.definitions(),
            threads: 4,
            options: fdrlite::CheckOptions::UNBOUNDED,
        };
        let (parallel, _) = fdrlite::ModelStore::new()
            .check(&checker, &request)
            .unwrap();
        assert_eq!(serial, parallel, "{} differs in parallel mode", req.id);
    }
}

#[test]
fn interrupt_models_an_ecu_reset() {
    // The ECU's update cycle may be interrupted by a hard reset at any
    // point; after reset nothing more happens. The interrupted model still
    // trace-refines the reset-aware specification.
    let mut study = OtaSystem::build().unwrap();
    let ecu = study.ecu().clone();
    let comm: csp::EventSet = study.comm_events().unwrap().into_iter().collect();
    let (alphabet, defs) = study.parts_mut();
    let reset = alphabet.intern("ecu.reset");
    let interruptible =
        csp::Process::interrupt(ecu, csp::Process::prefix(reset, csp::Process::Stop));
    // Spec: any comm traffic until a reset, then silence.
    let universe = comm.union(&csp::EventSet::singleton(reset));
    let spec = {
        let run_comm = fdrlite::properties::recursive(defs, "RC", |me| {
            let mut branches: Vec<csp::Process> = comm
                .iter()
                .map(|e| csp::Process::prefix(e, me.clone()))
                .collect();
            branches.push(csp::Process::prefix(reset, csp::Process::Stop));
            csp::Process::external_choice_all(branches)
        });
        let _ = universe;
        run_comm
    };
    let v = Checker::new()
        .trace_refinement(&spec, &interruptible, study.definitions())
        .unwrap();
    assert!(
        v.is_pass(),
        "{:?}",
        v.counterexample()
            .map(|c| c.display(study.alphabet()).to_string())
    );
    // And the reset really can cut the exchange short.
    let lts = csp::Lts::build(interruptible, study.definitions(), 100_000).unwrap();
    let req = study.event("rec.reqSw").unwrap();
    assert!(csp::traces::has_trace(&lts, &[req, reset]));
}
