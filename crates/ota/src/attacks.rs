//! Attack scenarios: the Fig. 2 system with a Dolev-Yao intruder interposed
//! on the update path (VMG → ECU direction).
//!
//! The honest system shares `rec.*` events directly. To give the intruder a
//! real man-in-the-middle position, the ECU's receive events are renamed to
//! a fresh `dlv` channel and a [`secmod::Intruder`] bridges `rec` → `dlv`.
//! Each scenario then asks a Table III requirement on the attacked system;
//! all of them fail, each with the counterexample naming the attack step.

use csp::{EventId, EventSet, Process, RenameMap};
use fdrlite::RefinementModel;
use secmod::{AttackTree, Intruder};

use crate::requirements::Requirement;
use crate::system::{BuildError, OtaSystem};

/// Which intruder capability a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Messages may be silently dropped (denial of service).
    Drop,
    /// Overheard messages may be delivered again (replay).
    Replay,
    /// Known messages may be injected without the VMG sending them.
    Forge,
}

/// An attacked system plus the requirement it violates.
#[derive(Debug, Clone)]
pub struct AttackScenario {
    /// Which capability the scenario needs.
    pub kind: AttackKind,
    /// Human-readable description.
    pub description: &'static str,
    /// The requirement checked (its `scoped_system` is the attacked one).
    pub requirement: Requirement,
}

/// The attacked system: VMG ∥ intruder ∥ ECU[rec→dlv].
///
/// `initial_knowledge` seeds the intruder (for forgery); `lossy` lets it
/// commit to dropping (for DoS analysis in the failures model).
///
/// # Errors
///
/// [`BuildError::Missing`] if expected events are absent from the model.
pub fn interpose_intruder(
    study: &mut OtaSystem,
    initial_knowledge: &[&str],
    lossy: bool,
) -> Result<Process, BuildError> {
    let req_sw = event(study, "rec.reqSw")?;
    let req_app = event(study, "rec.reqApp")?;
    let rpt_sw = event(study, "send.rptSw")?;
    let rpt_upd = event(study, "send.rptUpd")?;
    let vmg = study.vmg().clone();
    let ecu = study.ecu().clone();
    let (alphabet, defs) = study.parts_mut();

    let mut builder = Intruder::builder("EVE")
        .messages(["reqSw", "reqApp"])
        .tap("rec", "dlv")
        .lossy(lossy);
    for k in initial_knowledge {
        builder = builder.knows(k);
    }
    let intruder = builder.build(alphabet, defs);

    // The ECU now listens on the intruder-controlled dlv channel.
    let dlv_req_sw = alphabet.lookup("dlv.reqSw").expect("interned by builder");
    let dlv_req_app = alphabet.lookup("dlv.reqApp").expect("interned by builder");
    let mut rename = RenameMap::new();
    rename.insert(req_sw, dlv_req_sw);
    rename.insert(req_app, dlv_req_app);
    let ecu_tapped = Process::rename(ecu, rename);

    let heard: EventSet = [req_sw, req_app].into_iter().collect();
    let delivered_and_responses: EventSet = [dlv_req_sw, dlv_req_app, rpt_sw, rpt_upd]
        .into_iter()
        .collect();
    let vmg_and_eve = Process::parallel(heard, vmg, intruder.process().clone());
    Ok(Process::parallel(
        delivered_and_responses,
        vmg_and_eve,
        ecu_tapped,
    ))
}

fn event(study: &OtaSystem, name: &str) -> Result<EventId, BuildError> {
    study
        .event(name)
        .ok_or_else(|| BuildError::Missing(format!("event `{name}`")))
}

/// All attack scenarios against the Fig. 2 system.
///
/// # Errors
///
/// [`BuildError::Missing`] if expected events are absent from the model.
pub fn scenarios(study: &mut OtaSystem) -> Result<Vec<AttackScenario>, BuildError> {
    let req_sw = event(study, "rec.reqSw")?;
    let rpt_sw = event(study, "send.rptSw")?;
    let req_app = event(study, "rec.reqApp")?;
    let rpt_upd = event(study, "send.rptUpd")?;

    let mut out = Vec::new();

    // Forge: the intruder knows reqApp a priori (e.g. captured on another
    // vehicle — X.1373 messages are fleet-wide) and injects it. R03's
    // precedence (no update application without a request) breaks.
    {
        let attacked = interpose_intruder(study, &["reqApp"], false)?;
        let universe: EventSet = {
            let dlv_req_sw = event(study, "dlv.reqSw")?;
            let dlv_req_app = event(study, "dlv.reqApp")?;
            [req_sw, rpt_sw, req_app, rpt_upd, dlv_req_sw, dlv_req_app]
                .into_iter()
                .collect()
        };
        let (_, defs) = study.parts_mut();
        let spec = fdrlite::properties::precedes(
            defs,
            "R03_ATTACKED",
            &universe,
            &EventSet::singleton(req_app),
            &EventSet::singleton(rpt_upd),
        );
        out.push(AttackScenario {
            kind: AttackKind::Forge,
            description: "forged apply-update: the ECU applies an update the VMG never requested",
            requirement: Requirement {
                id: "R03",
                text: "Update applied only on receipt of an apply update message from the VMG.",
                spec,
                scoped_system: attacked,
                model: RefinementModel::Traces,
            },
        });
    }

    // Replay: one genuine reqApp is delivered twice; the ECU applies the
    // update twice, violating R04's one-report-per-request shape.
    {
        let attacked = interpose_intruder(study, &[], false)?;
        let dlv_req_sw = event(study, "dlv.reqSw")?;
        let dlv_req_app = event(study, "dlv.reqApp")?;
        let noise: EventSet = [req_sw, rpt_sw, dlv_req_sw, dlv_req_app]
            .into_iter()
            .collect();
        let (_, defs) = study.parts_mut();
        let spec = fdrlite::properties::request_response_with_noise(
            defs,
            "R04_ATTACKED",
            req_app,
            rpt_upd,
            &noise,
        );
        out.push(AttackScenario {
            kind: AttackKind::Replay,
            description: "replayed apply-update: one request, two update applications",
            requirement: Requirement {
                id: "R04",
                text: "Exactly one update result per apply request.",
                spec,
                scoped_system: attacked,
                model: RefinementModel::Traces,
            },
        });
    }

    // Drop: the lossy intruder discards the inventory request; the exchange
    // never completes. Observable as a refusal (the response can be refused
    // forever) in the stable-failures model, with dlv hidden as internal.
    {
        let attacked = interpose_intruder(study, &[], true)?;
        let dlv_req_sw = event(study, "dlv.reqSw")?;
        let dlv_req_app = event(study, "dlv.reqApp")?;
        let hidden: EventSet = [dlv_req_sw, dlv_req_app].into_iter().collect();
        let visible_noise: EventSet = [req_app, rpt_upd].into_iter().collect();
        let (_, defs) = study.parts_mut();
        let spec = fdrlite::properties::request_response_with_noise(
            defs,
            "R02_ATTACKED",
            req_sw,
            rpt_sw,
            &visible_noise,
        );
        out.push(AttackScenario {
            kind: AttackKind::Drop,
            description: "dropped inventory request: the response may be refused forever (DoS)",
            requirement: Requirement {
                id: "R02",
                text: "Every inventory request must be answerable by a response.",
                spec,
                scoped_system: Process::hide(attacked, hidden),
                model: RefinementModel::Failures,
            },
        });
    }

    Ok(out)
}

/// The §IV-E artefact for this case study: the attack tree for forcing an
/// unauthorised update onto the ECU. Leaves name the intruder steps as
/// model events, so the tree composes directly with the attacked system.
pub fn forced_update_tree() -> AttackTree {
    AttackTree::Seq(vec![
        // Gain the position and material (in either order):
        AttackTree::Par(vec![
            AttackTree::leaf("rec.reqSw"),  // observe a session starting
            AttackTree::leaf("rec.reqApp"), // capture an apply-update
        ]),
        // the genuine update flows once,
        AttackTree::leaf("dlv.reqApp"),
        AttackTree::leaf("send.rptUpd"),
        // and the captured request is replayed for a second application.
        AttackTree::leaf("dlv.reqApp"),
        AttackTree::leaf("send.rptUpd"),
    ])
}

/// Ask whether `tree` can run to completion inside `system`: composes the
/// tree's monitor over its action events and checks reachability of the
/// success marker. Returns the witness trace if the attack is possible.
///
/// # Errors
///
/// [`BuildError::Missing`] if a leaf names an event absent from the model,
/// or checker state-space errors (as `Missing` with the message).
pub fn attack_feasible(
    study: &mut OtaSystem,
    system: &Process,
    tree: &AttackTree,
) -> Result<Option<String>, BuildError> {
    let system = system.clone();
    let (alphabet, defs) = study.parts_mut();
    let monitor = tree.to_monitor(alphabet, defs, "attack_success");
    let success = alphabet
        .lookup("attack_success")
        .expect("interned by to_monitor");
    let actions: EventSet = tree
        .actions()
        .iter()
        .map(|a| {
            alphabet
                .lookup(a)
                .ok_or_else(|| BuildError::Missing(format!("attack action `{a}`")))
        })
        .collect::<Result<_, _>>()?;
    let composed = Process::parallel(actions, system, monitor);
    let universe = alphabet.universe();
    let spec =
        fdrlite::properties::never(defs, "NO_ATTACK", &universe, &EventSet::singleton(success));
    let verdict = fdrlite::Checker::new()
        .trace_refinement(&spec, &composed, study.definitions())
        .map_err(|e| BuildError::Missing(e.to_string()))?;
    Ok(verdict
        .counterexample()
        .map(|c| c.display(study.alphabet()).to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdrlite::{Checker, Verdict};

    fn run(req: &Requirement, study: &OtaSystem) -> Verdict {
        let c = Checker::new();
        match req.model {
            RefinementModel::Traces => c
                .trace_refinement(&req.spec, &req.scoped_system, study.definitions())
                .unwrap(),
            RefinementModel::Failures => c
                .failures_refinement(&req.spec, &req.scoped_system, study.definitions())
                .unwrap(),
            RefinementModel::FailuresDivergences => c
                .failures_divergences_refinement(&req.spec, &req.scoped_system, study.definitions())
                .unwrap(),
        }
    }

    #[test]
    fn every_attack_scenario_finds_its_violation() {
        let mut study = OtaSystem::build().unwrap();
        let scenarios = scenarios(&mut study).unwrap();
        assert_eq!(scenarios.len(), 3);
        for sc in &scenarios {
            let verdict = run(&sc.requirement, &study);
            assert!(
                !verdict.is_pass(),
                "{:?} should violate {}",
                sc.kind,
                sc.requirement.id
            );
        }
    }

    #[test]
    fn forge_counterexample_shows_update_without_request() {
        let mut study = OtaSystem::build().unwrap();
        let scenarios = scenarios(&mut study).unwrap();
        let forge = scenarios
            .iter()
            .find(|s| s.kind == AttackKind::Forge)
            .unwrap();
        let verdict = run(&forge.requirement, &study);
        let cex = verdict.counterexample().unwrap();
        let shown = cex.display(study.alphabet()).to_string();
        assert!(shown.contains("send.rptUpd"), "{shown}");
        // The genuine request never appears in the witness trace.
        assert!(!shown.contains("rec.reqApp,"), "{shown}");
    }

    #[test]
    fn without_intruder_no_scenario_spec_is_violated() {
        // Sanity: the same specs hold on the honest system (scoped the same
        // way, minus the intruder machinery).
        let mut study = OtaSystem::build().unwrap();
        let reqs = crate::requirements::all(&mut study).unwrap();
        let c = Checker::new();
        for r in reqs {
            assert!(c
                .trace_refinement(&r.spec, &r.scoped_system, study.definitions())
                .unwrap()
                .is_pass());
        }
    }

    #[test]
    fn forced_update_attack_tree_completes_against_the_intruded_system() {
        let mut study = OtaSystem::build().unwrap();
        let attacked = interpose_intruder(&mut study, &[], false).unwrap();
        let tree = forced_update_tree();
        let witness = attack_feasible(&mut study, &attacked, &tree).unwrap();
        let witness = witness.expect("the replay-capable intruder realises the tree");
        assert!(witness.contains("dlv.reqApp"), "{witness}");
        assert!(witness.contains("attack_success"), "{witness}");
    }

    #[test]
    fn forced_update_attack_tree_fails_against_the_honest_system() {
        // Without the intruder there is no dlv channel at all: the tree's
        // injection step cannot occur.
        let mut study = OtaSystem::build().unwrap();
        // Intern dlv events so the tree's actions resolve, but compose with
        // the honest system, which never performs them.
        let _ = interpose_intruder(&mut study, &[], false).unwrap();
        let honest = study.system().clone();
        let tree = forced_update_tree();
        let witness = attack_feasible(&mut study, &honest, &tree).unwrap();
        assert!(witness.is_none(), "{witness:?}");
    }

    #[test]
    fn interposed_system_still_allows_the_honest_run() {
        let mut study = OtaSystem::build().unwrap();
        let attacked = interpose_intruder(&mut study, &[], false).unwrap();
        let lts = csp::Lts::build(attacked, study.definitions(), 500_000).unwrap();
        let seq = [
            "rec.reqSw",
            "dlv.reqSw",
            "send.rptSw",
            "rec.reqApp",
            "dlv.reqApp",
            "send.rptUpd",
        ]
        .map(|n| study.event(n).unwrap());
        assert!(csp::traces::has_trace(&lts, &seq));
    }
}
