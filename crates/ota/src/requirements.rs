//! Table III: the secure-update requirements as CSP specification models.
//!
//! | ID  | Requirement |
//! |-----|-------------|
//! | R01 | At start of update process, the VMG shall send a software inventory request message to all ECUs. |
//! | R02 | On receipt of software inventory request, the ECU shall send a software list response message. |
//! | R03 | On receipt of apply update message from the VMG, the ECU shall check the package contents and apply the update. |
//! | R04 | On completion of update module installation, the ECU shall send software update result message to the VMG. |
//! | R05 | It is assumed the system uses shared keys. |
//!
//! R01–R04 are checked against the extracted Fig. 2 system; R05 is realised
//! by the MAC-secured model in [`crate::secured`].

use csp::{EventSet, Process};
use fdrlite::RefinementModel;

use crate::system::{BuildError, OtaSystem};

/// One Table III requirement, resolved into a runnable check.
#[derive(Debug, Clone)]
pub struct Requirement {
    /// Requirement identifier (`R01` … `R05`).
    pub id: &'static str,
    /// The requirement text from the paper.
    pub text: &'static str,
    /// The specification process.
    pub spec: Process,
    /// The (possibly abstracted) system the spec is checked against.
    pub scoped_system: Process,
    /// The semantic model the check runs in.
    pub model: RefinementModel,
}

/// Resolve R01–R04 against the study's system model.
///
/// (R05 lives in [`crate::secured`] because it needs the MAC-extended
/// message space.)
///
/// # Errors
///
/// [`BuildError::Missing`] if the model lacks an expected event.
pub fn all(study: &mut OtaSystem) -> Result<Vec<Requirement>, BuildError> {
    let comm = study.comm_events()?;
    let [req_sw, rpt_sw, req_app, rpt_upd] = comm[..] else {
        unreachable!("comm_events returns four events");
    };
    let universe: EventSet = comm.iter().copied().collect();
    let system = study.system().clone();
    let (_, defs) = study.parts_mut();

    let mut out = Vec::new();

    // R01: the first communication of the update process is the inventory
    // request.
    let spec01 = fdrlite::properties::precedes(
        defs,
        "R01",
        &universe,
        &EventSet::singleton(req_sw),
        &universe.difference(&EventSet::singleton(req_sw)),
    );
    out.push(Requirement {
        id: "R01",
        text: "At start of update process, the VMG shall send a software inventory request message to all ECUs.",
        spec: spec01,
        scoped_system: system.clone(),
        model: RefinementModel::Traces,
    });

    // R02: every inventory request is answered by exactly one software list
    // response before the next request; other update traffic may interleave.
    let noise02: EventSet = [req_app, rpt_upd].into_iter().collect();
    let spec02 =
        fdrlite::properties::request_response_with_noise(defs, "R02", req_sw, rpt_sw, &noise02);
    out.push(Requirement {
        id: "R02",
        text: "On receipt of software inventory request, the ECU shall send a software list response message.",
        spec: spec02,
        scoped_system: system.clone(),
        model: RefinementModel::Traces,
    });

    // R03: the update is applied (observed as the result message) only after
    // an apply-update request has been received.
    let spec03 = fdrlite::properties::precedes(
        defs,
        "R03",
        &universe,
        &EventSet::singleton(req_app),
        &EventSet::singleton(rpt_upd),
    );
    out.push(Requirement {
        id: "R03",
        text: "On receipt of apply update message from the VMG, the ECU shall check the package contents and apply the update.",
        spec: spec03,
        scoped_system: system.clone(),
        model: RefinementModel::Traces,
    });

    // R04: once applied, the result message follows — exactly one per
    // request.
    let noise04: EventSet = [req_sw, rpt_sw].into_iter().collect();
    let spec04 =
        fdrlite::properties::request_response_with_noise(defs, "R04", req_app, rpt_upd, &noise04);
    out.push(Requirement {
        id: "R04",
        text: "On completion of update module installation, the ECU shall send software update result message to the VMG.",
        spec: spec04,
        scoped_system: system,
        model: RefinementModel::Traces,
    });

    Ok(out)
}

/// The paper's literal `SP02` process (§V-B): `SP02 = rec.reqSw ->
/// send.rptSw -> SP02`, checked against the system with all other events
/// hidden — the simplest form before the noise-tolerant R02 above.
///
/// # Errors
///
/// [`BuildError::Missing`] if the model lacks an expected event.
pub fn sp02(study: &mut OtaSystem) -> Result<Requirement, BuildError> {
    let comm = study.comm_events()?;
    let [req_sw, rpt_sw, req_app, rpt_upd] = comm[..] else {
        unreachable!("comm_events returns four events");
    };
    let system = study.system().clone();
    let (_, defs) = study.parts_mut();
    let spec = fdrlite::properties::request_response(defs, "SP02", req_sw, rpt_sw);
    let hidden: EventSet = [req_app, rpt_upd].into_iter().collect();
    Ok(Requirement {
        id: "SP02",
        text: "Every software inventory request is followed by a software list response (other update traffic abstracted).",
        spec,
        scoped_system: Process::hide(system, hidden),
        model: RefinementModel::Traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdrlite::Checker;

    fn check(req: &Requirement, study: &OtaSystem) -> fdrlite::Verdict {
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
    fn all_requirements_hold_on_the_honest_system() {
        let mut study = OtaSystem::build().unwrap();
        let reqs = all(&mut study).unwrap();
        assert_eq!(reqs.len(), 4);
        for req in &reqs {
            let verdict = check(req, &study);
            assert!(
                verdict.is_pass(),
                "{} failed: {:?}",
                req.id,
                verdict
                    .counterexample()
                    .map(|c| c.display(study.alphabet()).to_string())
            );
        }
    }

    #[test]
    fn sp02_holds_on_the_honest_system() {
        let mut study = OtaSystem::build().unwrap();
        let req = sp02(&mut study).unwrap();
        assert!(check(&req, &study).is_pass());
    }

    #[test]
    fn r02_catches_the_double_reporting_ecu_at_component_level() {
        // In the composed system the VMG (not yet ready for a second
        // report) would mask the fault; the paper's aim is component-level
        // checking, so R02 is checked against the ECU model alone.
        let mut study =
            OtaSystem::build_with(crate::sources::VMG_CAPL, crate::sources::FAULTY_ECU_CAPL)
                .unwrap();
        let reqs = all(&mut study).unwrap();
        let r02 = reqs.iter().find(|r| r.id == "R02").unwrap();
        let verdict = Checker::new()
            .trace_refinement(&r02.spec, study.ecu(), study.definitions())
            .unwrap();
        let cex = verdict.counterexample().expect("R02 must fail on the ECU");
        let shown = cex.display(study.alphabet()).to_string();
        assert!(shown.contains("send.rptSw"), "{shown}");
    }
}
