//! Trace conformance: is the simulated run still a behaviour of the model?
//!
//! The paper's validation argument (§IV-B) rests on the extracted CSP model
//! and the CANoe implementation having the same traces. Under fault
//! injection that correspondence is exactly what an attacker perturbs, so
//! this module closes the loop mechanically:
//!
//! 1. [`lift_trace`] maps the simulation trace to CSP event names using the
//!    plan's `[[map]]` rules (first match wins, unmatched entries drop);
//! 2. the lifted trace becomes the linear process `⟨e₁, e₂, …⟩ → STOP`;
//! 3. [`fdrlite`] checks `SPEC ⊑T ⟨trace⟩`.
//!
//! A conformant run is a trace of the model. A lifted event the model's
//! alphabet does not even name is reported as
//! [`ConformanceVerdict::UnknownEvent`] without running the checker — the
//! run performed something the model cannot express, which is the strongest
//! possible nonconformance.

use canoe_sim::{TraceEntry, TraceEvent};
use csp::Process;
use cspm::LoadedScript;
use fdrlite::{
    CheckError, CheckOptions, CheckRequest, Checker, Counterexample, ModelStore, RefinementModel,
    Verdict,
};
use std::fmt;

use crate::plan::{MapOn, MapRule};

/// The result of a conformance check.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// The specification process checked against.
    pub spec: String,
    /// The lifted CSP trace (event names, in order).
    pub events: Vec<String>,
    /// The verdict.
    pub verdict: ConformanceVerdict,
}

/// How a conformance check came out.
#[derive(Debug, Clone, PartialEq)]
pub enum ConformanceVerdict {
    /// The lifted trace is a trace of the specification.
    Conformant,
    /// The lifted trace contains an event the model does not name at all.
    UnknownEvent {
        /// The offending event name.
        event: String,
        /// Its position in the lifted trace.
        index: usize,
    },
    /// The specification refuses the lifted trace; the counterexample is
    /// the refused prefix.
    Refuted(Box<Counterexample>),
    /// The refinement check exhausted its resource budget.
    Inconclusive(fdrlite::Inconclusive),
}

impl ConformanceVerdict {
    /// Whether the trace conforms.
    pub fn is_conformant(&self) -> bool {
        matches!(self, ConformanceVerdict::Conformant)
    }
}

/// Errors that prevent a conformance check from running at all.
#[derive(Debug)]
pub enum ConformanceError {
    /// The named specification process is not defined in the script.
    UnknownSpec(String),
    /// The underlying refinement check failed.
    Check(CheckError),
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::UnknownSpec(name) => {
                write!(
                    f,
                    "specification process `{name}` is not defined in the model"
                )
            }
            ConformanceError::Check(e) => write!(f, "refinement check failed: {e}"),
        }
    }
}

impl std::error::Error for ConformanceError {}

impl From<CheckError> for ConformanceError {
    fn from(e: CheckError) -> Self {
        ConformanceError::Check(e)
    }
}

/// Lift a simulation trace to CSP event names using `rules` (first match
/// wins; entries no rule matches are dropped).
pub fn lift_trace(trace: &[TraceEntry], rules: &[MapRule]) -> Vec<String> {
    let mut events = Vec::new();
    for entry in trace {
        let (on, node, message) = match &entry.event {
            TraceEvent::Transmit { node, message, .. } => {
                (MapOn::Transmit, Some(node.as_str()), message.as_str())
            }
            TraceEvent::Receive { node, message, .. } => {
                (MapOn::Receive, Some(node.as_str()), message.as_str())
            }
            TraceEvent::Injected { message, .. } => (MapOn::Inject, None, message.as_str()),
            _ => continue,
        };
        for rule in rules {
            if rule.on != on {
                continue;
            }
            if let Some(want) = &rule.node {
                if node != Some(want.as_str()) {
                    continue;
                }
            }
            if let Some(want) = &rule.message {
                if want != message {
                    continue;
                }
            }
            if let Some(event) = rule.emit(message) {
                events.push(event);
            }
            break;
        }
    }
    events
}

/// Check an already-lifted event sequence (see [`lift_trace`]) against a
/// specification process, compiling through `store`.
///
/// A fault campaign checks many traces against one specification; with a
/// shared store the spec compiles and normalises once, and every further
/// trace only pays for its own (linear) trace process. Production batches
/// run through [`crate::batch::BatchRun`]; this is its sequential
/// reference.
pub fn check_lifted_with(
    loaded: &LoadedScript,
    spec_name: &str,
    events: &[String],
    checker: &Checker,
    store: &ModelStore,
) -> Result<ConformanceReport, ConformanceError> {
    let spec = loaded
        .process(spec_name)
        .ok_or_else(|| ConformanceError::UnknownSpec(spec_name.to_string()))?;

    let ids = match loaded.event_ids(events.iter().map(String::as_str)) {
        Ok(ids) => ids,
        Err((index, event)) => {
            return Ok(ConformanceReport {
                spec: spec_name.to_string(),
                events: events.to_vec(),
                verdict: ConformanceVerdict::UnknownEvent {
                    event: event.to_string(),
                    index,
                },
            });
        }
    };

    let trace_process = Process::prefix_chain(ids, Process::Stop);
    let request = CheckRequest {
        model: RefinementModel::Traces,
        spec,
        impl_: &trace_process,
        defs: loaded.definitions(),
        threads: 1,
        options: CheckOptions::UNBOUNDED,
    };
    let (verdict, _) = store.check(checker, &request)?;
    Ok(ConformanceReport {
        spec: spec_name.to_string(),
        events: events.to_vec(),
        verdict: match verdict {
            Verdict::Pass => ConformanceVerdict::Conformant,
            Verdict::Fail(cex) => ConformanceVerdict::Refuted(Box::new(cex)),
            Verdict::Inconclusive(inc) => ConformanceVerdict::Inconclusive(inc),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    fn entry(event: TraceEvent) -> TraceEntry {
        TraceEntry { time_us: 0, event }
    }

    fn rules() -> Vec<MapRule> {
        let plan = FaultPlan::parse(
            "[plan]\nname = \"t\"\n[conformance]\nspec = \"SPEC\"\n\
             [[map]]\non = \"receive\"\nnode = \"ECU\"\nevent_prefix = \"rec\"\n\
             [[map]]\non = \"transmit\"\nnode = \"ECU\"\nevent_prefix = \"send\"\n",
        )
        .unwrap();
        plan.conformance.unwrap().rules
    }

    #[test]
    fn lift_applies_first_matching_rule_and_drops_the_rest() {
        let trace = vec![
            entry(TraceEvent::Transmit {
                node: "VMG".into(),
                message: "reqSw".into(),
                id: 256,
                payload: [0; 8],
            }),
            entry(TraceEvent::Receive {
                node: "ECU".into(),
                message: "reqSw".into(),
                id: 256,
                payload: [0; 8],
            }),
            entry(TraceEvent::Transmit {
                node: "ECU".into(),
                message: "rptSw".into(),
                id: 512,
                payload: [0; 8],
            }),
            entry(TraceEvent::Log {
                node: "ECU".into(),
                text: "noise".into(),
            }),
        ];
        assert_eq!(lift_trace(&trace, &rules()), ["rec.reqSw", "send.rptSw"]);
    }

    fn loaded(script: &str) -> LoadedScript {
        cspm::Script::parse(script).unwrap().load().unwrap()
    }

    /// `events` checked against `spec` with a fresh store.
    fn check(
        loaded: &LoadedScript,
        spec: &str,
        events: &[String],
    ) -> Result<ConformanceReport, ConformanceError> {
        check_lifted_with(loaded, spec, events, &Checker::new(), &ModelStore::new())
    }

    const MODEL: &str = "
datatype M = req | rpt
channel rec, send : M
SPEC = rec.req -> send.rpt -> SPEC
";

    #[test]
    fn conformant_trace_passes() {
        let loaded = loaded(MODEL);
        let events = vec!["rec.req".to_string(), "send.rpt".to_string()];
        let report = check(&loaded, "SPEC", &events).unwrap();
        assert!(report.verdict.is_conformant(), "{report:?}");
    }

    #[test]
    fn nonconformant_trace_is_refuted_with_counterexample() {
        let loaded = loaded(MODEL);
        let events = vec![
            "rec.req".to_string(),
            "send.rpt".to_string(),
            "send.rpt".to_string(),
        ];
        let report = check(&loaded, "SPEC", &events).unwrap();
        match report.verdict {
            ConformanceVerdict::Refuted(cex) => {
                assert_eq!(cex.trace().len(), 2, "violation after the refused prefix");
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn unknown_event_short_circuits() {
        let loaded = loaded(MODEL);
        let events = vec!["rec.req".to_string(), "mystery.7".to_string()];
        let report = check(&loaded, "SPEC", &events).unwrap();
        assert_eq!(
            report.verdict,
            ConformanceVerdict::UnknownEvent {
                event: "mystery.7".to_string(),
                index: 1
            }
        );
    }

    #[test]
    fn shared_store_reuses_the_spec_across_traces() {
        let loaded = loaded(MODEL);
        let checker = Checker::new();
        let store = ModelStore::new();
        let traces: [&[&str]; 3] = [
            &["rec.req"],
            &["rec.req", "send.rpt"],
            &["rec.req", "send.rpt", "send.rpt"],
        ];
        let mut verdicts = Vec::new();
        for events in traces {
            let events: Vec<String> = events.iter().map(ToString::to_string).collect();
            let fresh = check(&loaded, "SPEC", &events).unwrap();
            let shared = check_lifted_with(&loaded, "SPEC", &events, &checker, &store).unwrap();
            assert_eq!(fresh.verdict, shared.verdict);
            verdicts.push(shared.verdict);
        }
        assert!(verdicts[0].is_conformant() && verdicts[1].is_conformant());
        assert!(!verdicts[2].is_conformant());
        // The spec compiled and normalised once; the two later traces hit
        // its cached normal form.
        assert_eq!(store.hits(), 2, "misses {}", store.misses());
    }

    #[test]
    fn unknown_spec_is_an_error() {
        let loaded = loaded(MODEL);
        let err = check(&loaded, "NOPE", &[]).unwrap_err();
        assert!(matches!(err, ConformanceError::UnknownSpec(_)));
    }
}
