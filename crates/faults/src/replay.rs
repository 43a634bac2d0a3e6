//! Counterexample replay: from an [`fdrlite`] witness back into the bus.
//!
//! A refinement counterexample is a claim about the *model*. Replay closes
//! the loop in the other direction from conformance checking: it re-drives
//! the counterexample's stimulus events through the [`canoe_sim`] simulator
//! (as injected frames) and checks that the implementation really produces
//! the forbidden responses — turning a formal witness into a concrete bus
//! recording, the paper's "failure trace fed back to designers" (Fig. 1).
//!
//! The on-disk format is a small JSON object on one line, written by
//! [`counterexample_to_json`] and read by [`ReplayFile::parse`] (which
//! also accepts it spread over several lines):
//!
//! ```json
//! {"assertion":"SP02 [T= ROGUE","kind":"trace-violation","events":["rec.reqSw","send.rptSw","send.rptSw"]}
//! ```
//!
//! `events` is the full violating sequence — the witness trace plus, for
//! trace violations, the offending event itself.

use candb::Database;
use canoe_sim::{Frame, SimError, Simulation, TraceEvent};
use csp::Alphabet;
use fdrlite::{Counterexample, FailureKind};
use std::fmt;

/// A counterexample as serialised to / parsed from JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayFile {
    /// The assertion the counterexample refutes (display text).
    pub assertion: String,
    /// The failure kind tag (`trace-violation`, `deadlock`, …).
    pub kind: String,
    /// The violating event sequence, in order.
    pub events: Vec<String>,
}

/// The machine tag for a failure kind.
fn kind_tag(kind: &FailureKind) -> &'static str {
    match kind {
        FailureKind::TraceViolation { .. } => "trace-violation",
        FailureKind::RefusalViolation { .. } => "refusal-violation",
        FailureKind::Deadlock => "deadlock",
        FailureKind::Divergence => "divergence",
        FailureKind::Nondeterminism { .. } => "nondeterminism",
    }
}

/// Serialise a counterexample for later replay, as one JSON line. The
/// `events` array is the witness trace; for trace violations the offending
/// event is appended so the array is the complete forbidden sequence.
pub fn counterexample_to_json(
    assertion: &str,
    cex: &Counterexample,
    alphabet: &Alphabet,
) -> String {
    let mut names: Vec<String> = cex
        .trace()
        .events()
        .iter()
        .filter_map(|ev| ev.event())
        .map(|id| alphabet.name(id).to_string())
        .collect();
    if let FailureKind::TraceViolation { event: Some(e) } = cex.kind() {
        names.push(alphabet.name(*e).to_string());
    }
    let mut json = diag::json::object(|w| {
        w.key("assertion").string(assertion);
        w.key("kind").string(kind_tag(cex.kind()));
        w.key("events").array(|w| {
            for name in &names {
                w.string(name);
            }
        });
    });
    json.push('\n');
    json
}

/// Errors from parsing or replaying a counterexample file.
#[derive(Debug)]
pub enum ReplayError {
    /// The JSON file does not parse or misses a required field.
    Json(String),
    /// A stimulus event names a message the database does not know.
    UnknownMessage(String),
    /// The simulation failed while replaying.
    Sim(SimError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Json(msg) => write!(f, "counterexample file: {msg}"),
            ReplayError::UnknownMessage(name) => {
                write!(f, "event message `{name}` is not in the CAN database")
            }
            ReplayError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<SimError> for ReplayError {
    fn from(e: SimError) -> Self {
        ReplayError::Sim(e)
    }
}

impl ReplayFile {
    /// Parse a counterexample JSON file.
    pub fn parse(src: &str) -> Result<ReplayFile, ReplayError> {
        let value = diag::json::parse(src).map_err(|e| ReplayError::Json(e.to_string()))?;
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| ReplayError::Json(format!("missing `{key}`")))
        };
        let string = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| ReplayError::Json(format!("`{key}` is not a string")))
        };
        let events = field("events")?
            .as_array()
            .and_then(|items| {
                items
                    .iter()
                    .map(|e| e.as_str().map(str::to_owned))
                    .collect::<Option<Vec<_>>>()
            })
            .ok_or_else(|| ReplayError::Json("`events` is not an array of strings".into()))?;
        Ok(ReplayFile {
            assertion: string("assertion")?,
            kind: string("kind")?,
            events,
        })
    }
}

// ---------------------------------------------------------------------------
// Replay execution
// ---------------------------------------------------------------------------

/// How counterexample events map onto the simulated bus.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// The node under test — its transmissions are the observations.
    pub node: String,
    /// Event channels injected as frames (the stimuli the model's
    /// environment — or intruder — delivers to the node under test).
    pub stimulus_prefixes: Vec<String>,
    /// Event channels expected back as transmissions of `node`.
    pub expect_prefixes: Vec<String>,
    /// Bus-idle time between injected stimuli, in microseconds.
    pub gap_us: u64,
}

impl ReplayConfig {
    /// A sensible default: stimuli on `rec`, observations on `send`, 10 ms
    /// apart — matching the translator's channel conventions.
    pub fn for_node(node: &str) -> ReplayConfig {
        ReplayConfig {
            node: node.to_string(),
            stimulus_prefixes: vec!["rec".to_string()],
            expect_prefixes: vec!["send".to_string()],
            gap_us: 10_000,
        }
    }
}

/// What a replay run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Message names injected as stimuli, in order.
    pub injected: Vec<String>,
    /// Message names the counterexample expects the node to transmit.
    pub expected: Vec<String>,
    /// Message names the node actually transmitted, in order.
    pub observed: Vec<String>,
    /// Whether `expected` occurs within `observed` as an ordered
    /// subsequence — i.e. the formal violation reproduced on the bus.
    pub reproduced: bool,
}

impl ReplayOutcome {
    /// Whether the replay could decide anything at all. A counterexample
    /// whose events map onto no expected response channel injects stimuli
    /// but observes nothing: `reproduced` is then vacuously true, and the
    /// run is inconclusive rather than a reproduction. Callers (the
    /// `autocsp replay` exit-code contract) report such runs as
    /// INCONCLUSIVE, exit code 3 — the same code budget-exhausted checks
    /// use.
    pub fn is_conclusive(&self) -> bool {
        !self.expected.is_empty()
    }
}

/// Re-drive a counterexample's events through a prepared simulation.
///
/// The simulation should contain the node under test (and only the nodes
/// whose behaviour the counterexample exercises — a full network would race
/// its own traffic against the injected stimuli). Stimulus events become
/// injected frames spaced `gap_us` apart; after a settling run, the node's
/// transmissions are compared against the expected responses.
pub fn replay(
    sim: &mut Simulation,
    db: &Database,
    events: &[String],
    config: &ReplayConfig,
) -> Result<ReplayOutcome, ReplayError> {
    let mut injected = Vec::new();
    let mut expected = Vec::new();

    for event in events {
        let Some((channel, message)) = event.split_once('.') else {
            continue; // channel-only events carry no frame
        };
        if config.stimulus_prefixes.iter().any(|p| p == channel) {
            let msg = db
                .message_by_name(message)
                .ok_or_else(|| ReplayError::UnknownMessage(message.to_string()))?;
            sim.inject_frame(Frame::new(msg.id, msg.dlc));
            injected.push(message.to_string());
            sim.run_for(config.gap_us)?;
        } else if config.expect_prefixes.iter().any(|p| p == channel) {
            expected.push(message.to_string());
        }
    }
    // Settle: let any response queued by the last stimulus drain.
    sim.run_for(config.gap_us.saturating_mul(4).max(1))?;

    let observed: Vec<String> = sim
        .trace()
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::Transmit { node, message, .. } if *node == config.node => {
                Some(message.clone())
            }
            _ => None,
        })
        .collect();

    let reproduced = is_subsequence(&expected, &observed);
    Ok(ReplayOutcome {
        injected,
        expected,
        observed,
        reproduced,
    })
}

/// Whether `needle` occurs in `haystack` as an ordered subsequence.
fn is_subsequence(needle: &[String], haystack: &[String]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|want| it.any(|got| got == want))
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag::json_string;

    #[test]
    fn json_round_trips() {
        let file = ReplayFile {
            assertion: "SP02 [T= ROGUE".to_string(),
            kind: "trace-violation".to_string(),
            events: vec!["rec.reqSw".to_string(), "send.rptSw".to_string()],
        };
        let json = format!(
            "{{\n  \"assertion\": {},\n  \"kind\": {},\n  \"events\": [{}, {}]\n}}\n",
            json_string(&file.assertion),
            json_string(&file.kind),
            json_string(&file.events[0]),
            json_string(&file.events[1]),
        );
        assert_eq!(ReplayFile::parse(&json).unwrap(), file);
    }

    #[test]
    fn counterexample_serialises_with_offending_event() {
        use csp::{Definitions, Process};
        use fdrlite::{Checker, Verdict};

        let mut ab = Alphabet::new();
        let req = ab.intern("rec.reqSw");
        let rpt = ab.intern("send.rptSw");
        let mut defs = Definitions::new();
        let spec = defs.add(
            "SPEC",
            Process::prefix(req, Process::prefix(rpt, Process::Stop)),
        );
        let rogue = Process::prefix_chain([req, rpt, rpt], Process::Stop);
        let verdict = Checker::new()
            .trace_refinement(&Process::var(spec), &rogue, &defs)
            .unwrap();
        let Verdict::Fail(cex) = verdict else {
            panic!("expected failure");
        };
        let json = counterexample_to_json("SPEC [T= ROGUE", &cex, &ab);
        let parsed = ReplayFile::parse(&json).unwrap();
        assert_eq!(parsed.kind, "trace-violation");
        assert_eq!(parsed.events, ["rec.reqSw", "send.rptSw", "send.rptSw"]);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(ReplayFile::parse("{\"assertion\": \"x\"}").is_err());
        assert!(ReplayFile::parse("not json").is_err());
        assert!(
            ReplayFile::parse("{\"assertion\": \"x\", \"kind\": \"k\", \"events\": [\"a\"")
                .is_err()
        );
    }

    #[test]
    fn subsequence_check_is_ordered() {
        let s = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        assert!(is_subsequence(&s(&["a", "b"]), &s(&["x", "a", "y", "b"])));
        assert!(!is_subsequence(&s(&["b", "a"]), &s(&["a", "b"])));
        assert!(is_subsequence(&s(&[]), &s(&["a"])));
    }

    #[test]
    fn replay_reproduces_an_unsolicited_report() {
        let dbc = "BU_: VMG ECU\nBO_ 256 reqSw: 8 VMG\n SG_ a : 0|8@1+ (1,0) [0|255] \"\" ECU\nBO_ 512 rptSw: 8 ECU\n SG_ b : 0|8@1+ (1,0) [0|255] \"\" VMG\n";
        // A buggy ECU that answers every request twice.
        let ecu = "variables { message rptSw r; } on message reqSw { output(r); output(r); }";
        let db = candb::parse(dbc).unwrap();
        let mut sim = Simulation::new(Some(db.clone()));
        sim.add_node("ECU", capl::parse(ecu).unwrap()).unwrap();

        let events = vec![
            "rec.reqSw".to_string(),
            "send.rptSw".to_string(),
            "send.rptSw".to_string(),
        ];
        let outcome = replay(&mut sim, &db, &events, &ReplayConfig::for_node("ECU")).unwrap();
        assert_eq!(outcome.injected, ["reqSw"]);
        assert_eq!(outcome.expected, ["rptSw", "rptSw"]);
        assert!(outcome.reproduced, "{outcome:?}");
    }

    #[test]
    fn replay_fails_to_reproduce_on_a_correct_node() {
        let dbc = "BU_: VMG ECU\nBO_ 256 reqSw: 8 VMG\n SG_ a : 0|8@1+ (1,0) [0|255] \"\" ECU\nBO_ 512 rptSw: 8 ECU\n SG_ b : 0|8@1+ (1,0) [0|255] \"\" VMG\n";
        let ecu = "variables { message rptSw r; } on message reqSw { output(r); }";
        let db = candb::parse(dbc).unwrap();
        let mut sim = Simulation::new(Some(db.clone()));
        sim.add_node("ECU", capl::parse(ecu).unwrap()).unwrap();

        let events = vec![
            "rec.reqSw".to_string(),
            "send.rptSw".to_string(),
            "send.rptSw".to_string(),
        ];
        let outcome = replay(&mut sim, &db, &events, &ReplayConfig::for_node("ECU")).unwrap();
        assert!(!outcome.reproduced, "{outcome:?}");
        assert_eq!(outcome.observed, ["rptSw"]);
    }

    #[test]
    fn unknown_stimulus_message_errors() {
        let db = candb::parse("BU_: ECU\nBO_ 256 reqSw: 8 ECU\n").unwrap();
        let mut sim = Simulation::new(Some(db.clone()));
        let events = vec!["rec.mystery".to_string()];
        let err = replay(&mut sim, &db, &events, &ReplayConfig::for_node("ECU")).unwrap_err();
        assert!(matches!(err, ReplayError::UnknownMessage(_)));
    }
}
