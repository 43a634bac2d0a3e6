//! Check verdicts and counterexample witnesses.

use csp::{Alphabet, EventId, Trace};
use std::fmt;

/// The outcome of a check: it holds, a witness refutes it, or a resource
/// budget ran out before either could be established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds.
    Pass,
    /// The property fails; the counterexample explains why.
    Fail(Counterexample),
    /// A resource budget ([`crate::CheckOptions`]) was exhausted before the
    /// check could conclude. Neither a proof nor a counterexample exists:
    /// the states explored so far contained no violation, but unexplored
    /// states might.
    Inconclusive(Inconclusive),
}

impl Verdict {
    /// Did the check pass? `false` for both [`Verdict::Fail`] and
    /// [`Verdict::Inconclusive`].
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// Did the check run out of budget before concluding?
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Verdict::Inconclusive(_))
    }

    /// The counterexample, if the check failed.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Pass | Verdict::Inconclusive(_) => None,
            Verdict::Fail(c) => Some(c),
        }
    }

    /// Budget-exhaustion details, if the check was inconclusive.
    pub fn inconclusive(&self) -> Option<&Inconclusive> {
        match self {
            Verdict::Inconclusive(i) => Some(i),
            _ => None,
        }
    }
}

/// Details attached to [`Verdict::Inconclusive`]: how far the exploration
/// got and which budget stopped it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inconclusive {
    /// Product states explored before the budget ran out.
    pub states_explored: u64,
    /// Which budget was exhausted.
    pub reason: BudgetReason,
    /// Resume token for `autocsp check --resume`, present when a persistent
    /// cache was attached and a checkpoint was written. The token is a
    /// deterministic function of the check's identity (model hashes,
    /// semantic model, compile bounds), so re-running the same check, at
    /// any thread count, yields the same token.
    pub resume: Option<String>,
}

impl Inconclusive {
    /// Budget-exhaustion details with no resume checkpoint attached.
    pub fn new(states_explored: u64, reason: BudgetReason) -> Inconclusive {
        Inconclusive {
            states_explored,
            reason,
            resume: None,
        }
    }
}

impl fmt::Display for Inconclusive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after exploring {} states",
            self.reason, self.states_explored
        )
    }
}

/// Which [`crate::CheckOptions`] budget stopped an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetReason {
    /// `max_states` was reached.
    States {
        /// The configured state budget.
        limit: u64,
    },
    /// `max_wall_ms` elapsed.
    Wall {
        /// The configured wall-clock budget in milliseconds.
        limit_ms: u64,
    },
    /// A graceful shutdown was requested ([`crate::request_interrupt`],
    /// e.g. from a `SIGTERM` handler); the exploration wound down at the
    /// next budget poll and checkpointed its frontier like any other
    /// budget exhaustion.
    Interrupted,
}

impl fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetReason::States { limit } => write!(f, "state budget ({limit}) exhausted"),
            BudgetReason::Wall { limit_ms } => {
                write!(f, "wall-clock budget ({limit_ms} ms) exhausted")
            }
            BudgetReason::Interrupted => write!(f, "interrupted by shutdown request"),
        }
    }
}

/// Why a check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The implementation performed a visible event (or `✓` when `event` is
    /// `None`) the specification does not allow after the witness trace.
    TraceViolation {
        /// The offending event; `None` means unexpected termination.
        event: Option<EventId>,
    },
    /// The implementation reached a stable state whose refusals exceed
    /// anything the specification allows after the witness trace.
    RefusalViolation {
        /// The visible events the implementation still accepts there.
        accepted: Vec<EventId>,
        /// Whether the implementation accepts `✓` there.
        accepts_tick: bool,
    },
    /// The implementation deadlocks after the witness trace.
    Deadlock,
    /// The implementation can diverge (perform `τ` forever) after the
    /// witness trace.
    Divergence,
    /// After the witness trace the process can both accept and refuse
    /// `event` — it is nondeterministic.
    Nondeterminism {
        /// The ambivalent event.
        event: EventId,
    },
}

/// A witness refuting a check: the trace that leads to the problem plus the
/// kind of problem found there.
///
/// This is the "counterexample / failure trace" of the paper's Fig. 1, fed
/// back to the software designer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    trace: Trace,
    kind: FailureKind,
}

impl Counterexample {
    pub(crate) fn new(trace: Trace, kind: FailureKind) -> Self {
        Counterexample { trace, kind }
    }

    /// The visible trace leading to the violation.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// What went wrong at the end of the trace.
    pub fn kind(&self) -> &FailureKind {
        &self.kind
    }

    /// Render the counterexample with event names from `alphabet`.
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> CounterexampleDisplay<'a> {
        CounterexampleDisplay {
            cex: self,
            alphabet,
        }
    }
}

/// Pretty-printer returned by [`Counterexample::display`].
#[derive(Debug)]
pub struct CounterexampleDisplay<'a> {
    cex: &'a Counterexample,
    alphabet: &'a Alphabet,
}

impl fmt::Display for CounterexampleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "after {}", self.cex.trace.display(self.alphabet))?;
        match &self.cex.kind {
            FailureKind::TraceViolation { event: Some(e) } => {
                write!(
                    f,
                    ", the implementation performs `{}` which the specification forbids",
                    self.alphabet.name(*e)
                )
            }
            FailureKind::TraceViolation { event: None } => {
                write!(
                    f,
                    ", the implementation terminates but the specification forbids ✓"
                )
            }
            FailureKind::RefusalViolation {
                accepted,
                accepts_tick,
            } => {
                write!(f, ", the implementation may refuse everything except {{")?;
                for (i, e) in accepted.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", self.alphabet.name(*e))?;
                }
                if *accepts_tick {
                    if !accepted.is_empty() {
                        write!(f, ", ")?;
                    }
                    write!(f, "✓")?;
                }
                write!(f, "}}, which the specification does not allow")
            }
            FailureKind::Deadlock => write!(f, ", the implementation deadlocks"),
            FailureKind::Divergence => write!(f, ", the implementation can diverge"),
            FailureKind::Nondeterminism { event } => write!(
                f,
                ", the process may both accept and refuse `{}`",
                self.alphabet.name(*event)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accessors() {
        assert!(Verdict::Pass.is_pass());
        assert!(Verdict::Pass.counterexample().is_none());
        let cex = Counterexample::new(Trace::empty(), FailureKind::Deadlock);
        let v = Verdict::Fail(cex.clone());
        assert!(!v.is_pass());
        assert_eq!(v.counterexample(), Some(&cex));
    }

    #[test]
    fn inconclusive_verdict_accessors() {
        let v = Verdict::Inconclusive(Inconclusive::new(
            1234,
            BudgetReason::States { limit: 1000 },
        ));
        assert!(!v.is_pass());
        assert!(v.is_inconclusive());
        assert!(v.counterexample().is_none());
        let i = v.inconclusive().expect("details");
        assert_eq!(i.states_explored, 1234);
        let text = i.to_string();
        assert!(text.contains("state budget (1000)"), "{text}");
        assert!(text.contains("1234 states"), "{text}");
        let wall = Inconclusive::new(9, BudgetReason::Wall { limit_ms: 50 });
        assert!(wall.to_string().contains("50 ms"), "{wall}");
    }

    #[test]
    fn display_names_the_offending_event() {
        let mut ab = Alphabet::new();
        let bad = ab.intern("send.rogue");
        let cex = Counterexample::new(
            Trace::empty(),
            FailureKind::TraceViolation { event: Some(bad) },
        );
        let text = cex.display(&ab).to_string();
        assert!(text.contains("send.rogue"), "{text}");
    }
}
