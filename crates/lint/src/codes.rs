//! The complete catalogue of stable lint codes.
//!
//! Codes are namespaced per pipeline stage — `CAPL0xx` for CAPL program
//! analysis, `DBC1xx` for CAN-database hygiene and CAPL ↔ `.dbc`
//! cross-validation, `CSP2xx` for CSPm parsing, elaboration and unguarded
//! recursion ([`UNGUARDED_RECURSION`] is defined in `diag`, re-exported here),
//! `SIM3xx` for fault-plan validation (defined in [`faults::codes`],
//! re-exported here), `ANA3xx` for semantic model analysis (defined in
//! [`diag::ana`], re-exported here). Codes are never renumbered once
//! published in `docs/LINTS.md`; retired codes ([`RETIRED`]) are not
//! reused.

use diag::Code;

// CAPL frontend diagnostics live with the symbol pass; re-export them here so
// the catalogue is complete from one module.
pub use capl::symbols::{
    DUPLICATE_GLOBAL, DUPLICATE_HANDLER, NOT_A_TIMER, TIMER_CALL_ON_NON_TIMER, TIMER_NEVER_SET,
    UNDECLARED_MESSAGE, UNDECLARED_NAME, UNDECLARED_TIMER, UNKNOWN_FUNCTION,
};

// Fault-plan diagnostics live with the `faults` crate (which emits them);
// re-export them so the catalogue is complete from one module.
pub use faults::codes::{
    BUS_OFF_OVERLAP, CORPUS_EMPTY, CORPUS_LINE_MALFORMED, CORPUS_UNKNOWN_EVENT, CORRUPT_BYTE_RANGE,
    EMPTY_WINDOW, PLAN_PARSE_ERROR, PROBABILITY_RANGE, UNKNOWN_FRAME_ID, UNKNOWN_NODE,
};

// Semantic-analysis diagnostics live with `diag` (the analyzer in `cspm`
// emits them and sits below this crate); re-export them so the catalogue is
// complete from one module.
pub use diag::ana::{
    ANALYSIS_SKIPPED, DEADLOCK_SINK, DIVERGENT_PROCESS, HIDE_DEAD_EVENT, PREDICTED_OVER_BUDGET,
    SYNC_DEAD_EVENT as ANA_SYNC_DEAD_EVENT, SYNC_ONE_SIDED as ANA_SYNC_ONE_SIDED,
    UNREACHABLE_DEFINITION as ANA_UNREACHABLE_DEFINITION,
};
pub use diag::UNGUARDED_RECURSION;

/// `CAPL000` — the CAPL source failed to lex or parse.
pub const CAPL_PARSE_ERROR: Code = Code("CAPL000");
/// `DBC100` — the CAN database failed to parse.
pub const DBC_PARSE_ERROR: Code = Code("DBC100");
/// `CSP200` — the CSPm script failed to lex, parse or elaborate.
pub const CSP_PARSE_ERROR: Code = Code("CSP200");

/// `CAPL010` — a timer is armed with `setTimer` but has no `on timer` handler.
pub const TIMER_WITHOUT_HANDLER: Code = Code("CAPL010");
/// `CAPL011` — a local variable may be read before it is first assigned.
pub const USE_BEFORE_INIT: Code = Code("CAPL011");
/// `CAPL012` — a local variable is assigned but its value is never read.
pub const DEAD_STORE: Code = Code("CAPL012");
/// `CAPL013` — statements after `return`/`break`/`continue` can never run.
pub const UNREACHABLE_CODE: Code = Code("CAPL013");

/// `DBC101` — a CAPL message reference names a message absent from the `.dbc`.
pub const UNKNOWN_DB_MESSAGE: Code = Code("DBC101");
/// `DBC102` — a CAPL message reference uses a raw CAN id absent from the `.dbc`.
pub const UNKNOWN_DB_ID: Code = Code("DBC102");
/// `DBC103` — two `on message` handlers resolve to the same database message.
pub const HANDLER_COLLISION: Code = Code("DBC103");
/// `DBC104` — a database message declares a DLC larger than 8 bytes.
pub const DLC_TOO_LARGE: Code = Code("DBC104");
/// `DBC105` — two signals of one message occupy overlapping bits.
pub const SIGNAL_OVERLAP: Code = Code("DBC105");
/// `DBC106` — a signal extends beyond the bits implied by the message DLC.
pub const SIGNAL_PAST_DLC: Code = Code("DBC106");
/// `DBC107` — two database messages share a CAN identifier.
pub const DUPLICATE_DB_ID: Code = Code("DBC107");
/// `DBC108` — CAPL accesses a signal that the resolved message does not carry.
pub const UNKNOWN_SIGNAL: Code = Code("DBC108");

/// Every published code with a one-line summary, in catalogue order.
///
/// `docs/LINTS.md` is generated from the same material; a unit test keeps the
/// two in sync by checking the codes listed there.
pub const CATALOGUE: &[(Code, &str)] = &[
    (CAPL_PARSE_ERROR, "CAPL source failed to parse"),
    (DBC_PARSE_ERROR, "CAN database failed to parse"),
    (CSP_PARSE_ERROR, "CSPm script failed to parse or elaborate"),
    (DUPLICATE_GLOBAL, "global variable declared twice"),
    (UNDECLARED_NAME, "use of an undeclared name"),
    (DUPLICATE_HANDLER, "duplicate handler for one event"),
    (NOT_A_TIMER, "`on timer` over a non-timer variable"),
    (UNDECLARED_TIMER, "`on timer` over an undeclared name"),
    (
        TIMER_CALL_ON_NON_TIMER,
        "setTimer/cancelTimer on a non-timer",
    ),
    (UNKNOWN_FUNCTION, "call to an unknown function"),
    (UNDECLARED_MESSAGE, "output() of an undeclared message"),
    (
        TIMER_NEVER_SET,
        "timer handler exists but timer is never set",
    ),
    (TIMER_WITHOUT_HANDLER, "timer is set but has no handler"),
    (USE_BEFORE_INIT, "local possibly read before initialisation"),
    (DEAD_STORE, "local assigned but never read"),
    (UNREACHABLE_CODE, "statement after return/break/continue"),
    (UNKNOWN_DB_MESSAGE, "message name missing from the database"),
    (UNKNOWN_DB_ID, "raw CAN id missing from the database"),
    (HANDLER_COLLISION, "two handlers match one database message"),
    (DLC_TOO_LARGE, "message DLC exceeds 8 bytes"),
    (SIGNAL_OVERLAP, "signals occupy overlapping bits"),
    (SIGNAL_PAST_DLC, "signal extends beyond the message DLC"),
    (DUPLICATE_DB_ID, "two messages share one CAN id"),
    (UNKNOWN_SIGNAL, "access to a signal the message lacks"),
    (UNGUARDED_RECURSION, "recursion with no intervening event"),
    (PLAN_PARSE_ERROR, "fault plan failed to parse"),
    (
        UNKNOWN_FRAME_ID,
        "fault plan frame id missing from the database",
    ),
    (BUS_OFF_OVERLAP, "overlapping bus-off windows"),
    (PROBABILITY_RANGE, "trigger probability outside [0, 1]"),
    (EMPTY_WINDOW, "empty time window makes the fault inert"),
    (UNKNOWN_NODE, "fault plan node missing from the database"),
    (
        CORRUPT_BYTE_RANGE,
        "corruption offset beyond the CAN payload",
    ),
    (
        CORPUS_LINE_MALFORMED,
        "trace-corpus JSONL line failed to parse",
    ),
    (
        CORPUS_UNKNOWN_EVENT,
        "corpus trace performs an event the model lacks",
    ),
    (CORPUS_EMPTY, "trace corpus contains no traces"),
    (
        ANALYSIS_SKIPPED,
        "process could not be semantically analysed",
    ),
    (
        ANA_SYNC_ONE_SIDED,
        "synchronised event only one side can ever perform",
    ),
    (
        ANA_SYNC_DEAD_EVENT,
        "synchronised event neither side can ever perform",
    ),
    (HIDE_DEAD_EVENT, "event hidden but never performable"),
    (
        ANA_UNREACHABLE_DEFINITION,
        "definition semantically unreachable from assertions",
    ),
    (
        DIVERGENT_PROCESS,
        "process under a divergence-sensitive assertion can diverge",
    ),
    (
        DEADLOCK_SINK,
        "process under a deadlock-freedom assertion reaches a deadlock sink",
    ),
    (
        PREDICTED_OVER_BUDGET,
        "predicted state space exceeds the exploration budget",
    ),
];

/// Codes published once and since retired, each with the code that reports
/// its finding now. `docs/LINTS.md` lists them as retired; they are never
/// reused.
pub const RETIRED: &[(Code, Code)] = &[
    (Code("CSP201"), ANA_SYNC_ONE_SIDED),
    (Code("CSP203"), ANA_UNREACHABLE_DEFINITION),
    (Code("CSP204"), ANA_SYNC_DEAD_EVENT),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalogue_codes_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for (code, summary) in CATALOGUE {
            assert!(seen.insert(code.0), "duplicate code {code}");
            assert!(!summary.is_empty());
            let ok = code.0.starts_with("CAPL")
                || code.0.starts_with("DBC")
                || code.0.starts_with("SIM")
                || code.0.starts_with("CSP")
                || code.0.starts_with("ANA");
            assert!(ok, "code {code} outside the allocated namespaces");
        }
    }

    #[test]
    fn retired_codes_are_not_reused_and_name_a_published_successor() {
        for (retired, successor) in RETIRED {
            assert!(
                CATALOGUE.iter().all(|(code, _)| code != retired),
                "{retired} is retired but published"
            );
            assert!(
                CATALOGUE.iter().any(|(code, _)| code == successor),
                "{retired}'s successor {successor} is not published"
            );
        }
    }
}
