//! `lint` — static analysis for the auto-csp toolchain.
//!
//! One crate collects every pre-execution check the pipeline can run, all
//! reporting on the shared [`diag`] currency:
//!
//! - [`lint_program`] — CAPL lints: the frontend symbol pass plus
//!   use-before-init dataflow, dead stores, unreachable code and timer/handler
//!   pairing (`CAPL0xx`).
//! - [`lint_database`] / [`cross_check`] — `.dbc` hygiene and CAPL ↔ database
//!   cross-validation (`DBC1xx`).
//! - [`lint_module`] — unguarded recursion in a CSPm module, before it is
//!   elaborated (`CSP202`). Alphabet coverage and reachability are judged on
//!   the elaborated model by `cspm::analyze` (`ANA3xx`).
//!
//! The [`codes`] module is the complete stable catalogue. [`LintReport`]
//! groups one run's findings per stage for rendering and gating.
//!
//! ```
//! let program = capl::parse("on start { ghost = 1; }").unwrap();
//! let report = lint::LintReport::for_capl(lint::lint_program(&program));
//! assert!(report.error_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use diag::{self, Code, Diagnostic, Severity, Span};

pub mod codes;

mod capl_rules;
mod csp_rules;
mod dbc_rules;

pub use capl_rules::lint_program;
pub use csp_rules::lint_module;
pub use dbc_rules::{cross_check, lint_database};

/// Which analysis stage produced a group of diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// CAPL program analysis (`CAPL0xx`, plus `DBC1xx` cross-checks anchored
    /// in the CAPL source).
    Capl,
    /// CAN database hygiene (`DBC1xx`).
    Dbc,
    /// CSPm structural analysis (`CSP202`).
    Csp,
}

impl Stage {
    /// Lower-case label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Capl => "capl",
            Stage::Dbc => "dbc",
            Stage::Csp => "csp",
        }
    }
}

/// All findings of one lint run, grouped by stage.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// CAPL-stage findings (including cross-checks against the database).
    pub capl: Vec<Diagnostic>,
    /// Database-hygiene findings.
    pub dbc: Vec<Diagnostic>,
    /// CSPm-stage findings.
    pub csp: Vec<Diagnostic>,
}

impl LintReport {
    /// A report holding only CAPL-stage findings.
    pub fn for_capl(diagnostics: Vec<Diagnostic>) -> LintReport {
        LintReport {
            capl: diagnostics,
            ..LintReport::default()
        }
    }

    /// Every finding, in stage order.
    pub fn all(&self) -> impl Iterator<Item = (Stage, &Diagnostic)> {
        self.capl
            .iter()
            .map(|d| (Stage::Capl, d))
            .chain(self.dbc.iter().map(|d| (Stage::Dbc, d)))
            .chain(self.csp.iter().map(|d| (Stage::Csp, d)))
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.all()
            .filter(|(_, d)| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.all()
            .filter(|(_, d)| d.severity == Severity::Warning)
            .count()
    }

    /// Whether no stage found anything.
    pub fn is_clean(&self) -> bool {
        self.capl.is_empty() && self.dbc.is_empty() && self.csp.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_across_stages() {
        let mut r = LintReport::for_capl(vec![Diagnostic::error(
            codes::UNDECLARED_NAME,
            Span::unknown(),
            "x",
        )]);
        r.csp.push(Diagnostic::warning(
            codes::UNGUARDED_RECURSION,
            Span::unknown(),
            "y",
        ));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.is_clean());
        assert_eq!(r.all().count(), 2);
    }

    #[test]
    fn empty_report_is_clean() {
        assert!(LintReport::default().is_clean());
    }
}
