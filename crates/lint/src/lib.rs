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
//!
//! Every CSPm finding is judged on the elaborated model by `cspm::analyze`:
//! unguarded recursion (`CSP202`), alphabet coverage and reachability
//! (`ANA3xx`).
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
mod dbc_rules;

pub use capl_rules::lint_program;
pub use dbc_rules::{cross_check, lint_database};

/// No findings: every CSPm finding, `CSP202` included, is judged on the
/// elaborated model by `cspm::analyze`. The benchmark harness still times
/// this as a pipeline stage.
pub fn lint_module(_module: &cspm::ast::Module) -> Vec<Diagnostic> {
    Vec::new()
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

    /// Number of error-severity findings, across stages.
    pub fn error_count(&self) -> usize {
        [&self.capl, &self.dbc, &self.csp]
            .into_iter()
            .flatten()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_errors_across_stages() {
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
        r.dbc.push(Diagnostic::error(
            codes::DLC_TOO_LARGE,
            Span::unknown(),
            "z",
        ));
        assert_eq!(r.error_count(), 2);
        assert_eq!(LintReport::default().error_count(), 0);
    }
}
