//! `diag` — the shared diagnostics currency of the `auto-csp` toolchain.
//!
//! Every stage of the paper's Fig. 1 pipeline (CAPL frontend, CAN database
//! cross-checks, CSPm structural analysis) reports problems as the same
//! [`Diagnostic`] type: a stable [`Code`], a [`Severity`], a source [`Span`]
//! and a message, optionally with notes. One currency means the CLI, the
//! translator pipeline and the test suite can render, count, gate and
//! serialise diagnostics uniformly.
//!
//! Code namespaces are allocated per stage:
//!
//! | prefix    | stage                                            |
//! |-----------|--------------------------------------------------|
//! | `CAPL0xx` | CAPL program analysis                            |
//! | `DBC1xx`  | CAN database hygiene and CAPL ↔ `.dbc` checks    |
//! | `CSP2xx`  | CSPm parsing, elaboration and unguarded recursion |
//! | `SIM3xx`  | fault-plan validation and plan ↔ `.dbc` checks   |
//! | `STO4xx`  | on-disk model-cache integrity (`fdrlite::persist`) |
//! | `ANA3xx`  | semantic model analysis (`autocsp analyze`, see [`ana`]) |
//! | `SUP5xx`  | supervised job runtime (`service::supervisor`, `autocsp run`) |
//! | `SRV6xx`  | checking service orchestration and the job journal (`crates/service`) |
//!
//! Rendering follows the familiar compiler shape:
//!
//! ```text
//! error[CAPL002]: `ghost` is not declared
//!   --> app.can:3:5
//!    |
//!  3 |   ghost = 1;
//!    |   ^^^^^
//! ```
//!
//! Two readers sit beside the diagnostics: [`json`], the one JSON parser
//! and writer, and [`toml`], the one reader of the TOML subset that fault
//! plans and `jobs.toml` manifests are written in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod toml;

use std::fmt;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only; never gates.
    Info,
    /// A likely mistake; gates under `--deny-warnings`.
    Warning,
    /// A definite defect; always gates.
    Error,
}

impl Severity {
    /// Lower-case label used in rendered output and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A stable diagnostic code, e.g. `CAPL002` or `CSP202`.
///
/// Codes are part of the tool's public interface: once published in
/// `docs/LINTS.md` they are never renumbered, only retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Code(pub &'static str);

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A half-open source region: 1-based line and column plus a length in
/// characters on that line.
///
/// Positions flow from the per-language frontends (which each have their own
/// position types); a zero line means "no usable position" and suppresses
/// the source excerpt when rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line number (0 = unknown).
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
    /// Length of the region in characters (minimum 1 when rendering).
    pub len: u32,
}

impl Span {
    /// A span at `line:col` covering `len` characters.
    pub fn new(line: u32, col: u32, len: u32) -> Span {
        Span { line, col, len }
    }

    /// A zero-length marker span at `line:col`.
    pub fn point(line: u32, col: u32) -> Span {
        Span { line, col, len: 1 }
    }

    /// The unknown span (no excerpt is rendered).
    pub fn unknown() -> Span {
        Span::default()
    }

    /// Whether this span carries a usable position.
    pub fn is_known(&self) -> bool {
        self.line > 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One reported problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code identifying the rule that fired.
    pub code: Code,
    /// How severe the problem is.
    pub severity: Severity,
    /// Where it was detected (best effort).
    pub span: Span,
    /// Human-readable description.
    pub message: String,
    /// Supplementary notes rendered beneath the excerpt.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, span, message)
        }
    }

    /// An info-severity diagnostic.
    pub fn info(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Info,
            ..Diagnostic::error(code, span, message)
        }
    }

    /// Attach a note (builder style).
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Render this diagnostic against the file it refers to.
    ///
    /// `file` is the display name, `source` the full text (used for the
    /// excerpt; pass `""` to skip excerpts).
    pub fn render(&self, file: &str, source: &str) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        if self.span.is_known() {
            let gutter = digits(self.span.line);
            out.push_str(&format!(
                "{:width$}--> {}:{}\n",
                "",
                file,
                self.span,
                width = gutter + 1
            ));
            if let Some(text) = source.lines().nth(self.span.line as usize - 1) {
                let line = self.span.line;
                out.push_str(&format!("{:width$} |\n", "", width = gutter));
                out.push_str(&format!("{line:>gutter$} | {text}\n"));
                let col = (self.span.col.max(1) - 1) as usize;
                // Column offsets count characters; pad accordingly so the
                // caret lands correctly even with multi-byte source.
                let pad: String = text
                    .chars()
                    .take(col)
                    .map(|c| if c == '\t' { '\t' } else { ' ' })
                    .collect();
                let carets = "^".repeat(self.span.len.max(1) as usize);
                out.push_str(&format!("{:width$} | {pad}{carets}\n", "", width = gutter));
            }
        } else {
            out.push_str(&format!(" --> {file}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// This diagnostic as a JSON object (fully escaped, no trailing newline).
    pub fn to_json(&self, file: &str) -> String {
        let mut w = json::Writer::new();
        self.write_json(&mut w, file);
        w.finish()
    }

    /// Write this diagnostic as one JSON object value into `w`.
    pub fn write_json(&self, w: &mut json::Writer, file: &str) {
        w.object(|w| {
            w.key("code").string(self.code.0);
            w.key("severity").string(self.severity.label());
            w.key("file").string(file);
            w.key("line").number(self.span.line);
            w.key("col").number(self.span.col);
            w.key("len").number(self.span.len);
            w.key("message").string(&self.message);
            w.key("notes").array(|w| {
                for note in &self.notes {
                    w.string(note);
                }
            });
        });
    }
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Escape `s` as a JSON string literal (with surrounding quotes), as
/// [`json::Writer::string`] does.
pub fn json_string(s: &str) -> String {
    let mut w = json::Writer::new();
    w.string(s);
    w.finish()
}

/// `CSP202` — a process can recurse without performing an event first.
///
/// Emitted by the semantic analyzer (`cspm::analyze`), which judges it on
/// the elaborated model; it lives here beside [`ana`] for the same reason,
/// and `lint::codes` re-exports it.
pub const UNGUARDED_RECURSION: Code = Code("CSP202");

/// Stable codes of the `ANA3xx` family: semantic model analysis.
///
/// Emitted by the semantic analyzer (`cspm::analyze`, surfaced as
/// `autocsp analyze` and as gating hooks in `check`/`lint`). They are
/// computed on the *elaborated* model — interprocedural alphabet inference
/// sees through renaming and hiding,
/// and the graph findings are read off the compiled LTS itself — so every
/// finding states a semantic certainty ("this event can never happen
/// here", "this assertion is guaranteed to fail"), never a heuristic.
///
/// The constants live here (rather than in `lint`) because the analyzer
/// sits below the lint crate in the dependency order; `lint::codes`
/// re-exports them into the catalogue.
pub mod ana {
    use crate::Code;

    /// A process could not be analysed (compile error or budget hit); the
    /// semantic findings for it are incomplete, not absent.
    pub const ANALYSIS_SKIPPED: Code = Code("ANA300");
    /// An event in a synchronisation set that only one operand can ever
    /// perform: the interface blocks it forever.
    pub const SYNC_ONE_SIDED: Code = Code("ANA301");
    /// An event in a synchronisation set that neither operand can ever
    /// perform.
    pub const SYNC_DEAD_EVENT: Code = Code("ANA302");
    /// An event that is hidden but never performable by the hidden
    /// process.
    pub const HIDE_DEAD_EVENT: Code = Code("ANA303");
    /// A definition semantically unreachable from every assertion, even
    /// through renaming and hiding.
    pub const UNREACHABLE_DEFINITION: Code = Code("ANA304");
    /// A process under a divergence-sensitive assertion can diverge: the
    /// assertion is guaranteed to fail.
    pub const DIVERGENT_PROCESS: Code = Code("ANA305");
    /// A process under a deadlock-freedom assertion reaches a guaranteed
    /// deadlock sink: the assertion is guaranteed to fail.
    pub const DEADLOCK_SINK: Code = Code("ANA306");
    /// The predicted state-space bound for an assertion exceeds the
    /// configured exploration budget: the check is expected to come back
    /// inconclusive.
    pub const PREDICTED_OVER_BUDGET: Code = Code("ANA307");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_for_gating() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn render_includes_code_excerpt_and_caret() {
        let d = Diagnostic::error(
            Code("CAPL002"),
            Span::new(2, 3, 5),
            "`ghost` is not declared",
        );
        let shown = d.render("app.can", "on start {\n  ghost = 1;\n}\n");
        assert!(
            shown.contains("error[CAPL002]: `ghost` is not declared"),
            "{shown}"
        );
        assert!(shown.contains("--> app.can:2:3"), "{shown}");
        assert!(shown.contains("2 |   ghost = 1;"), "{shown}");
        assert!(shown.contains("|   ^^^^^"), "{shown}");
    }

    #[test]
    fn render_without_position_skips_excerpt() {
        let d = Diagnostic::warning(Code("ANA302"), Span::unknown(), "dead sync");
        let shown = d.render("model.csp", "P = STOP\n");
        assert!(shown.contains("warning[ANA302]: dead sync"));
        assert!(!shown.contains('^'));
    }

    #[test]
    fn notes_are_rendered() {
        let d = Diagnostic::warning(Code("CAPL010"), Span::point(1, 1), "timer never fires")
            .with_note("set it with setTimer(t, ms)");
        assert!(d
            .render("a.can", "x")
            .contains("note: set it with setTimer"));
    }

    #[test]
    fn json_is_escaped() {
        let d = Diagnostic::error(
            Code("DBC101"),
            Span::new(1, 2, 3),
            "unknown \"message\"\\name",
        );
        let json = d.to_json("net.dbc");
        assert!(json.contains(r#""code":"DBC101""#), "{json}");
        assert!(json.contains(r#""severity":"error""#), "{json}");
        assert!(json.contains(r#""unknown \"message\"\\name""#), "{json}");
        assert!(json.contains(r#""line":1"#), "{json}");
    }

    #[test]
    fn multibyte_source_keeps_caret_alignment() {
        let d = Diagnostic::error(Code("CAPL002"), Span::new(1, 5, 2), "bad");
        let shown = d.render("a.can", "héllo wörld");
        // The caret line must not panic and must contain carets.
        assert!(shown.contains("^^"), "{shown}");
    }
}
