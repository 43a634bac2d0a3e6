//! `jobs.toml` manifests for `autocsp run`.
//!
//! A manifest names a batch of checking jobs — refinement/property check
//! runs, trace-conformance sweeps, semantic analyses — to be executed by
//! `autocsp run` or submitted to `autocsp serve` (both in the `service`
//! crate). It is written in the toolchain's TOML subset, read by
//! [`diag::toml`]:
//!
//! ```toml
//! [run]
//! threads = 4          # default worker threads per job
//! max_states = 200000  # default per-job state budget
//! timeout_ms = 30000   # default per-job wall budget
//! run_timeout_ms = 600000
//! retries = 3          # attempts per job for transient failures
//! retry_base_ms = 10
//! retry_seed = 7
//!
//! [[job]]
//! name = "ota-sp02"
//! kind = "check"       # check | conform | analyze
//! script = "ota.csp"   # relative to the manifest file
//! assertion = "SP02"   # optional: only assertions containing this text
//!
//! [[job]]
//! name = "ota-corpus"
//! kind = "conform"
//! script = "ota.csp"
//! spec = "SYSTEM"
//! corpus = "traces"
//!
//! [chaos]              # optional: deterministic fault plan (testing)
//! seed = 99
//! transient_attempts = 2
//! every_nth = 3
//! ```
//!
//! Only `name` and `script` are required per job. Paths are resolved
//! relative to the manifest's directory at parse time. Per-job settings
//! override `[run]` defaults, which override the CLI's or the service's
//! (`service::resolve_jobs`).
//!
//! The `[chaos]` section drives `faults::storage::TransientJobFaults`: a
//! deterministic plan under which every `every_nth`-th job (selected by a
//! seeded hash of its name) fails transiently on its first
//! `transient_attempts` attempts. Because the plan is part of the
//! manifest, a disturbed and an undisturbed run retry identically and
//! reach identical verdicts — which is exactly what the supervision CI
//! matrix diffs for.

use std::fmt;
use std::path::{Path, PathBuf};

use diag::toml::{self, Fields, Section};
use diag::{Code, Diagnostic, Span};

use crate::error::{CspmError, Pos};

/// What a job does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Run the script's assertions (like `autocsp check`).
    Check,
    /// Check a corpus of recorded traces against a spec process (like
    /// `autocsp conform`).
    Conform,
    /// Run the semantic analyzer over the script (like `autocsp analyze`).
    Analyze,
}

impl JobKind {
    fn parse(s: &str) -> Option<JobKind> {
        match s {
            "check" => Some(JobKind::Check),
            "conform" => Some(JobKind::Conform),
            "analyze" => Some(JobKind::Analyze),
            _ => None,
        }
    }

    /// The manifest spelling of this kind.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Check => "check",
            JobKind::Conform => "conform",
            JobKind::Analyze => "analyze",
        }
    }
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One `[[job]]` entry, paths already resolved.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique job name.
    pub name: String,
    /// What to do.
    pub kind: JobKind,
    /// The CSPm script to load.
    pub script: PathBuf,
    /// Spec process name (`conform` jobs; defaults to the CLI's).
    pub spec: Option<String>,
    /// Trace corpus directory (`conform` jobs).
    pub corpus: Option<PathBuf>,
    /// Run only assertions whose description contains this substring.
    pub assertion: Option<String>,
    /// Worker threads override for this job.
    pub threads: Option<usize>,
    /// State-budget override for this job.
    pub max_states: Option<u64>,
    /// Wall-budget override (milliseconds) for this job.
    pub timeout_ms: Option<u64>,
}

/// `[run]` defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSettings {
    /// Default worker threads per job.
    pub threads: Option<usize>,
    /// Default per-job state budget.
    pub max_states: Option<u64>,
    /// Default per-job wall budget (milliseconds).
    pub timeout_ms: Option<u64>,
    /// Overall wall budget for the whole run (milliseconds).
    pub run_timeout_ms: Option<u64>,
    /// Attempts per job for transient failures (first try included).
    pub retries: Option<u32>,
    /// Backoff base delay (milliseconds).
    pub retry_base_ms: Option<u64>,
    /// Backoff delay cap (milliseconds).
    pub retry_max_ms: Option<u64>,
    /// Seed for the deterministic backoff jitter.
    pub retry_seed: Option<u64>,
}

/// `[chaos]` — a deterministic transient-fault plan for testing the
/// supervisor's retry path.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Seed for the job-selection hash.
    pub seed: u64,
    /// How many leading attempts of a selected job fail transiently.
    pub transient_attempts: u32,
    /// Every `n`-th job (by seeded hash of its name) is selected; `0`
    /// selects none.
    pub every_nth: u64,
}

/// A parsed `jobs.toml`.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// `[run]` defaults.
    pub run: RunSettings,
    /// The jobs, in manifest order.
    pub jobs: Vec<JobSpec>,
    /// The optional chaos plan.
    pub chaos: Option<ChaosSpec>,
}

/// The code `autocsp run` and `autocsp serve` report manifest problems
/// under (`SUP510`); a [`CspmError`] keeps only the message and position.
const MANIFEST_ERROR: Code = Code("SUP510");

impl Manifest {
    /// Parse manifest text; `base_dir` anchors the relative paths inside
    /// it (pass the manifest file's directory).
    ///
    /// # Errors
    ///
    /// [`CspmError::Parse`] at the first problem: a syntax error, an
    /// unknown section, key or kind, a wrong type, a duplicate key or job
    /// name, a missing job name or script, a `conform` job without a
    /// corpus, or no job at all.
    pub fn parse(source: &str, base_dir: &Path) -> Result<Manifest, CspmError> {
        let first = |errors: Vec<Diagnostic>| {
            let d = &errors[0];
            CspmError::Parse {
                pos: Pos {
                    line: d.span.line,
                    col: d.span.col,
                },
                message: d.message.clone(),
            }
        };
        let sections = toml::parse(source, MANIFEST_ERROR).map_err(first)?;
        let mut manifest = Manifest {
            run: RunSettings::default(),
            jobs: Vec::new(),
            chaos: None,
        };
        let mut errors = Vec::new();
        for section in &sections {
            let mut f = Fields::new(section, MANIFEST_ERROR);
            match (section.name.as_str(), section.array) {
                ("run", false) => {
                    let run = &mut manifest.run;
                    run.threads = f.uint("threads").or(run.threads);
                    run.max_states = f.uint("max_states").or(run.max_states);
                    run.timeout_ms = f.uint("timeout_ms").or(run.timeout_ms);
                    run.run_timeout_ms = f.uint("run_timeout_ms").or(run.run_timeout_ms);
                    run.retries = f.uint("retries").or(run.retries);
                    run.retry_base_ms = f.uint("retry_base_ms").or(run.retry_base_ms);
                    run.retry_max_ms = f.uint("retry_max_ms").or(run.retry_max_ms);
                    run.retry_seed = f.uint("retry_seed").or(run.retry_seed);
                }
                ("chaos", false) => {
                    manifest.chaos = Some(ChaosSpec {
                        seed: f.uint("seed").unwrap_or(0),
                        transient_attempts: f.uint("transient_attempts").unwrap_or(1),
                        every_nth: f.uint("every_nth").unwrap_or(1),
                    });
                }
                ("job", true) => {
                    let job = job(&mut f, section, base_dir);
                    if manifest.jobs.iter().any(|j| j.name == job.name) {
                        f.error(section.span, format!("duplicate job name `{}`", job.name));
                    }
                    manifest.jobs.push(job);
                }
                _ => {
                    errors.push(Diagnostic::error(
                        MANIFEST_ERROR,
                        section.span,
                        format!("unknown section `{}`", section.header()),
                    ));
                    continue;
                }
            }
            errors.extend(f.finish());
        }
        if manifest.jobs.is_empty() {
            let last = u32::try_from(source.lines().count()).unwrap_or(u32::MAX);
            errors.push(Diagnostic::error(
                MANIFEST_ERROR,
                Span::point(last, 1),
                "manifest declares no `[[job]]`",
            ));
        }
        if errors.is_empty() {
            Ok(manifest)
        } else {
            Err(first(errors))
        }
    }
}

/// One `[[job]]` section.
fn job(f: &mut Fields<'_>, section: &Section, base_dir: &Path) -> JobSpec {
    let name = f.require_str("name").unwrap_or_default();
    let script = f.require_str("script").unwrap_or_default();
    let kind = match f.str("kind") {
        None => JobKind::Check,
        Some(word) => JobKind::parse(&word).unwrap_or_else(|| {
            f.error(
                section.span,
                format!("unknown job kind `{word}` (expected check, conform or analyze)"),
            );
            JobKind::Check
        }),
    };
    let job = JobSpec {
        name,
        kind,
        script: base_dir.join(script),
        spec: f.str("spec"),
        corpus: f.str("corpus").map(|corpus| base_dir.join(corpus)),
        assertion: f.str("assertion"),
        threads: f.uint("threads"),
        max_states: f.uint("max_states"),
        timeout_ms: f.uint("timeout_ms"),
    };
    if job.kind == JobKind::Conform && job.corpus.is_none() {
        f.error(
            section.span,
            format!("conform job `{}` is missing `corpus`", job.name),
        );
    }
    job
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        # batch for the OTA models
        [run]
        threads = 2
        max_states = 100_000
        retries = 3
        retry_seed = 7

        [[job]]
        name = "sp02"
        script = "ota.csp"          # paths resolve against the manifest dir
        assertion = "SP02"

        [[job]]
        name = "corpus"
        kind = "conform"
        script = "ota.csp"
        spec = "SYSTEM"
        corpus = "traces"
        timeout_ms = 500

        [chaos]
        seed = 99
        transient_attempts = 2
        every_nth = 3
    "#;

    #[test]
    fn sample_manifest_parses() {
        let m = Manifest::parse(SAMPLE, Path::new("/work")).unwrap();
        assert_eq!(m.run.threads, Some(2));
        assert_eq!(m.run.max_states, Some(100_000));
        assert_eq!(m.run.retries, Some(3));
        assert_eq!(m.jobs.len(), 2);
        assert_eq!(m.jobs[0].name, "sp02");
        assert_eq!(m.jobs[0].kind, JobKind::Check);
        assert_eq!(m.jobs[0].script, Path::new("/work/ota.csp"));
        assert_eq!(m.jobs[0].assertion.as_deref(), Some("SP02"));
        assert_eq!(m.jobs[1].kind, JobKind::Conform);
        assert_eq!(m.jobs[1].corpus.as_deref(), Some(Path::new("/work/traces")));
        assert_eq!(m.jobs[1].timeout_ms, Some(500));
        let chaos = m.chaos.unwrap();
        assert_eq!(
            (chaos.seed, chaos.transient_attempts, chaos.every_nth),
            (99, 2, 3)
        );
    }

    #[test]
    fn strict_validation_rejects_mistakes() {
        let base = Path::new(".");
        let cases: &[(&str, &str)] = &[
            ("[run]\nthreads = 2\n", "declares no `[[job]]`"),
            ("[[job]]\nscript = \"a.csp\"\n", "missing `name`"),
            ("[[job]]\nname = \"a\"\n", "missing `script`"),
            (
                "[[job]]\nname = \"a\"\nkind = \"conform\"\nscript = \"a.csp\"\n",
                "missing `corpus`",
            ),
            (
                "[[job]]\nname = \"a\"\nscript = \"a.csp\"\n[[job]]\nname = \"a\"\nscript = \"a.csp\"\n",
                "duplicate job name",
            ),
            (
                "[[job]]\nname = \"a\"\nscript = \"a.csp\"\nkind = \"fuzz\"\n",
                "unknown job kind `fuzz`",
            ),
            ("[[job]]\nname = \"a\"\nscript = \"a.csp\"\nfrobnicate = 1\n", "unknown `[[job]]` key"),
            ("[nope]\n", "unknown section"),
            ("threads = 2\n", "outside any section"),
            ("[run]\nthreads = \"two\"\n", "expects an integer"),
            ("[run]\nthreads = -1\n", "non-negative integer"),
        ];
        for (src, want) in cases {
            let got = Manifest::parse(src, base).unwrap_err().to_string();
            assert!(got.contains(want), "source {src:?}: {got}");
        }
    }

    #[test]
    fn comments_respect_strings() {
        let src = "[[job]]\nname = \"a#b\" # trailing\nscript = \"x.csp\"\n";
        let m = Manifest::parse(src, Path::new(".")).unwrap();
        assert_eq!(m.jobs[0].name, "a#b");
    }
}
