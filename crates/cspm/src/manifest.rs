//! `jobs.toml` manifests for `autocsp run`.
//!
//! A manifest names a batch of checking jobs — refinement/property check
//! runs, trace-conformance sweeps, semantic analyses — to be executed by
//! `autocsp run` or submitted to `autocsp serve` (both in the `service`
//! crate). The format is a small TOML subset, read line by line:
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

impl Manifest {
    /// Parse manifest text; `base_dir` anchors the relative paths inside
    /// it (pass the manifest file's directory).
    ///
    /// # Errors
    ///
    /// [`CspmError::Parse`] (with the offending line) for malformed
    /// lines, unknown sections/keys/kinds, duplicate or missing job
    /// names, or a `conform` job without a corpus.
    pub fn parse(source: &str, base_dir: &Path) -> Result<Manifest, CspmError> {
        Parser {
            base_dir,
            manifest: Manifest {
                run: RunSettings::default(),
                jobs: Vec::new(),
                chaos: None,
            },
        }
        .parse(source)
    }
}

enum Section {
    Top,
    Run,
    Job,
    Chaos,
}

struct Parser<'a> {
    base_dir: &'a Path,
    manifest: Manifest,
}

fn err(line: u32, message: impl Into<String>) -> CspmError {
    CspmError::Parse {
        pos: Pos { line, col: 1 },
        message: message.into(),
    }
}

impl Parser<'_> {
    fn parse(mut self, source: &str) -> Result<Manifest, CspmError> {
        let mut section = Section::Top;
        for (i, raw) in source.lines().enumerate() {
            let lineno = u32::try_from(i + 1).unwrap_or(u32::MAX);
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                match header.trim() {
                    "job" => {
                        self.finish_job(lineno)?;
                        self.manifest.jobs.push(JobSpec {
                            name: String::new(),
                            kind: JobKind::Check,
                            script: PathBuf::new(),
                            spec: None,
                            corpus: None,
                            assertion: None,
                            threads: None,
                            max_states: None,
                            timeout_ms: None,
                        });
                        section = Section::Job;
                    }
                    other => {
                        return Err(err(lineno, format!("unknown array section `[[{other}]]`")))
                    }
                }
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                self.finish_job(lineno)?;
                section = match header.trim() {
                    "run" => Section::Run,
                    "chaos" => {
                        self.manifest.chaos = Some(ChaosSpec {
                            seed: 0,
                            transient_attempts: 1,
                            every_nth: 1,
                        });
                        Section::Chaos
                    }
                    other => return Err(err(lineno, format!("unknown section `[{other}]`"))),
                };
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
            };
            let key = key.trim();
            let value = Value::parse(value.trim(), lineno)?;
            match section {
                Section::Top => {
                    return Err(err(
                        lineno,
                        "key outside any section; start with `[run]` or `[[job]]`",
                    ))
                }
                Section::Run => self.run_key(key, &value, lineno)?,
                Section::Job => self.job_key_line(key, &value, lineno)?,
                Section::Chaos => self.chaos_key(key, &value, lineno)?,
            }
        }
        let last = u32::try_from(source.lines().count()).unwrap_or(u32::MAX);
        self.finish_job(last)?;
        if self.manifest.jobs.is_empty() {
            return Err(err(last, "manifest declares no `[[job]]`"));
        }
        Ok(self.manifest)
    }

    /// Validate the job currently being filled in, if any.
    fn finish_job(&mut self, lineno: u32) -> Result<(), CspmError> {
        let Some(job) = self.manifest.jobs.last() else {
            return Ok(());
        };
        if job.name.is_empty() {
            return Err(err(lineno, "job is missing `name`"));
        }
        if job.script.as_os_str().is_empty() {
            return Err(err(
                lineno,
                format!("job `{}` is missing `script`", job.name),
            ));
        }
        if job.kind == JobKind::Conform && job.corpus.is_none() {
            return Err(err(
                lineno,
                format!("conform job `{}` is missing `corpus`", job.name),
            ));
        }
        let name = &job.name;
        if self
            .manifest
            .jobs
            .iter()
            .filter(|j| &j.name == name)
            .count()
            > 1
        {
            return Err(err(lineno, format!("duplicate job name `{name}`")));
        }
        Ok(())
    }

    fn run_key(&mut self, key: &str, value: &Value, lineno: u32) -> Result<(), CspmError> {
        let run = &mut self.manifest.run;
        match key {
            "threads" => run.threads = Some(value.usize(lineno, key)?),
            "max_states" => run.max_states = Some(value.u64(lineno, key)?),
            "timeout_ms" => run.timeout_ms = Some(value.u64(lineno, key)?),
            "run_timeout_ms" => run.run_timeout_ms = Some(value.u64(lineno, key)?),
            "retries" => run.retries = Some(value.u32(lineno, key)?),
            "retry_base_ms" => run.retry_base_ms = Some(value.u64(lineno, key)?),
            "retry_max_ms" => run.retry_max_ms = Some(value.u64(lineno, key)?),
            "retry_seed" => run.retry_seed = Some(value.u64(lineno, key)?),
            other => return Err(err(lineno, format!("unknown `[run]` key `{other}`"))),
        }
        Ok(())
    }

    fn job_key_line(&mut self, key: &str, value: &Value, lineno: u32) -> Result<(), CspmError> {
        let base = self.base_dir;
        let job = self
            .manifest
            .jobs
            .last_mut()
            .expect("Section::Job implies a job");
        match key {
            "name" => job.name = value.string(lineno, key)?.to_string(),
            "kind" => {
                let raw = value.string(lineno, key)?;
                job.kind = JobKind::parse(raw).ok_or_else(|| {
                    err(
                        lineno,
                        format!("unknown job kind `{raw}` (expected check, conform or analyze)"),
                    )
                })?;
            }
            "script" => job.script = base.join(value.string(lineno, key)?),
            "spec" => job.spec = Some(value.string(lineno, key)?.to_string()),
            "corpus" => job.corpus = Some(base.join(value.string(lineno, key)?)),
            "assertion" => job.assertion = Some(value.string(lineno, key)?.to_string()),
            "threads" => job.threads = Some(value.usize(lineno, key)?),
            "max_states" => job.max_states = Some(value.u64(lineno, key)?),
            "timeout_ms" => job.timeout_ms = Some(value.u64(lineno, key)?),
            other => return Err(err(lineno, format!("unknown `[[job]]` key `{other}`"))),
        }
        Ok(())
    }

    fn chaos_key(&mut self, key: &str, value: &Value, lineno: u32) -> Result<(), CspmError> {
        let chaos = self
            .manifest
            .chaos
            .as_mut()
            .expect("Section::Chaos implies chaos");
        match key {
            "seed" => chaos.seed = value.u64(lineno, key)?,
            "transient_attempts" => chaos.transient_attempts = value.u32(lineno, key)?,
            "every_nth" => chaos.every_nth = value.u64(lineno, key)?,
            other => return Err(err(lineno, format!("unknown `[chaos]` key `{other}`"))),
        }
        Ok(())
    }
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

enum Value {
    Str(String),
    Int(u64),
}

impl Value {
    fn parse(raw: &str, lineno: u32) -> Result<Value, CspmError> {
        if let Some(body) = raw.strip_prefix('"') {
            let Some(body) = body.strip_suffix('"') else {
                return Err(err(lineno, format!("unterminated string `{raw}`")));
            };
            if body.contains('"') {
                return Err(err(lineno, format!("stray quote inside string `{raw}`")));
            }
            return Ok(Value::Str(body.to_string()));
        }
        match raw.replace('_', "").parse::<u64>() {
            Ok(n) => Ok(Value::Int(n)),
            Err(_) => Err(err(
                lineno,
                format!("expected a quoted string or a non-negative integer, got `{raw}`"),
            )),
        }
    }

    fn string(&self, lineno: u32, key: &str) -> Result<&str, CspmError> {
        match self {
            Value::Str(s) => Ok(s),
            Value::Int(_) => Err(err(lineno, format!("`{key}` expects a quoted string"))),
        }
    }

    fn u64(&self, lineno: u32, key: &str) -> Result<u64, CspmError> {
        match self {
            Value::Int(n) => Ok(*n),
            Value::Str(_) => Err(err(lineno, format!("`{key}` expects an integer"))),
        }
    }

    fn u32(&self, lineno: u32, key: &str) -> Result<u32, CspmError> {
        u32::try_from(self.u64(lineno, key)?)
            .map_err(|_| err(lineno, format!("`{key}` does not fit in 32 bits")))
    }

    fn usize(&self, lineno: u32, key: &str) -> Result<usize, CspmError> {
        usize::try_from(self.u64(lineno, key)?)
            .map_err(|_| err(lineno, format!("`{key}` does not fit in usize")))
    }
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
