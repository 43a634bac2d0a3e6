//! Job execution: the one way a job runs.
//!
//! An [`Executor`] runs [`ResolvedJob`]s. Each service worker owns one,
//! and so does `autocsp run`, which drives it under the in-process
//! [`crate::supervisor::Supervisor`]; a batch therefore prints the same
//! verdict lines whichever way it runs. `autocsp check`, `conform` and
//! `analyze` run one job each on an executor too: [`Executor::check`],
//! [`Executor::conform`] and [`Executor::report`] hand back the loaded
//! script with what the engine said, and each caller renders that its own
//! way. [`Executor::run`] renders it as a job's verdict lines; an analyze
//! job there, like `lint` and the analysis before `check`, runs only
//! [`Executor::analyze`], the findings without the report.
//!
//! Verdict lines name no host paths: an analysis reports only its
//! counts, and a trace without an id is labelled `<file name>:<line>`.
//! Job ids are content keys ([`job_content_key`]) that fold in file
//! names and bytes, not paths, so a deduplicated verdict must read the
//! same for every client that shares it.
//!
//! An executor outlives its jobs, so it re-reads a job's script on every
//! run and reuses the script it loaded last only while the bytes on disk
//! are unchanged: a script edited in place is checked as it now reads. A
//! check job that names an `assertion` checks only the assertions it
//! matches.
//!
//! The executor's [`fdrlite::ModelStore`] attaches the cache directory
//! with [`fdrlite::ResumePolicy::Auto`] by default: a check job
//! re-dispatched after a worker death picks up the dead worker's
//! checkpoint frontier transparently and continues to the verdict the
//! undisturbed run would have reached.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

use diag::{Diagnostic, Severity};
use faults::batch::BatchReport;
use faults::conformance::ConformanceVerdict;
use faults::storage::TransientJobFaults;
use fdrlite::supervisor::{JobError, JobReport, JobStatus};
use fdrlite::{Checker, PersistConfig, PersistentCache, ResumePolicy};

use crate::ResolvedJob;

/// A loaded CSPm script, shared by every job that references it while
/// its source stays the same.
#[derive(Debug)]
pub struct Bundle {
    /// The script's text.
    pub source: String,
    /// The parsed module.
    pub script: cspm::Script,
    /// The elaborated script the engines check.
    pub loaded: cspm::LoadedScript,
}

/// Why a job produced no result. Its [`fmt::Display`] is the bare cause.
#[derive(Debug)]
pub enum ExecError {
    /// The script could not be read; the message names its path.
    Read(String),
    /// The script does not parse.
    Parse {
        /// The script's text.
        source: String,
        /// The parse error, with its position.
        error: cspm::CspmError,
    },
    /// The script parses but does not elaborate.
    Load {
        /// The script's text.
        source: String,
        /// The elaboration error.
        error: cspm::CspmError,
    },
    /// The job cannot run as given: no matching assertion, no spec or
    /// corpus, or an engine error.
    Job(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Read(message) | ExecError::Job(message) => f.write_str(message),
            ExecError::Parse { error, .. } | ExecError::Load { error, .. } => error.fmt(f),
        }
    }
}

/// What [`Executor::conform`] found besides the script.
#[derive(Debug)]
pub struct Conformance {
    /// Per-trace verdicts in ingest order, plus the run's stats.
    pub report: BatchReport,
    /// Where each trace came from, in verdict order.
    pub origins: Vec<TraceOrigin>,
    /// Each corpus source's parse findings, in source order.
    pub findings: Vec<Vec<Diagnostic>>,
}

/// Where one ingested trace came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOrigin {
    /// The trace's id, else `<source label>:<line>`.
    pub label: String,
    /// Index of its source.
    pub source: usize,
    /// 1-based line in that source.
    pub line: u32,
}

/// How an [`Executor`] attaches to persistent storage.
#[derive(Debug, Clone, Default)]
pub struct ExecConfig {
    /// Shared on-disk cache directory (compiled models + checkpoints).
    /// `None` runs fully in memory — no checkpoint handoff, only re-runs.
    pub cache_dir: Option<PathBuf>,
    /// Checkpoint the exploration frontier every N states, so a killed
    /// worker loses at most N states of work.
    pub checkpoint_every: Option<u64>,
}

/// What the last [`Executor::run`] left for a human reader (stderr),
/// never part of its verdict lines.
#[derive(Debug, Default)]
pub struct Notes {
    /// An analyze job's findings, rendered against the script source.
    pub findings: String,
    /// Resume tokens of checks whose budget ran out after a checkpoint.
    pub resume_tokens: Vec<String>,
}

/// Executes jobs. Owns the model store, checker and script cache; an
/// unchanged script referenced by several jobs loads once.
pub struct Executor {
    store: fdrlite::ModelStore,
    cache: Option<Arc<PersistentCache>>,
    checker: Checker,
    /// The last script loaded from each path.
    bundles: HashMap<PathBuf, Rc<Bundle>>,
    notes: Notes,
}

impl Executor {
    /// Build an executor, attaching the shared cache when configured,
    /// with checkpoint resume on ([`ResumePolicy::Auto`]).
    ///
    /// # Errors
    ///
    /// The cache directory could not be created or opened.
    pub fn new(config: &ExecConfig) -> Result<Executor, String> {
        Executor::with_resume(config, ResumePolicy::Auto)
    }

    /// [`Executor::new`] with an explicit checkpoint-resume policy.
    ///
    /// # Errors
    ///
    /// The cache directory could not be created or opened.
    pub fn with_resume(config: &ExecConfig, resume: ResumePolicy) -> Result<Executor, String> {
        let store = fdrlite::ModelStore::new();
        let cache = match &config.cache_dir {
            Some(dir) => {
                let cache = Arc::new(PersistentCache::open(dir).map_err(|e| {
                    format!("cannot open cache directory `{}`: {e}", dir.display())
                })?);
                store.set_persist(PersistConfig {
                    cache: Arc::clone(&cache),
                    checkpoint_every: config.checkpoint_every,
                    resume,
                });
                Some(cache)
            }
            None => None,
        };
        Ok(Executor {
            store,
            cache,
            checker: Checker::new(),
            bundles: HashMap::new(),
            notes: Notes::default(),
        })
    }

    /// The attached on-disk cache, if any: for fault hooks, counters and
    /// its diagnostics.
    pub fn cache(&self) -> Option<&Arc<PersistentCache>> {
        self.cache.as_ref()
    }

    /// The model store every job compiles through: for its counters.
    pub fn store(&self) -> &fdrlite::ModelStore {
        &self.store
    }

    /// Take the notes of the last [`Executor::run`].
    pub fn take_notes(&mut self) -> Notes {
        std::mem::take(&mut self.notes)
    }

    /// The script at `path` as it reads now: the memoised bundle when its
    /// source equals the bytes on disk, else a fresh load that replaces it.
    ///
    /// # Errors
    ///
    /// [`ExecError::Read`], [`ExecError::Parse`] or [`ExecError::Load`].
    pub fn load(&mut self, path: &Path) -> Result<Rc<Bundle>, ExecError> {
        let source = fs::read_to_string(path).map_err(|e| {
            self.bundles.remove(path);
            ExecError::Read(format!("cannot read `{}`: {e}", path.display()))
        })?;
        if let Some(bundle) = self.bundles.get(path).filter(|b| b.source == source) {
            return Ok(Rc::clone(bundle));
        }
        self.bundles.remove(path);
        let script = match cspm::Script::parse(&source) {
            Ok(script) => script,
            Err(error) => return Err(ExecError::Parse { source, error }),
        };
        let loaded = match script.load() {
            Ok(loaded) => loaded,
            Err(error) => return Err(ExecError::Load { source, error }),
        };
        let bundle = Rc::new(Bundle {
            source,
            script,
            loaded,
        });
        self.bundles.insert(path.to_path_buf(), Rc::clone(&bundle));
        Ok(bundle)
    }

    /// Check the job's assertions (those matching its `assertion` filter,
    /// if any), in script order, each with its [`fdrlite::CheckStats`].
    ///
    /// # Errors
    ///
    /// The script did not load, no assertion matched, or the engine
    /// failed.
    pub fn check(
        &mut self,
        job: &ResolvedJob,
    ) -> Result<(Rc<Bundle>, Vec<cspm::AssertionResult>), ExecError> {
        let bundle = self.load(&job.script)?;
        let options = cspm::CheckOptions {
            threads: job.threads,
            collect_stats: true,
            max_states: job.max_states,
            max_wall_ms: job.timeout_ms,
        };
        let results = bundle
            .loaded
            .assertions()
            .iter()
            .filter(|a| {
                job.assertion
                    .as_deref()
                    .is_none_or(|filter| a.description.contains(filter))
            })
            .map(|a| {
                bundle
                    .loaded
                    .check_assertion(a, &self.checker, &options, &self.store)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| ExecError::Job(e.to_string()))?;
        if results.is_empty() {
            return Err(ExecError::Job(match &job.assertion {
                Some(f) => format!("no assertion matches filter `{f}`"),
                None => "script contains no `assert` declarations".to_owned(),
            }));
        }
        Ok((bundle, results))
    }

    /// Check every trace of `sources`, `(label, JSONL text)` pairs in
    /// order, against the job's spec in one batch. A trace without an id
    /// is labelled `<source label>:<line>`.
    ///
    /// # Errors
    ///
    /// The job names no spec, the script did not load, or the spec is
    /// not one of its processes.
    pub fn conform(
        &mut self,
        job: &ResolvedJob,
        sources: &[(String, String)],
    ) -> Result<(Rc<Bundle>, Conformance), ExecError> {
        let spec = job_spec(job)?;
        let bundle = self.load(&job.script)?;
        let mut run =
            faults::batch::BatchRun::new(&bundle.loaded, spec, &self.checker, &self.store)
                .map_err(|e| ExecError::Job(e.to_string()))?;
        // Streaming ingest: each source parses, merges into the trie, and
        // drops its trace vector before the next is parsed.
        let mut origins = Vec::new();
        let mut findings = Vec::new();
        for (source, (label, text)) in sources.iter().enumerate() {
            let (traces, diagnostics) = faults::batch::parse_corpus(text);
            for (line, trace) in traces {
                run.push(&trace.events);
                origins.push(TraceOrigin {
                    label: trace.id.unwrap_or_else(|| format!("{label}:{line}")),
                    source,
                    line,
                });
            }
            findings.push(diagnostics);
        }
        let conformance = Conformance {
            report: run.finish(job.threads),
            origins,
            findings,
        };
        Ok((bundle, conformance))
    }

    /// The semantic findings on the job's script, predictions judged
    /// against the job's `max_states`: all that `lint`, `check` and an
    /// analyze job print. Runs [`cspm::analyze::analyze_script`] in the
    /// executor's store, so a check that follows reuses its compiles.
    ///
    /// # Errors
    ///
    /// The script did not load.
    pub fn analyze(
        &mut self,
        job: &ResolvedJob,
    ) -> Result<(Rc<Bundle>, cspm::analyze::ScriptAnalysis), ExecError> {
        let bundle = self.load(&job.script)?;
        let analysis = cspm::analyze::analyze_script(
            bundle.script.module(),
            &bundle.loaded,
            &self.checker,
            &self.store,
            job.max_states,
        );
        Ok((bundle, analysis))
    }

    /// [`Executor::analyze`]'s findings plus the report `autocsp analyze`
    /// prints: alphabets, graph classification and state-space
    /// predictions ([`cspm::analyze::report_script`]).
    ///
    /// # Errors
    ///
    /// The script did not load.
    pub fn report(
        &mut self,
        job: &ResolvedJob,
    ) -> Result<(Rc<Bundle>, cspm::analyze::ScriptReport), ExecError> {
        let bundle = self.load(&job.script)?;
        let report = cspm::analyze::report_script(
            bundle.script.module(),
            &bundle.loaded,
            &self.checker,
            &self.store,
            job.max_states,
        );
        Ok((bundle, report))
    }

    /// Run one job attempt to a verdict.
    ///
    /// # Errors
    ///
    /// [`JobError::Transient`] for failures worth retrying (chaos-plan
    /// injections), [`JobError::Permanent`] for failures inherent to the
    /// job (unreadable script, no matching assertion).
    pub fn run(&mut self, job: &ResolvedJob, attempt: u32) -> Result<JobReport, JobError> {
        self.notes = Notes::default();
        if let Some(c) = &job.chaos {
            let plan = TransientJobFaults::new(c.seed, c.transient_attempts, c.every_nth);
            if plan.should_fail(&job.name, attempt) {
                return Err(JobError::Transient(
                    "injected transient fault (chaos plan)".to_owned(),
                ));
            }
        }
        let report = match job.kind {
            cspm::manifest::JobKind::Check => self.run_check(job),
            cspm::manifest::JobKind::Conform => self.run_conform(job),
            cspm::manifest::JobKind::Analyze => self.run_analyze(job),
        };
        report.map_err(|e| {
            JobError::Permanent(match e {
                ExecError::Parse { .. } | ExecError::Load { .. } => {
                    format!("{}: {e}", job.script.display())
                }
                ExecError::Read(_) | ExecError::Job(_) => e.to_string(),
            })
        })
    }

    fn run_check(&mut self, job: &ResolvedJob) -> Result<JobReport, ExecError> {
        let (bundle, results) = self.check(job)?;
        let mut lines = Vec::new();
        let (mut refuted, mut inconclusive, mut interrupted) = (false, false, false);
        for r in results {
            if let Some(cex) = r.verdict.counterexample() {
                refuted = true;
                lines.push(format!("assert {}  ...  FAIL", r.description));
                lines.push(format!("  {}", cex.display(bundle.loaded.alphabet())));
            } else if let Some(inc) = r.verdict.inconclusive() {
                inconclusive = true;
                // No budget detail: verdict lines must be identical
                // between disturbed and undisturbed runs.
                lines.push(format!("assert {}  ...  INCONCLUSIVE", r.description));
                if inc.reason == fdrlite::BudgetReason::Interrupted {
                    interrupted = true;
                }
                self.notes.resume_tokens.extend(inc.resume.clone());
            } else {
                lines.push(format!("assert {}  ...  PASS", r.description));
            }
        }
        Ok(job_report(lines, refuted, inconclusive, interrupted))
    }

    fn run_conform(&mut self, job: &ResolvedJob) -> Result<JobReport, ExecError> {
        // A job's errors in the order it meets them: script, spec, corpus.
        self.load(&job.script)?;
        job_spec(job)?;
        let dir = job
            .corpus
            .as_deref()
            .ok_or_else(|| ExecError::Job("conform job needs `corpus = \"DIR\"`".into()))?;
        let sources = read_corpus_dir(dir).map_err(ExecError::Job)?;
        let (bundle, conformance) = self.conform(job, &sources)?;
        let report = &conformance.report;
        let mut lines = Vec::new();
        let (mut inconclusive, mut interrupted) = (false, false);
        for (verdict, origin) in report.verdicts.iter().zip(&conformance.origins) {
            let label = &origin.label;
            match verdict {
                ConformanceVerdict::Conformant => {}
                ConformanceVerdict::Refuted(cex) => {
                    lines.push(format!("trace {label}  ...  FAIL"));
                    lines.push(format!("  {}", cex.display(bundle.loaded.alphabet())));
                }
                ConformanceVerdict::UnknownEvent { event, index } => {
                    lines.push(format!("trace {label}  ...  FAIL"));
                    lines.push(format!(
                        "  (event #{index} `{event}` is not in the model's alphabet)"
                    ));
                }
                ConformanceVerdict::Inconclusive(inc) => {
                    inconclusive = true;
                    lines.push(format!("trace {label}  ...  INCONCLUSIVE"));
                    if inc.reason == fdrlite::BudgetReason::Interrupted {
                        interrupted = true;
                    }
                }
            }
        }
        let refuted = report.stats.refuted;
        let unknown = report.stats.unknown_event;
        let failed = refuted + unknown > 0;
        let outcome = if failed { "FAIL" } else { "PASS" };
        lines.push(format!(
            "conformance {} [T= corpus  ...  {outcome}: {} trace(s), \
             {} conformant, {refuted} refuted, {unknown} unknown-event",
            report.spec, report.stats.traces, report.stats.conformant
        ));
        Ok(job_report(lines, failed, inconclusive, interrupted))
    }

    fn run_analyze(&mut self, job: &ResolvedJob) -> Result<JobReport, ExecError> {
        let (bundle, analysis) = self.analyze(job)?;
        let count = |severity: Severity| {
            analysis
                .diagnostics
                .iter()
                .filter(|d| d.severity == severity)
                .count()
        };
        let (errors, warnings) = (count(Severity::Error), count(Severity::Warning));
        let script_label = job.script.display().to_string();
        for d in &analysis.diagnostics {
            self.notes
                .findings
                .push_str(&d.render(&script_label, &bundle.source));
        }
        let line = format!("analyze: {errors} error(s), {warnings} warning(s)");
        Ok(job_report(vec![line], errors > 0, false, false))
    }
}

/// A job's report: refuted over inconclusive over passed.
fn job_report(
    lines: Vec<String>,
    refuted: bool,
    inconclusive: bool,
    interrupted: bool,
) -> JobReport {
    let status = if refuted {
        JobStatus::Refuted
    } else if inconclusive {
        JobStatus::Inconclusive
    } else {
        JobStatus::Passed
    };
    JobReport {
        status,
        lines,
        interrupted,
    }
}

fn job_spec(job: &ResolvedJob) -> Result<&str, ExecError> {
    job.spec
        .as_deref()
        .ok_or_else(|| ExecError::Job("conform job needs `spec = \"NAME\"`".into()))
}

/// The `*.jsonl` files directly under `dir`, sorted by name.
///
/// # Errors
///
/// The directory is unreadable.
pub fn corpus_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// A conform job's corpus directory as [`corpus_files`] lists it, as
/// `(file name, text)` pairs.
///
/// # Errors
///
/// The directory (or a file in it) is unreadable, or holds no corpora.
pub fn read_corpus_dir(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let paths = corpus_files(dir)
        .map_err(|e| format!("cannot read corpus directory `{}`: {e}", dir.display()))?;
    let mut out = Vec::new();
    for p in paths {
        let text =
            fs::read_to_string(&p).map_err(|e| format!("cannot read `{}`: {e}", p.display()))?;
        let name = p
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        out.push((name, text));
    }
    if out.is_empty() {
        return Err(format!(
            "corpus directory `{}` has no `.jsonl` files",
            dir.display()
        ));
    }
    Ok(out)
}

/// Fold everything that shapes a job's verdict into its stable content
/// key: the job definition with its resolved budgets, the script's
/// bytes, and (for conform jobs) every corpus file's name and bytes.
/// Identical submissions — from the same client or different ones —
/// collapse to the same key, which is the service-level half of
/// deduplication (the engine-level half is `fdrlite`'s `CheckId` in the
/// shared cache). The journal replays by this key, so an edited script
/// or corpus, or a changed budget, runs again.
pub fn job_content_key(job: &ResolvedJob) -> u64 {
    let mut buf = Vec::new();
    let mut fold = |tag: &str, value: &str| {
        buf.extend_from_slice(tag.as_bytes());
        buf.push(0x1f);
        buf.extend_from_slice(value.as_bytes());
        buf.push(0x1e);
    };
    fold("name", &job.name);
    fold("kind", job.kind.label());
    match fs::read_to_string(&job.script) {
        Ok(source) => fold("script", &source),
        Err(e) => fold("script-error", &e.to_string()),
    }
    fold("spec", job.spec.as_deref().unwrap_or(""));
    fold("assertion", job.assertion.as_deref().unwrap_or(""));
    if let Some(dir) = &job.corpus {
        // File names, not paths: relocated but identical corpora still
        // deduplicate.
        match read_corpus_dir(dir) {
            Ok(corpus) => {
                for (name, text) in &corpus {
                    fold("corpus-file", name);
                    fold("corpus-text", text);
                }
            }
            Err(e) => fold("corpus-error", &e),
        }
    }
    fold("threads", &job.threads.to_string());
    fold(
        "max_states",
        &job.max_states.map_or_else(String::new, |v| v.to_string()),
    );
    fold(
        "timeout_ms",
        &job.timeout_ms.map_or_else(String::new, |v| v.to_string()),
    );
    if let Some(c) = &job.chaos {
        fold(
            "chaos",
            &format!("{} {} {}", c.seed, c.transient_attempts, c.every_nth),
        );
    }
    fdrlite::persist::fnv1a64(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_script(dir: &Path, name: &str, text: &str) -> PathBuf {
        let path = dir.join(name);
        fs::write(&path, text).unwrap();
        path
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "svc-exec-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    const SCRIPT: &str = "
channel a, b
SPEC = a -> SPEC
IMPL = a -> IMPL
BAD = a -> b -> BAD
assert SPEC [T= IMPL
assert SPEC [T= BAD
";

    #[test]
    fn check_jobs_report_run_identical_lines() {
        let dir = tmpdir("check");
        let script = write_script(&dir, "m.csp", SCRIPT);
        let out = fresh_run(&check_job(&script, None));
        assert_eq!(out.status, JobStatus::Refuted);
        assert!(out.lines[0].contains("PASS"));
        assert!(out.lines[1].contains("FAIL"));
        assert!(!out.interrupted);
    }

    #[test]
    fn assertion_filter_and_missing_assertions_are_permanent() {
        let dir = tmpdir("filter");
        let script = write_script(&dir, "m.csp", SCRIPT);
        let mut exec = Executor::new(&ExecConfig::default()).unwrap();
        let mut job = check_job(&script, Some("no-such-assert"));
        assert!(matches!(exec.run(&job, 1), Err(JobError::Permanent(_))));
        job.assertion = Some("IMPL".into());
        assert_eq!(exec.run(&job, 1).unwrap().status, JobStatus::Passed);
    }

    fn check_job(script: &Path, assertion: Option<&str>) -> ResolvedJob {
        ResolvedJob {
            name: "j".into(),
            kind: cspm::manifest::JobKind::Check,
            script: script.to_path_buf(),
            spec: None,
            corpus: None,
            assertion: assertion.map(str::to_owned),
            threads: 1,
            max_states: None,
            timeout_ms: None,
            chaos: None,
        }
    }

    fn fresh_run(job: &ResolvedJob) -> JobReport {
        Executor::new(&ExecConfig::default())
            .unwrap()
            .run(job, 1)
            .unwrap()
    }

    #[test]
    fn a_script_edited_in_place_is_checked_as_it_now_reads() {
        let dir = tmpdir("edited");
        let script = write_script(&dir, "m.csp", SCRIPT);
        let job = check_job(&script, Some("IMPL"));
        let mut exec = Executor::new(&ExecConfig::default()).unwrap();
        assert_eq!(exec.run(&job, 1).unwrap().status, JobStatus::Passed);

        fs::write(
            &script,
            SCRIPT.replace("IMPL = a -> IMPL", "IMPL = b -> IMPL"),
        )
        .unwrap();
        let edited = exec.run(&job, 1).unwrap();
        assert_eq!(edited.status, JobStatus::Refuted, "{edited:?}");
        assert_eq!(edited, fresh_run(&job));
        assert_eq!(exec.bundles.len(), 1, "one bundle per path");
    }

    #[test]
    fn a_script_fixed_after_a_parse_error_loads_again() {
        let dir = tmpdir("fixed");
        let script = write_script(&dir, "m.csp", "channel a\nP = a ->\n");
        let job = check_job(&script, Some("IMPL"));
        let mut exec = Executor::new(&ExecConfig::default()).unwrap();
        assert!(matches!(exec.run(&job, 1), Err(JobError::Permanent(_))));

        fs::write(&script, SCRIPT).unwrap();
        let fixed = exec.run(&job, 1).unwrap();
        assert_eq!(fixed.status, JobStatus::Passed, "{fixed:?}");
        assert_eq!(fixed, fresh_run(&job));
    }

    #[test]
    fn a_filtered_job_checks_only_its_own_assertion() {
        const DECLS: &str = "
channel a, b
SPEC1 = a -> SPEC1
IMPL1 = a -> IMPL1
SPEC2 = b -> SPEC2
IMPL2 = b -> a -> IMPL2
";
        let dir = tmpdir("filter-first");
        let both = write_script(
            &dir,
            "both.csp",
            &format!("{DECLS}assert SPEC1 [T= IMPL1\nassert SPEC2 [T= IMPL2\n"),
        );
        let only = write_script(
            &dir,
            "only.csp",
            &format!("{DECLS}assert SPEC2 [T= IMPL2\n"),
        );

        let mut exec = Executor::new(&ExecConfig::default()).unwrap();
        let filtered = exec.run(&check_job(&both, Some("IMPL2")), 1).unwrap();
        let unfiltered = fresh_run(&check_job(&both, None));
        assert_eq!(filtered.status, JobStatus::Refuted);
        assert_eq!(unfiltered.lines.len(), 3, "{unfiltered:?}");
        assert_eq!(filtered.lines, unfiltered.lines[1..]);

        let mut alone = Executor::new(&ExecConfig::default()).unwrap();
        alone.run(&check_job(&only, None), 1).unwrap();
        assert_eq!(exec.store.misses(), alone.store.misses());
    }

    #[test]
    fn chaos_plan_fails_leading_attempts_transiently() {
        let dir = tmpdir("chaos");
        let script = write_script(&dir, "m.csp", SCRIPT);
        let mut exec = Executor::new(&ExecConfig::default()).unwrap();
        let mut job = ResolvedJob {
            chaos: Some(crate::ChaosCfg {
                seed: 0,
                transient_attempts: 2,
                every_nth: 1,
            }),
            ..check_job(&script, Some("IMPL"))
        };
        assert!(matches!(exec.run(&job, 1), Err(JobError::Transient(_))));
        assert!(matches!(exec.run(&job, 2), Err(JobError::Transient(_))));
        assert_eq!(exec.run(&job, 3).unwrap().status, JobStatus::Passed);
        job.chaos = None;
        assert_eq!(exec.run(&job, 1).unwrap().status, JobStatus::Passed);
    }

    #[test]
    fn content_keys_track_script_content_not_path() {
        let dir = tmpdir("key");
        let a = write_script(&dir, "a.csp", SCRIPT);
        let b = write_script(&dir, "b.csp", SCRIPT);
        let job = |script: &Path| check_job(script, None);
        assert_eq!(job_content_key(&job(&a)), job_content_key(&job(&b)));
        fs::write(&b, format!("{SCRIPT}\n-- changed")).unwrap();
        assert_ne!(job_content_key(&job(&a)), job_content_key(&job(&b)));
        let mut other = job(&a);
        other.max_states = Some(7);
        assert_ne!(job_content_key(&job(&a)), job_content_key(&other));
        let mut renamed = job(&a);
        renamed.name = "k".into();
        assert_ne!(job_content_key(&job(&a)), job_content_key(&renamed));

        // Conform jobs key on the corpus files' names and bytes, not on
        // the directory they sit in.
        let conform = |corpus: &Path| ResolvedJob {
            kind: cspm::manifest::JobKind::Conform,
            spec: Some("SPEC".into()),
            corpus: Some(corpus.to_path_buf()),
            ..job(&a)
        };
        let (one, two) = (dir.join("one"), dir.join("two"));
        for corpus in [&one, &two] {
            fs::create_dir_all(corpus).unwrap();
            fs::write(corpus.join("t.jsonl"), "[\"a\"]\n").unwrap();
        }
        let key = job_content_key(&conform(&one));
        assert_eq!(key, job_content_key(&conform(&two)));
        fs::write(two.join("t.jsonl"), "[\"b\"]\n").unwrap();
        assert_ne!(key, job_content_key(&conform(&two)), "corpus bytes");
        fs::rename(one.join("t.jsonl"), one.join("u.jsonl")).unwrap();
        assert_ne!(key, job_content_key(&conform(&one)), "corpus file names");
    }

    #[test]
    fn verdict_lines_name_no_paths() {
        let dir = tmpdir("paths");
        let script = write_script(&dir, "m.csp", SCRIPT);
        let corpus = dir.join("traces");
        fs::create_dir_all(&corpus).unwrap();
        fs::write(corpus.join("s.jsonl"), "[\"a\"]\n[\"b\"]\n").unwrap();
        let mut exec = Executor::new(&ExecConfig::default()).unwrap();
        let job = ResolvedJob {
            kind: cspm::manifest::JobKind::Analyze,
            ..check_job(&script, None)
        };
        let analyzed = exec.run(&job, 1).unwrap();
        assert_eq!(analyzed.lines, ["analyze: 0 error(s), 0 warning(s)"]);
        let conform = ResolvedJob {
            kind: cspm::manifest::JobKind::Conform,
            spec: Some("SPEC".into()),
            corpus: Some(corpus),
            ..job
        };
        let out = exec.run(&conform, 1).unwrap();
        assert_eq!(out.status, JobStatus::Refuted);
        assert_eq!(out.lines[0], "trace s.jsonl:2  ...  FAIL");
        let dir_text = dir.display().to_string();
        assert!(out.lines.iter().all(|l| !l.contains(&dir_text)), "{out:?}");
    }
}
