//! Supervised in-process execution of a batch of jobs (`autocsp run`).
//!
//! A [`Supervisor`] runs [`ResolvedJob`]s one after another with the
//! failure discipline a long unattended batch needs:
//!
//! * **Panic isolation.** A job that panics becomes a [`JobStatus::Failed`]
//!   result carrying the panic payload as a [`JOB_PANIC`] (`SUP501`)
//!   diagnostic; the remaining jobs still run. A panic can never produce a
//!   wrong verdict and can never take the whole run down.
//! * **Retry, for transient failures only.** A job may report
//!   [`JobError::Transient`] (the faults a chaos plan injects); the
//!   supervisor retries it under a bounded, deterministic
//!   exponential-backoff schedule ([`RetryPolicy`]). Cache trouble is not
//!   a job failure: a quarantined entry is recompiled, a cache write never
//!   takes `store.lock`, and the size-cap scan that does take it goes on
//!   unlocked after a bounded wait. [`JobError::Permanent`] and panics are
//!   never retried.
//! * **Budgets.** A per-run wall budget defers the jobs that did not get to
//!   run (they are *not* journaled, so a later `--resume` picks them up);
//!   per-job budgets are owned by the job itself and surface as ordinary
//!   [`JobStatus::Inconclusive`] results, exactly like a direct
//!   `autocsp check` run. A shutdown request
//!   ([`fdrlite::request_interrupt`], e.g. from a `SIGTERM` handler) defers
//!   all remaining jobs the same way.
//! * **A crash-safe journal.** Every terminal result is recorded in a
//!   [`ServiceJournal`] — the checking service's journal format — under
//!   the job's content id ([`exec::job_content_key`]). A run killed
//!   mid-flight and restarted with the same journal replays finished jobs
//!   *verbatim* — byte-identical verdict lines, no re-exploration — and
//!   re-runs every job whose script, corpus or budgets changed since.
//!
//! The service's [`crate::orchestrator::Orchestrator`] applies the same
//! rules across a worker farm; both run jobs on one
//! [`exec::Executor`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use diag::{Code, Diagnostic, Span};
use fdrlite::interrupt_requested;
use fdrlite::supervisor::{JobError, JobReport, JobStatus, RetryPolicy};

use crate::exec;
use crate::journal::{JournalEntry, ServiceJournal};
use crate::ResolvedJob;

/// `SUP501` — a job panicked; it is reported as `Failed` with the panic
/// payload preserved, and the rest of the run continues.
pub const JOB_PANIC: Code = Code("SUP501");
/// `SUP502` — a job failed transiently and is being retried (warning).
pub const TRANSIENT_RETRY: Code = Code("SUP502");
/// `SUP503` — a job kept failing transiently until its retry budget ran
/// out; it is reported as `Failed`.
pub const RETRIES_EXHAUSTED: Code = Code("SUP503");
/// `SUP504` — a job failed permanently (no retry); reported as `Failed`.
pub const JOB_FAILED: Code = Code("SUP504");
/// `SUP506` — the run's wall budget (or a shutdown request) deferred jobs
/// that had not started; re-run with `--resume` to complete them
/// (warning).
pub const RUN_BUDGET: Code = Code("SUP506");
/// `SUP510` — the job manifest could not be parsed or resolved.
pub const MANIFEST_ERROR: Code = Code("SUP510");

/// Per-attempt context handed to the job runner.
#[derive(Debug, Clone, Copy)]
pub struct JobCtx {
    /// 1-based attempt number (`> 1` only after transient retries).
    pub attempt: u32,
    /// Wall-clock milliseconds left in the run's overall budget, if one
    /// was set; jobs should clamp their own wall budget to this.
    pub remaining_ms: Option<u64>,
}

/// Knobs for a supervised run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SupervisorConfig {
    /// Retry schedule for transient failures.
    pub retry: RetryPolicy,
    /// Overall wall budget for the run, in milliseconds. Jobs that did not
    /// start before it expired are deferred (reported, not journaled).
    pub run_timeout_ms: Option<u64>,
}

/// The result of one supervised job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's name.
    pub name: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Attempts consumed.
    pub attempts: u32,
    /// Deterministic verdict lines for stdout.
    pub lines: Vec<String>,
    /// The failure message (`Failed` only).
    pub failure: Option<String>,
    /// `true` when this result was replayed from the journal rather than
    /// executed.
    pub replayed: bool,
}

/// The outcome of a whole supervised run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-job results, in manifest order (deferred jobs excluded).
    pub jobs: Vec<JobResult>,
    /// Names of jobs deferred by the run budget or a shutdown request —
    /// including a job cut *mid-check* by a shutdown (its per-check
    /// checkpoint lets `--resume` continue it).
    pub deferred: Vec<String>,
    /// Transient retries performed across the run.
    pub retries: u64,
    /// Diagnostics (SUP5xx, SRV603) accumulated across the run; render to
    /// stderr.
    pub diagnostics: Vec<Diagnostic>,
}

impl RunOutcome {
    /// `true` if any job ended `Failed` (infrastructure failure — exit
    /// code 4 in the CLI).
    pub fn any_failed(&self) -> bool {
        self.jobs.iter().any(|j| j.status == JobStatus::Failed)
    }

    /// `true` if any job ended `Refuted`.
    pub fn any_refuted(&self) -> bool {
        self.jobs.iter().any(|j| j.status == JobStatus::Refuted)
    }

    /// `true` if any job ended `Inconclusive`, or any job was deferred.
    pub fn any_inconclusive(&self) -> bool {
        !self.deferred.is_empty()
            || self
                .jobs
                .iter()
                .any(|j| j.status == JobStatus::Inconclusive)
    }
}

/// Runs jobs under panic isolation, retry and budget supervision.
#[derive(Debug, Default)]
pub struct Supervisor {
    config: SupervisorConfig,
}

impl Supervisor {
    /// A supervisor with the given configuration.
    pub fn new(config: SupervisorConfig) -> Supervisor {
        Supervisor { config }
    }

    /// Run `jobs` in order through `exec` (one call per attempt),
    /// replaying journaled results and journaling new terminal ones. See
    /// the module docs for the exact semantics.
    pub fn run<F>(
        &self,
        jobs: &[ResolvedJob],
        journal: &mut ServiceJournal,
        mut exec: F,
    ) -> RunOutcome
    where
        F: FnMut(&ResolvedJob, &JobCtx) -> Result<JobReport, JobError>,
    {
        let start = Instant::now();
        // Silence the default panic hook for the duration of the run: a
        // panicking job is caught and surfaced as a [`JOB_PANIC`]
        // diagnostic, so the hook's backtrace would only be noise.
        let saved_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut diags = Vec::new();
        let mut results = Vec::new();
        let mut deferred = Vec::new();
        let mut retries = 0_u64;
        let mut budget_noted = false;
        for job in jobs {
            let key = exec::job_content_key(job);
            if let Some(result) = journal.lookup(key).and_then(|e| replay(job, e)) {
                results.push(result);
                continue;
            }
            let remaining_ms = self.remaining_ms(start);
            let out_of_budget = remaining_ms == Some(0);
            if out_of_budget || interrupt_requested() {
                if !budget_noted {
                    budget_noted = true;
                    let why = if out_of_budget {
                        "run wall budget exhausted"
                    } else {
                        "shutdown requested"
                    };
                    diags.push(
                        Diagnostic::warning(
                            RUN_BUDGET,
                            Span::unknown(),
                            format!("{why}; deferring the remaining jobs"),
                        )
                        .with_note("re-run with `--resume` to complete them"),
                    );
                }
                deferred.push(job.name.clone());
                continue;
            }
            let (result, job_retries) = self.run_job(job, key, remaining_ms, &mut exec, &mut diags);
            retries += job_retries;
            let Some(result) = result else {
                // Interrupted mid-check: defer, don't journal — resume
                // continues from the per-check checkpoint.
                deferred.push(job.name.clone());
                continue;
            };
            let failed = result.status == JobStatus::Failed;
            let entry = JournalEntry {
                id: key,
                job: job.clone(),
                attempts: result.attempts,
                outcome: (!failed).then(|| JobReport {
                    status: result.status,
                    lines: result.lines.clone(),
                    interrupted: false,
                }),
                failure: result.failure.clone(),
            };
            if let Err(d) = journal.record(entry) {
                diags.push(d);
            }
            results.push(result);
        }
        std::panic::set_hook(saved_hook);
        RunOutcome {
            jobs: results,
            deferred,
            retries,
            diagnostics: diags,
        }
    }

    fn remaining_ms(&self, start: Instant) -> Option<u64> {
        self.config.run_timeout_ms.map(|budget| {
            let elapsed = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
            budget.saturating_sub(elapsed)
        })
    }

    /// Run one job to a terminal result (`Some`) or an interrupted
    /// non-result (`None`), retrying transient failures. Returns the
    /// result plus the number of retries consumed.
    fn run_job<F>(
        &self,
        job: &ResolvedJob,
        key: u64,
        remaining_ms: Option<u64>,
        exec: &mut F,
        diags: &mut Vec<Diagnostic>,
    ) -> (Option<JobResult>, u64)
    where
        F: FnMut(&ResolvedJob, &JobCtx) -> Result<JobReport, JobError>,
    {
        let name = &job.name;
        let mut attempt = 0_u32;
        let mut job_retries = 0_u64;
        loop {
            attempt += 1;
            let ctx = JobCtx {
                attempt,
                remaining_ms,
            };
            let caught = catch_unwind(AssertUnwindSafe(|| exec(job, &ctx)));
            let failure = match caught {
                Ok(Ok(report)) => {
                    if report.interrupted {
                        return (None, job_retries);
                    }
                    let result = JobResult {
                        name: name.clone(),
                        status: report.status,
                        attempts: attempt,
                        lines: report.lines,
                        failure: None,
                        replayed: false,
                    };
                    return (Some(result), job_retries);
                }
                Err(payload) => {
                    let message = panic_text(payload.as_ref());
                    diags.push(
                        Diagnostic::error(
                            JOB_PANIC,
                            Span::unknown(),
                            format!("job `{name}` panicked: {message}"),
                        )
                        .with_note("the job is reported as failed; the run continues"),
                    );
                    format!("panicked: {message}")
                }
                Ok(Err(JobError::Permanent(message))) => {
                    diags.push(Diagnostic::error(
                        JOB_FAILED,
                        Span::unknown(),
                        format!("job `{name}` failed: {message}"),
                    ));
                    message
                }
                Ok(Err(JobError::Transient(message))) => {
                    if attempt < self.config.retry.max_attempts {
                        let delay = self.config.retry.delay_ms(key, attempt);
                        diags.push(
                            Diagnostic::warning(
                                TRANSIENT_RETRY,
                                Span::unknown(),
                                format!(
                                    "job `{name}` failed transiently (attempt {attempt}): {message}"
                                ),
                            )
                            .with_note(format!("retrying after {delay} ms")),
                        );
                        job_retries += 1;
                        std::thread::sleep(Duration::from_millis(delay));
                        continue;
                    }
                    diags.push(Diagnostic::error(
                        RETRIES_EXHAUSTED,
                        Span::unknown(),
                        format!("job `{name}` still failing after {attempt} attempts: {message}"),
                    ));
                    message
                }
            };
            let result = JobResult {
                name: name.clone(),
                status: JobStatus::Failed,
                attempts: attempt,
                lines: Vec::new(),
                failure: Some(failure),
                replayed: false,
            };
            return (Some(result), job_retries);
        }
    }
}

/// The journaled terminal result of `job`, if `entry` holds one.
fn replay(job: &ResolvedJob, entry: &JournalEntry) -> Option<JobResult> {
    let (status, lines) = match (&entry.outcome, &entry.failure) {
        (Some(report), _) => (report.status, report.lines.clone()),
        (None, Some(_)) => (JobStatus::Failed, Vec::new()),
        (None, None) => return None,
    };
    Some(JobResult {
        name: job.name.clone(),
        status,
        attempts: entry.attempts,
        lines,
        failure: entry.failure.clone(),
        replayed: true,
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_journal(tag: &str, diags: &mut Vec<Diagnostic>) -> (PathBuf, ServiceJournal) {
        let dir = std::env::temp_dir().join(format!(
            "svc-supervisor-{}-{tag}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("jobs.journal");
        let journal = ServiceJournal::open(&path, diags);
        (path, journal)
    }

    fn quick(run_timeout_ms: Option<u64>) -> Supervisor {
        Supervisor::new(SupervisorConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 0,
                max_delay_ms: 0,
                seed: 7,
            },
            run_timeout_ms,
        })
    }

    /// Test jobs are never loaded: the runner closures below stand in for
    /// the executor, so the script path only feeds the content key.
    fn job(name: &str) -> ResolvedJob {
        ResolvedJob {
            name: name.to_string(),
            kind: cspm::manifest::JobKind::Check,
            script: PathBuf::from("no-such-script.csp"),
            spec: None,
            corpus: None,
            assertion: None,
            threads: 1,
            max_states: None,
            timeout_ms: None,
            chaos: None,
        }
    }

    fn pass(job: &ResolvedJob) -> Result<JobReport, JobError> {
        Ok(JobReport {
            status: JobStatus::Passed,
            lines: vec![format!("assert {}  PASS", job.name)],
            interrupted: false,
        })
    }

    #[test]
    fn panicking_job_fails_without_taking_down_the_run() {
        let mut diags = Vec::new();
        let (_, mut journal) = tmp_journal("panic", &mut diags);
        let mut calls = 0;
        let outcome = quick(None).run(&[job("boom"), job("after")], &mut journal, |j, _| {
            assert!(j.name != "boom", "injected fault");
            calls += 1;
            pass(j)
        });

        assert_eq!(outcome.jobs.len(), 2);
        assert_eq!(outcome.jobs[0].status, JobStatus::Failed);
        assert_eq!(
            outcome.jobs[0].failure.as_deref(),
            Some("panicked: injected fault")
        );
        assert!(outcome
            .diagnostics
            .iter()
            .any(|d| d.code == JOB_PANIC && d.message.contains("injected fault")));
        assert_eq!(outcome.jobs[1].status, JobStatus::Passed);
        assert_eq!(calls, 1, "the job after the panic still ran");
        assert!(outcome.any_failed());
    }

    #[test]
    fn transient_failures_retry_then_succeed() {
        let mut diags = Vec::new();
        let (_, mut journal) = tmp_journal("transient", &mut diags);
        let mut attempts_seen = 0;
        let outcome = quick(None).run(&[job("flaky")], &mut journal, |j, ctx| {
            attempts_seen = ctx.attempt;
            if ctx.attempt < 3 {
                Err(JobError::Transient("injected storage fault".to_string()))
            } else {
                pass(j)
            }
        });

        assert_eq!(attempts_seen, 3);
        assert_eq!(outcome.jobs[0].status, JobStatus::Passed);
        assert_eq!(outcome.jobs[0].attempts, 3);
        assert_eq!(outcome.retries, 2);
        assert_eq!(
            outcome
                .diagnostics
                .iter()
                .filter(|d| d.code == TRANSIENT_RETRY)
                .count(),
            2
        );
    }

    #[test]
    fn retries_exhaust_into_failed() {
        let mut diags = Vec::new();
        let (_, mut journal) = tmp_journal("exhaust", &mut diags);
        let outcome = quick(None).run(&[job("doomed")], &mut journal, |_, _| {
            Err(JobError::Transient("disk on fire".to_string()))
        });

        assert_eq!(outcome.jobs[0].status, JobStatus::Failed);
        assert_eq!(outcome.jobs[0].attempts, 3);
        assert!(outcome
            .diagnostics
            .iter()
            .any(|d| d.code == RETRIES_EXHAUSTED));
    }

    #[test]
    fn permanent_failures_never_retry() {
        let mut diags = Vec::new();
        let (_, mut journal) = tmp_journal("permanent", &mut diags);
        let mut calls = 0;
        let outcome = quick(None).run(&[job("broken")], &mut journal, |_, _| {
            calls += 1;
            Err(JobError::Permanent("no such script".to_string()))
        });

        assert_eq!(calls, 1);
        assert_eq!(outcome.jobs[0].status, JobStatus::Failed);
        assert!(outcome.diagnostics.iter().any(|d| d.code == JOB_FAILED));
    }

    #[test]
    fn journal_replays_terminal_results_by_content_id() {
        let mut diags = Vec::new();
        let (path, mut journal) = tmp_journal("replay", &mut diags);
        let mut calls = 0;
        let mut counted = |j: &ResolvedJob, _: &JobCtx| {
            calls += 1;
            pass(j)
        };
        let first = quick(None).run(&[job("a")], &mut journal, &mut counted);
        assert!(!first.jobs[0].replayed);

        // Same content: the result replays without executing.
        let mut journal = ServiceJournal::open(&path, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        let second = quick(None).run(&[job("a")], &mut journal, &mut counted);
        assert!(second.jobs[0].replayed);
        assert_eq!(second.jobs[0].lines, first.jobs[0].lines);

        // A changed budget is different content: the job runs again.
        let mut budgeted = job("a");
        budgeted.max_states = Some(5);
        let third = quick(None).run(&[budgeted], &mut journal, &mut counted);
        assert!(!third.jobs[0].replayed);
        assert_eq!(calls, 2, "only the changed job executed again");
    }

    #[test]
    fn failed_journal_writes_are_reported() {
        let dir =
            std::env::temp_dir().join(format!("svc-supervisor-{}-no-such-dir", std::process::id()));
        let mut diags = Vec::new();
        let mut journal = ServiceJournal::open(dir.join("sub").join("jobs.journal"), &mut diags);
        let outcome = quick(None).run(&[job("a")], &mut journal, |j, _| pass(j));
        assert_eq!(outcome.jobs[0].status, JobStatus::Passed);
        assert!(outcome
            .diagnostics
            .iter()
            .any(|d| d.code == crate::codes::JOURNAL_ERROR));
    }

    #[test]
    fn run_budget_defers_unstarted_jobs() {
        let mut diags = Vec::new();
        let (_, mut journal) = tmp_journal("budget", &mut diags);
        let mut calls = 0;
        let outcome = quick(Some(0)).run(&[job("a"), job("b")], &mut journal, |j, _| {
            calls += 1;
            pass(j)
        });

        assert_eq!(calls, 0);
        assert!(outcome.jobs.is_empty());
        assert_eq!(outcome.deferred, vec!["a".to_string(), "b".to_string()]);
        assert!(outcome.any_inconclusive());
        assert!(outcome.diagnostics.iter().any(|d| d.code == RUN_BUDGET));
    }

    #[test]
    fn interrupted_reports_defer_instead_of_journaling() {
        let mut diags = Vec::new();
        let (_, mut journal) = tmp_journal("interrupted", &mut diags);
        let cut = job("cut");
        let outcome = quick(None).run(std::slice::from_ref(&cut), &mut journal, |_, _| {
            Ok(JobReport {
                status: JobStatus::Inconclusive,
                lines: vec!["assert cut  INCONCLUSIVE".to_string()],
                interrupted: true,
            })
        });

        assert!(outcome.jobs.is_empty());
        assert_eq!(outcome.deferred, vec!["cut".to_string()]);
        assert!(
            journal.lookup(exec::job_content_key(&cut)).is_none(),
            "interrupted work is not terminal"
        );
    }
}
