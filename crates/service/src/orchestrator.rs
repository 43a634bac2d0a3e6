//! The orchestrator: the service's single source of truth.
//!
//! One mutex-guarded state machine tracks every job and every worker
//! connection. Jobs move through a small lifecycle:
//!
//! ```text
//!            submit                dispatch              verdict
//! (manifest) ──────▶ queued ──────────────▶ running ──────────▶ done
//!                      ▲                      │  │
//!              backoff │   worker lost /      │  │ drain (SIGTERM)
//!              elapsed │   transient error    │  ▼
//!                    delayed ◀────────────────┘ deferred  (pending in
//!                      │                          journal; resumes on
//!                      ▼ retries exhausted        next start)
//!                    failed
//! ```
//!
//! Every transition happens under the lock and is mirrored to the
//! crash-safe [`crate::journal::ServiceJournal`] at the points that
//! matter for restart: admission (pending entry) and terminal states
//! (verdict or failure). Each mirror appends one record to the
//! journal's log under the lock, so the file order is the transition
//! order and a record costs the same however many jobs the service has
//! seen. Retries in between are process-local.
//!
//! The orchestrator never performs I/O towards workers itself — it hands
//! the server thread a cloned stream plus an encoded frame
//! ([`Dispatch`]) so no socket write ever happens under the lock.

use std::collections::{HashMap, VecDeque};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use diag::{Diagnostic, Span};
use fdrlite::supervisor::{JobReport, RetryPolicy};

use crate::journal::{JournalEntry, ServiceJournal};
use crate::wire::{encode, Frame};
use crate::{codes, exec, JobDefaults, ResolvedJob};

/// Orchestrator tuning.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Hard cap on pending jobs (queued + delayed + running + deferred).
    pub queue_cap: usize,
    /// Retry policy for transient failures and worker-loss reclaims.
    pub retry: RetryPolicy,
    /// Expected worker heartbeat interval (milliseconds); a worker is
    /// declared wedged after missing [`MISSED_BEATS`] of them.
    pub heartbeat_ms: u64,
    /// Default worker threads when neither the job nor the manifest says.
    pub default_threads: usize,
    /// Default per-job state budget.
    pub default_max_states: Option<u64>,
    /// Default per-job wall budget (milliseconds).
    pub default_timeout_ms: Option<u64>,
}

/// Heartbeats a worker may miss before it is declared wedged and killed.
pub const MISSED_BEATS: u32 = 4;

/// Floor for the heartbeat deadline, so tiny test intervals do not turn
/// scheduler jitter into spurious kills.
const MIN_DEADLINE_MS: u64 = 500;

/// How long a spawned worker gets to complete its `hello` handshake.
const SPAWN_GRACE_MS: u64 = 10_000;

/// `Retry-After` hint (seconds) on 429 responses.
const RETRY_AFTER_S: u64 = 2;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Delayed { ready_at: Instant },
    Running { token: String },
    Deferred,
    Done(JobReport),
    Failed(String),
}

struct JobRecord {
    job: ResolvedJob,
    attempts: u32,
    max_attempts: u32,
    state: JobState,
}

struct WorkerEntry {
    pid: u32,
    writer: TcpStream,
    busy: Option<u64>,
    last_beat: Instant,
}

/// Monotonic service counters, surfaced by `/v1/health` and the bench.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Jobs accepted (dedup hits included).
    pub submitted: u64,
    /// Submissions that collapsed onto an existing job id.
    pub dedup_hits: u64,
    /// Jobs that reached a verdict.
    pub completed: u64,
    /// Jobs that failed terminally.
    pub failed: u64,
    /// Re-dispatches after transient errors or interrupts.
    pub retried: u64,
    /// Workers lost to EOF or heartbeat deadline.
    pub workers_lost: u64,
    /// Submissions rejected at the admission gate.
    pub rejected: u64,
    /// Jobs deferred across a drain.
    pub deferred: u64,
}

struct Inner {
    jobs: HashMap<u64, JobRecord>,
    /// Submission order, for stable listings.
    order: Vec<u64>,
    queue: VecDeque<u64>,
    delayed: Vec<u64>,
    workers: HashMap<String, WorkerEntry>,
    /// Tokens handed to spawned workers that have not said hello yet.
    pending_workers: HashMap<String, Instant>,
    draining: bool,
    journal: ServiceJournal,
    diags: Vec<Diagnostic>,
    counters: Counters,
}

impl Inner {
    /// Mirror `entry` to the journal; a failed write is reported on the
    /// service's diagnostic stream.
    fn record(&mut self, entry: JournalEntry) {
        if let Err(d) = self.journal.record(entry) {
            self.diags.push(d);
        }
    }
}

/// Why a submission was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// The manifest did not parse.
    Parse(String),
    /// Admission would overflow the queue cap; retry after the hint.
    QueueFull {
        /// Suggested client backoff in seconds (`Retry-After`).
        retry_after_s: u64,
    },
    /// The service is draining and accepts no new work.
    Draining,
}

/// One accepted job from a submission.
#[derive(Debug, Clone)]
pub struct Accepted {
    /// Manifest job name.
    pub name: String,
    /// The job's content key (public id).
    pub id: u64,
    /// Lifecycle state label at admission time.
    pub state: &'static str,
    /// Whether this submission collapsed onto an existing job.
    pub dedup: bool,
}

/// A snapshot of one job for the HTTP layer.
#[derive(Debug, Clone)]
pub struct JobView {
    /// The job's content key.
    pub id: u64,
    /// Manifest job name.
    pub name: String,
    /// Job kind label.
    pub kind: &'static str,
    /// Lifecycle state label.
    pub state: &'static str,
    /// Attempts consumed so far.
    pub attempts: u32,
    /// The verdict, once done.
    pub outcome: Option<JobReport>,
    /// The failure message, once failed.
    pub failure: Option<String>,
}

/// A snapshot of one worker for the HTTP layer.
#[derive(Debug, Clone)]
pub struct WorkerView {
    /// Launch token (slot identity).
    pub token: String,
    /// OS process id (0 for in-process thread workers).
    pub pid: u32,
    /// The job the worker is running, if any.
    pub busy: Option<u64>,
}

/// A `/v1/health` snapshot.
#[derive(Debug, Clone)]
pub struct Health {
    /// Whether the service is draining.
    pub draining: bool,
    /// Connected workers.
    pub workers: Vec<WorkerView>,
    /// Jobs per lifecycle state.
    pub queued: usize,
    /// Jobs waiting out a retry backoff.
    pub delayed: usize,
    /// Jobs currently on a worker.
    pub running: usize,
    /// Jobs deferred across a drain.
    pub deferred: usize,
    /// Jobs with verdicts.
    pub done: usize,
    /// Terminally failed jobs.
    pub failed: usize,
    /// Admission cap.
    pub queue_cap: usize,
    /// Monotonic counters.
    pub counters: Counters,
}

/// One dispatch decision: write `line` to `stream`; on failure report
/// [`Orchestrator::worker_gone`] for `token`.
pub struct Dispatch {
    /// The worker's launch token.
    pub token: String,
    /// A clone of the worker's stream (write outside the lock).
    pub stream: TcpStream,
    /// The encoded `job` frame.
    pub line: String,
}

/// Workers to SIGKILL after a heartbeat-deadline breach.
#[derive(Debug, Default)]
pub struct TickReport {
    /// `(token, pid)` of each worker declared wedged this tick.
    pub dead: Vec<(String, u32)>,
}

/// The service state machine. All methods are `&self`; internal locking.
pub struct Orchestrator {
    config: OrchestratorConfig,
    inner: Mutex<Inner>,
    notify: Condvar,
}

fn state_label(state: &JobState) -> &'static str {
    match state {
        JobState::Queued => "queued",
        JobState::Delayed { .. } => "delayed",
        JobState::Running { .. } => "running",
        JobState::Deferred => "deferred",
        JobState::Done(_) => "done",
        JobState::Failed(_) => "failed",
    }
}

fn is_pending(state: &JobState) -> bool {
    !matches!(state, JobState::Done(_) | JobState::Failed(_))
}

impl Orchestrator {
    /// Build the orchestrator, replaying `journal`. Completed entries
    /// serve their verdicts verbatim; pending entries re-enter the queue
    /// *after* their content keys are re-derived from disk — a stale
    /// entry (script edited while the service was down) is dropped with
    /// [`codes::JOURNAL_ERROR`] rather than run under the wrong id.
    pub fn new(config: OrchestratorConfig, mut journal: ServiceJournal) -> Orchestrator {
        let mut jobs = HashMap::new();
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        let mut diags = Vec::new();
        let mut stale = Vec::new();
        for entry in journal.entries().to_vec() {
            let record = if let Some(outcome) = entry.outcome.clone() {
                JobRecord {
                    job: entry.job.clone(),
                    attempts: entry.attempts,
                    max_attempts: entry.attempts.max(1),
                    state: JobState::Done(outcome),
                }
            } else if let Some(failure) = entry.failure.clone() {
                JobRecord {
                    job: entry.job.clone(),
                    attempts: entry.attempts,
                    max_attempts: entry.attempts.max(1),
                    state: JobState::Failed(failure),
                }
            } else {
                let rekeyed = exec::job_content_key(&entry.job);
                if rekeyed != entry.id {
                    diags.push(
                        Diagnostic::warning(
                            codes::JOURNAL_ERROR,
                            Span::unknown(),
                            format!(
                                "journaled job `{}` ({}) no longer matches its on-disk \
                                 content; dropping the stale entry",
                                entry.job.name,
                                crate::format_job_id(entry.id)
                            ),
                        )
                        .with_note("resubmit the manifest to run the current content"),
                    );
                    stale.push(entry.id);
                    continue;
                }
                queue.push_back(entry.id);
                JobRecord {
                    job: entry.job.clone(),
                    attempts: entry.attempts,
                    max_attempts: config.retry.max_attempts.max(entry.attempts + 1),
                    state: JobState::Queued,
                }
            };
            order.push(entry.id);
            jobs.insert(entry.id, record);
        }
        for id in stale {
            if let Err(d) = journal.remove_entry(id) {
                diags.push(d);
            }
        }
        let inner = Inner {
            jobs,
            order,
            queue,
            delayed: Vec::new(),
            workers: HashMap::new(),
            pending_workers: HashMap::new(),
            draining: false,
            journal,
            diags,
            counters: Counters::default(),
        };
        Orchestrator {
            config,
            inner: Mutex::new(inner),
            notify: Condvar::new(),
        }
    }

    fn heartbeat_deadline(&self) -> Duration {
        Duration::from_millis(
            (self.config.heartbeat_ms * u64::from(MISSED_BEATS)).max(MIN_DEADLINE_MS),
        )
    }

    /// Parse and admit a `jobs.toml` submission. All-or-nothing: if the
    /// new jobs would overflow the queue cap, the whole submission is
    /// rejected ([`codes::QUEUE_FULL`]) and nothing is enqueued.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Parse`] for malformed manifests,
    /// [`SubmitError::QueueFull`] at capacity, [`SubmitError::Draining`]
    /// after drain has begun.
    pub fn submit(&self, source: &str, base_dir: &Path) -> Result<Vec<Accepted>, SubmitError> {
        let manifest = cspm::manifest::Manifest::parse(source, base_dir)
            .map_err(|e| SubmitError::Parse(e.to_string()))?;
        let max_attempts = manifest
            .run
            .retries
            .unwrap_or(self.config.retry.max_attempts)
            .max(1);
        // Resolve and key the jobs before taking the lock: keying reads
        // script/corpus bytes from disk.
        let defaults = JobDefaults {
            threads: self.config.default_threads,
            max_states: self.config.default_max_states,
            timeout_ms: self.config.default_timeout_ms,
            spec: None,
        };
        let resolved: Vec<(u64, ResolvedJob)> = crate::resolve_jobs(&manifest, &defaults)
            .into_iter()
            .map(|job| (exec::job_content_key(&job), job))
            .collect();

        let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
        if inner.draining {
            return Err(SubmitError::Draining);
        }
        let pending_now = inner.jobs.values().filter(|r| is_pending(&r.state)).count();
        let new_pending = {
            let mut fresh = 0_usize;
            let mut seen = Vec::new();
            for (id, _) in &resolved {
                if seen.contains(id) {
                    continue;
                }
                seen.push(*id);
                match inner.jobs.get(id) {
                    None
                    | Some(JobRecord {
                        state: JobState::Failed(_),
                        ..
                    }) => fresh += 1,
                    Some(_) => {}
                }
            }
            fresh
        };
        if pending_now + new_pending > self.config.queue_cap {
            inner.counters.rejected += 1;
            inner.diags.push(Diagnostic::warning(
                codes::QUEUE_FULL,
                Span::unknown(),
                format!(
                    "submission of {} job(s) rejected: {pending_now} pending against a cap \
                     of {}",
                    resolved.len(),
                    self.config.queue_cap
                ),
            ));
            return Err(SubmitError::QueueFull {
                retry_after_s: RETRY_AFTER_S,
            });
        }

        let mut accepted = Vec::with_capacity(resolved.len());
        for (id, job) in resolved {
            inner.counters.submitted += 1;
            let (state, dedup) = match inner.jobs.get_mut(&id) {
                Some(record) if matches!(record.state, JobState::Failed(_)) => {
                    // A failed job resubmitted verbatim gets a fresh
                    // retry budget — terminal failures are often
                    // environmental, and the client explicitly asked.
                    record.attempts = 0;
                    record.max_attempts = max_attempts;
                    record.state = JobState::Queued;
                    inner.queue.push_back(id);
                    inner.record(JournalEntry {
                        id,
                        job: job.clone(),
                        attempts: 0,
                        outcome: None,
                        failure: None,
                    });
                    inner.counters.dedup_hits += 1;
                    ("queued", true)
                }
                Some(record) => {
                    let label = state_label(&record.state);
                    inner.counters.dedup_hits += 1;
                    (label, true)
                }
                None => {
                    inner.order.push(id);
                    inner.jobs.insert(
                        id,
                        JobRecord {
                            job: job.clone(),
                            attempts: 0,
                            max_attempts,
                            state: JobState::Queued,
                        },
                    );
                    inner.queue.push_back(id);
                    inner.record(JournalEntry {
                        id,
                        job,
                        attempts: 0,
                        outcome: None,
                        failure: None,
                    });
                    ("queued", false)
                }
            };
            accepted.push(Accepted {
                name: accepted_name(&inner, id),
                id,
                state,
                dedup,
            });
        }
        drop(inner);
        self.notify.notify_all();
        Ok(accepted)
    }

    /// Announce a worker slot that was just spawned; its `hello` must
    /// arrive within the spawn grace or the slot is recycled.
    pub fn expect_worker(&self, token: &str) {
        let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
        inner
            .pending_workers
            .insert(token.to_string(), Instant::now());
    }

    /// A worker said hello. Returns `false` when the token is unknown or
    /// the service is draining — the caller should close the connection.
    pub fn register_worker(&self, token: &str, pid: u32, writer: TcpStream) -> bool {
        let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
        if inner.draining || inner.pending_workers.remove(token).is_none() {
            return false;
        }
        inner.workers.insert(
            token.to_string(),
            WorkerEntry {
                pid,
                writer,
                busy: None,
                last_beat: Instant::now(),
            },
        );
        drop(inner);
        self.notify.notify_all();
        true
    }

    /// Is `token` a live or still-expected worker slot? The server's
    /// monitor respawns slots this returns `false` for.
    pub fn knows_worker(&self, token: &str) -> bool {
        let inner = self.inner.lock().expect("orchestrator lock poisoned");
        inner.workers.contains_key(token) || inner.pending_workers.contains_key(token)
    }

    /// Record a heartbeat from `token`.
    pub fn heartbeat(&self, token: &str, _busy: bool) {
        let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
        if let Some(worker) = inner.workers.get_mut(token) {
            worker.last_beat = Instant::now();
        }
    }

    /// A worker connection ended (EOF, write failure, or deadline kill).
    /// Its in-flight job, if any, is reclaimed: requeued with backoff
    /// ([`codes::WORKER_LOST`]) or failed once retries are exhausted
    /// ([`codes::RETRIES_EXHAUSTED`]).
    pub fn worker_gone(&self, token: &str) {
        let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
        let Some(worker) = inner.workers.remove(token) else {
            return;
        };
        // Close the socket for every clone so both the connection thread
        // and (for deadline kills) the worker itself unblock promptly.
        let _ = worker.writer.shutdown(std::net::Shutdown::Both);
        if let Some(id) = worker.busy {
            inner.counters.workers_lost += 1;
            let message = format!(
                "worker `{token}` (pid {}) died while running job {}",
                worker.pid,
                crate::format_job_id(id)
            );
            inner.diags.push(
                Diagnostic::warning(codes::WORKER_LOST, Span::unknown(), message)
                    .with_note("the job resumes from its last checkpoint on a fresh worker"),
            );
            self.reclaim(&mut inner, id, "worker lost");
        }
        drop(inner);
        self.notify.notify_all();
    }

    /// A worker reported a verdict for `id`.
    pub fn worker_result(&self, token: &str, id: u64, outcome: JobReport) {
        let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
        if let Some(worker) = inner.workers.get_mut(token) {
            worker.busy = None;
            worker.last_beat = Instant::now();
        }
        let Some(record) = inner.jobs.get_mut(&id) else {
            return;
        };
        if !matches!(&record.state, JobState::Running { token: t } if t == token) {
            return; // stale report from a worker we already reclaimed
        }
        if outcome.interrupted {
            if inner.draining {
                if let Some(record) = inner.jobs.get_mut(&id) {
                    record.state = JobState::Deferred;
                }
                inner.counters.deferred += 1;
                inner.diags.push(
                    Diagnostic::warning(
                        codes::DRAIN_DEFERRED,
                        Span::unknown(),
                        format!(
                            "job {} drained to its checkpoint; it resumes on the next \
                             service start",
                            crate::format_job_id(id)
                        ),
                    )
                    .with_note("the journal keeps the job pending across the restart"),
                );
            } else {
                // Interrupted outside a drain (e.g. the worker process
                // caught SIGTERM directly): the checkpoint is on disk,
                // so retry like any transient fault.
                self.reclaim(&mut inner, id, "run interrupted");
            }
        } else {
            let attempts = record.attempts;
            let job = record.job.clone();
            record.state = JobState::Done(outcome.clone());
            inner.counters.completed += 1;
            inner.record(JournalEntry {
                id,
                job,
                attempts,
                outcome: Some(outcome),
                failure: None,
            });
        }
        drop(inner);
        self.notify.notify_all();
    }

    /// A worker reported an error for `id`.
    pub fn worker_error(&self, token: &str, id: u64, transient: bool, message: &str) {
        let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
        if let Some(worker) = inner.workers.get_mut(token) {
            worker.busy = None;
            worker.last_beat = Instant::now();
        }
        let Some(record) = inner.jobs.get(&id) else {
            return;
        };
        if !matches!(&record.state, JobState::Running { token: t } if t == token) {
            return;
        }
        if transient {
            self.reclaim(&mut inner, id, message);
        } else {
            self.fail_job(&mut inner, id, message.to_string());
        }
        drop(inner);
        self.notify.notify_all();
    }

    /// Requeue `id` with backoff, or fail it when the budget is spent.
    /// Caller holds the lock and has verified the job exists.
    fn reclaim(&self, inner: &mut Inner, id: u64, why: &str) {
        let Some(record) = inner.jobs.get_mut(&id) else {
            return;
        };
        if record.attempts >= record.max_attempts {
            let message = format!(
                "{why}; retry budget exhausted after {} attempt(s)",
                record.attempts
            );
            self.fail_job(inner, id, message);
            return;
        }
        let delay = self.config.retry.delay_ms(id, record.attempts.max(1));
        record.state = JobState::Delayed {
            ready_at: Instant::now() + Duration::from_millis(delay),
        };
        inner.delayed.push(id);
        inner.counters.retried += 1;
    }

    /// Terminally fail `id` with [`codes::RETRIES_EXHAUSTED`] bookkeeping.
    fn fail_job(&self, inner: &mut Inner, id: u64, message: String) {
        let Some(record) = inner.jobs.get_mut(&id) else {
            return;
        };
        let attempts = record.attempts;
        let job = record.job.clone();
        record.state = JobState::Failed(message.clone());
        inner.counters.failed += 1;
        inner.diags.push(Diagnostic::error(
            codes::RETRIES_EXHAUSTED,
            Span::unknown(),
            format!(
                "job {} (`{}`) failed: {message}",
                crate::format_job_id(id),
                job.name
            ),
        ));
        inner.record(JournalEntry {
            id,
            job,
            attempts,
            outcome: None,
            failure: Some(message),
        });
    }

    /// Move elapsed delayed jobs back into the queue. Caller holds the
    /// lock. Returns `true` when anything moved.
    fn promote_delayed(inner: &mut Inner) -> bool {
        let now = Instant::now();
        let mut moved = false;
        let mut keep = Vec::new();
        for id in std::mem::take(&mut inner.delayed) {
            let ready = matches!(
                inner.jobs.get(&id).map(|r| &r.state),
                Some(JobState::Delayed { ready_at }) if *ready_at <= now
            );
            if ready {
                if let Some(record) = inner.jobs.get_mut(&id) {
                    record.state = JobState::Queued;
                }
                inner.queue.push_back(id);
                moved = true;
            } else if matches!(
                inner.jobs.get(&id).map(|r| &r.state),
                Some(JobState::Delayed { .. })
            ) {
                keep.push(id);
            }
        }
        inner.delayed = keep;
        moved
    }

    /// Wait up to `wait` for a (ready job, idle worker) pair; mark the
    /// job running and return the frame to send. The server writes the
    /// frame *outside* the lock and reports [`Orchestrator::worker_gone`]
    /// if the write fails.
    pub fn next_dispatch(&self, wait: Duration) -> Option<Dispatch> {
        let deadline = Instant::now() + wait;
        let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
        loop {
            Self::promote_delayed(&mut inner);
            if !inner.draining {
                if let Some(dispatch) = Self::try_dispatch(&mut inner) {
                    return Some(dispatch);
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // Wake early enough to promote the next delayed job.
            let mut timeout = deadline - now;
            for id in &inner.delayed {
                if let Some(JobState::Delayed { ready_at }) = inner.jobs.get(id).map(|r| &r.state) {
                    let until = ready_at.saturating_duration_since(now);
                    if until < timeout {
                        timeout = until.max(Duration::from_millis(1));
                    }
                }
            }
            let (guard, _) = self
                .notify
                .wait_timeout(inner, timeout)
                .expect("orchestrator lock poisoned");
            inner = guard;
        }
    }

    fn try_dispatch(inner: &mut Inner) -> Option<Dispatch> {
        let id = *inner.queue.front()?;
        let token = inner
            .workers
            .iter()
            .filter(|(_, w)| w.busy.is_none())
            .map(|(t, _)| t.clone())
            .min()?; // deterministic pick: lowest token
        inner.queue.pop_front();
        let record = inner.jobs.get_mut(&id)?;
        record.attempts += 1;
        record.state = JobState::Running {
            token: token.clone(),
        };
        let frame = Frame::Job {
            id,
            attempt: record.attempts,
            job: record.job.clone(),
        };
        let worker = inner.workers.get_mut(&token)?;
        worker.busy = Some(id);
        let Ok(stream) = worker.writer.try_clone() else {
            // Clone failure ≈ dead socket; the caller's next read will
            // EOF and reclaim properly. Put the job back.
            worker.busy = None;
            if let Some(record) = inner.jobs.get_mut(&id) {
                record.attempts -= 1;
                record.state = JobState::Queued;
            }
            inner.queue.push_front(id);
            return None;
        };
        Some(Dispatch {
            token,
            stream,
            line: encode(&frame),
        })
    }

    /// Periodic maintenance: expire spawn grace, promote delayed jobs,
    /// and declare heartbeat-deadline breaches. The caller SIGKILLs the
    /// returned pids (their jobs are already reclaimed here).
    pub fn tick(&self) -> TickReport {
        let mut report = TickReport::default();
        let deadline = self.heartbeat_deadline();
        let mut gone = Vec::new();
        {
            let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
            let now = Instant::now();
            let grace = Duration::from_millis(SPAWN_GRACE_MS.max(self.config.heartbeat_ms * 20));
            let expired: Vec<String> = inner
                .pending_workers
                .iter()
                .filter(|(_, since)| now.duration_since(**since) > grace)
                .map(|(t, _)| t.clone())
                .collect();
            for token in expired {
                inner.pending_workers.remove(&token);
                inner.diags.push(Diagnostic::warning(
                    codes::WORKER_SPAWN,
                    Span::unknown(),
                    format!("worker `{token}` never completed its handshake; recycling the slot"),
                ));
            }
            if Self::promote_delayed(&mut inner) {
                self.notify.notify_all();
            }
            for (token, worker) in &inner.workers {
                if now.duration_since(worker.last_beat) > deadline {
                    report.dead.push((token.clone(), worker.pid));
                    gone.push(token.clone());
                }
            }
        }
        for token in gone {
            self.worker_gone(&token);
        }
        report
    }

    /// Begin draining: stop admissions and dispatches, and return one
    /// cloned stream per connected worker so the server can send each a
    /// `shutdown` frame outside the lock.
    pub fn begin_drain(&self) -> Vec<TcpStream> {
        let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
        inner.draining = true;
        let streams = inner
            .workers
            .values()
            .filter_map(|w| w.writer.try_clone().ok())
            .collect();
        drop(inner);
        self.notify.notify_all();
        streams
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.inner
            .lock()
            .expect("orchestrator lock poisoned")
            .draining
    }

    /// During a drain: `true` once no job is on a worker any more.
    pub fn drain_complete(&self) -> bool {
        let inner = self.inner.lock().expect("orchestrator lock poisoned");
        !inner
            .jobs
            .values()
            .any(|r| matches!(r.state, JobState::Running { .. }))
    }

    /// Jobs that have not reached a terminal state (drives exit code 3).
    pub fn pending_count(&self) -> usize {
        let inner = self.inner.lock().expect("orchestrator lock poisoned");
        inner.jobs.values().filter(|r| is_pending(&r.state)).count()
    }

    /// Snapshot one job.
    pub fn job_view(&self, id: u64) -> Option<JobView> {
        let inner = self.inner.lock().expect("orchestrator lock poisoned");
        inner.jobs.get(&id).map(|record| Self::view(id, record))
    }

    fn view(id: u64, record: &JobRecord) -> JobView {
        let (outcome, failure) = match &record.state {
            JobState::Done(outcome) => (Some(outcome.clone()), None),
            JobState::Failed(message) => (None, Some(message.clone())),
            _ => (None, None),
        };
        JobView {
            id,
            name: record.job.name.clone(),
            kind: record.job.kind.label(),
            state: state_label(&record.state),
            attempts: record.attempts,
            outcome,
            failure,
        }
    }

    /// Block until `id` reaches a terminal state or `wait` elapses;
    /// returns the latest snapshot either way (`None`: unknown id).
    pub fn wait_terminal(&self, id: u64, wait: Duration) -> Option<JobView> {
        let deadline = Instant::now() + wait;
        let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
        loop {
            let record = inner.jobs.get(&id)?;
            if !is_pending(&record.state) {
                return Some(Self::view(id, record));
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(Self::view(id, record));
            }
            let (guard, _) = self
                .notify
                .wait_timeout(inner, deadline - now)
                .expect("orchestrator lock poisoned");
            inner = guard;
        }
    }

    /// Snapshot every job, submission order.
    pub fn job_views(&self) -> Vec<JobView> {
        let inner = self.inner.lock().expect("orchestrator lock poisoned");
        inner
            .order
            .iter()
            .filter_map(|id| inner.jobs.get(id).map(|r| Self::view(*id, r)))
            .collect()
    }

    /// Snapshot service health.
    pub fn health(&self) -> Health {
        let inner = self.inner.lock().expect("orchestrator lock poisoned");
        let mut health = Health {
            draining: inner.draining,
            workers: inner
                .workers
                .iter()
                .map(|(token, w)| WorkerView {
                    token: token.clone(),
                    pid: w.pid,
                    busy: w.busy,
                })
                .collect(),
            queued: 0,
            delayed: 0,
            running: 0,
            deferred: 0,
            done: 0,
            failed: 0,
            queue_cap: self.config.queue_cap,
            counters: inner.counters,
        };
        health.workers.sort_by(|a, b| a.token.cmp(&b.token));
        for record in inner.jobs.values() {
            match record.state {
                JobState::Queued => health.queued += 1,
                JobState::Delayed { .. } => health.delayed += 1,
                JobState::Running { .. } => health.running += 1,
                JobState::Deferred => health.deferred += 1,
                JobState::Done(_) => health.done += 1,
                JobState::Failed(_) => health.failed += 1,
            }
        }
        health
    }

    /// Append externally produced diagnostics (e.g. journal-open
    /// warnings) to the service stream.
    pub fn adopt_diagnostics(&self, diags: Vec<Diagnostic>) {
        let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
        inner.diags.extend(diags);
    }

    /// Drain accumulated diagnostics (rendered to the service log).
    pub fn take_diagnostics(&self) -> Vec<Diagnostic> {
        let mut inner = self.inner.lock().expect("orchestrator lock poisoned");
        std::mem::take(&mut inner.diags)
    }
}

fn accepted_name(inner: &Inner, id: u64) -> String {
    inner
        .jobs
        .get(&id)
        .map_or_else(String::new, |r| r.job.name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdrlite::supervisor::JobStatus;
    use std::fs;
    use std::net::TcpListener;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "svc-orch-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    const SCRIPT: &str = "channel a, b\n\
                          SPEC = a -> SPEC\n\
                          IMPL = a -> IMPL\n\
                          assert SPEC [T= IMPL\n";

    fn config(queue_cap: usize) -> OrchestratorConfig {
        OrchestratorConfig {
            queue_cap,
            retry: RetryPolicy {
                max_attempts: 2,
                base_delay_ms: 1,
                max_delay_ms: 2,
                seed: 7,
            },
            heartbeat_ms: 50,
            default_threads: 1,
            default_max_states: None,
            default_timeout_ms: None,
        }
    }

    fn orchestrator(dir: &std::path::Path, queue_cap: usize) -> Orchestrator {
        let mut diags = Vec::new();
        let journal = ServiceJournal::open(dir.join("service.journal"), &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        Orchestrator::new(config(queue_cap), journal)
    }

    fn manifest_for(dir: &std::path::Path) -> String {
        fs::write(dir.join("m.csp"), SCRIPT).unwrap();
        "[[job]]\nname = \"spec\"\nkind = \"check\"\nscript = \"m.csp\"\n".to_string()
    }

    /// A loopback socket pair so worker registration has a real stream.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn submit_dedup_and_queue_cap() {
        let dir = tmpdir("admission");
        let orch = orchestrator(&dir, 1);
        let manifest = manifest_for(&dir);

        let first = orch.submit(&manifest, &dir).unwrap();
        assert_eq!(first.len(), 1);
        assert!(!first[0].dedup);
        assert_eq!(first[0].state, "queued");

        // Identical resubmission collapses instead of eating capacity.
        let second = orch.submit(&manifest, &dir).unwrap();
        assert!(second[0].dedup);
        assert_eq!(second[0].id, first[0].id);

        // A different job overflows the cap of 1 → fail-closed 429.
        fs::write(dir.join("m2.csp"), SCRIPT).unwrap();
        let other = "[[job]]\nname = \"extra\"\nkind = \"analyze\"\nscript = \"m2.csp\"\n";
        match orch.submit(other, &dir) {
            Err(SubmitError::QueueFull { retry_after_s }) => assert!(retry_after_s > 0),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(orch.health().counters.rejected, 1);
    }

    #[test]
    fn worker_loss_requeues_then_exhausts_retries() {
        let dir = tmpdir("reclaim");
        let orch = orchestrator(&dir, 8);
        let manifest = manifest_for(&dir);
        let id = orch.submit(&manifest, &dir).unwrap()[0].id;

        let (_client, server_side) = socket_pair();
        orch.expect_worker("w-0-1");
        assert!(orch.register_worker("w-0-1", 111, server_side));
        let dispatch = orch.next_dispatch(Duration::from_secs(1)).unwrap();
        assert_eq!(dispatch.token, "w-0-1");
        assert_eq!(orch.job_view(id).unwrap().state, "running");

        // First loss: attempts 1/2 → delayed, then queued again.
        orch.worker_gone("w-0-1");
        let view = orch.job_view(id).unwrap();
        assert!(
            view.state == "delayed" || view.state == "queued",
            "{view:?}"
        );
        assert_eq!(orch.health().counters.workers_lost, 1);

        // Fresh worker picks it up after the backoff elapses.
        let (_client2, server_side2) = socket_pair();
        orch.expect_worker("w-0-2");
        assert!(orch.register_worker("w-0-2", 222, server_side2));
        let dispatch = orch.next_dispatch(Duration::from_secs(1)).unwrap();
        assert_eq!(dispatch.token, "w-0-2");

        // Second loss: retry budget (2) exhausted → failed + SRV605.
        orch.worker_gone("w-0-2");
        let view = orch.job_view(id).unwrap();
        assert_eq!(view.state, "failed");
        assert!(view.failure.unwrap().contains("retry budget exhausted"));
        let diags = orch.take_diagnostics();
        assert!(diags.iter().any(|d| d.code == codes::WORKER_LOST));
        assert!(diags.iter().any(|d| d.code == codes::RETRIES_EXHAUSTED));
    }

    #[test]
    fn drain_defers_interrupted_jobs_and_restart_requeues_them() {
        let dir = tmpdir("drain");
        let manifest = manifest_for(&dir);
        let id;
        {
            let orch = orchestrator(&dir, 8);
            id = orch.submit(&manifest, &dir).unwrap()[0].id;
            let (_client, server_side) = socket_pair();
            orch.expect_worker("w-0-1");
            assert!(orch.register_worker("w-0-1", 111, server_side));
            let _dispatch = orch.next_dispatch(Duration::from_secs(1)).unwrap();

            let streams = orch.begin_drain();
            assert_eq!(streams.len(), 1);
            orch.worker_result(
                "w-0-1",
                id,
                JobReport {
                    status: JobStatus::Inconclusive,
                    lines: vec!["assert SPEC [T= IMPL  ...  INCONCLUSIVE".into()],
                    interrupted: true,
                },
            );
            assert!(orch.drain_complete());
            assert_eq!(orch.job_view(id).unwrap().state, "deferred");
            assert_eq!(orch.pending_count(), 1);
            assert!(orch
                .take_diagnostics()
                .iter()
                .any(|d| d.code == codes::DRAIN_DEFERRED));
        }

        // Restart: the journaled pending entry re-enters the queue.
        let orch = orchestrator(&dir, 8);
        let view = orch.job_view(id).unwrap();
        assert_eq!(view.state, "queued");

        // Finishing it serves the verdict to pollers.
        let (_client, server_side) = socket_pair();
        orch.expect_worker("w-1-1");
        assert!(orch.register_worker("w-1-1", 42, server_side));
        let _dispatch = orch.next_dispatch(Duration::from_secs(1)).unwrap();
        orch.worker_result(
            "w-1-1",
            id,
            JobReport {
                status: JobStatus::Passed,
                lines: vec!["assert SPEC [T= IMPL  ...  PASS".into()],
                interrupted: false,
            },
        );
        let view = orch.wait_terminal(id, Duration::from_secs(1)).unwrap();
        assert_eq!(view.state, "done");
        assert_eq!(view.outcome.unwrap().status, JobStatus::Passed);
    }

    #[test]
    fn restart_drops_stale_pending_entries() {
        let dir = tmpdir("stale");
        let manifest = manifest_for(&dir);
        let id;
        {
            let orch = orchestrator(&dir, 8);
            id = orch.submit(&manifest, &dir).unwrap()[0].id;
        }
        // Edit the script while the service is "down": the journaled id
        // no longer matches the on-disk content.
        fs::write(dir.join("m.csp"), SCRIPT.replace("a -> IMPL", "b -> IMPL")).unwrap();
        let orch = orchestrator(&dir, 8);
        assert!(orch.job_view(id).is_none());
        assert!(orch
            .take_diagnostics()
            .iter()
            .any(|d| d.code == codes::JOURNAL_ERROR));
        // The stale entry is pruned from disk too, not re-reported forever.
        let orch2 = orchestrator(&dir, 8);
        assert!(orch2.take_diagnostics().is_empty());
    }
}
