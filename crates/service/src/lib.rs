//! `service` — job running, locally and as a fault-tolerant service.
//!
//! The paper scales security checking past one machine with FDR's grid
//! mode (§VII-A); this crate is that step for the `auto-csp` toolchain: a
//! long-running front-end that accepts check/conform/analyze jobs over
//! HTTP (submit a `jobs.toml` manifest → job ids → poll verdicts) and
//! dispatches them to a pool of worker processes over loopback.
//!
//! It also owns the one way a job runs. A manifest resolves to
//! [`ResolvedJob`]s through [`resolve_jobs`], each keyed by its content
//! ([`exec::job_content_key`]); one [`exec::Executor`] turns a job into
//! verdict lines; one journal ([`journal::ServiceJournal`]) records
//! them. The [`orchestrator::Orchestrator`] drives that executor across
//! worker processes, and the [`supervisor::Supervisor`] drives it
//! in-process for `autocsp run`.
//!
//! Robustness is the design centre, not an afterthought:
//!
//! - **Sharded workers, one cache.** Every worker attaches the same
//!   [`fdrlite::PersistentCache`], so compiled models and checkpoint
//!   frontiers written by one worker are visible to all. Identity is
//!   content-addressed end to end: identical submissions collapse to one
//!   job id at the service layer and to one `CheckId` at the engine
//!   layer.
//! - **Heartbeats + EOF death detection.** Each worker connection beats
//!   on a fixed interval; a SIGKILLed worker is noticed immediately via
//!   socket EOF, a wedged one via the heartbeat deadline, and either way
//!   its job is reclaimed ([`codes::WORKER_LOST`]).
//! - **Checkpoint handoff.** A reclaimed check job is handed to a fresh
//!   worker, which resumes from the dead worker's last checkpoint
//!   frontier and reaches a verdict byte-identical to an undisturbed
//!   run — the engine-level guarantee (`fdrlite::persist`) lifted to the
//!   service. Conform and analyze jobs are deterministic and idempotent,
//!   so a reclaim simply re-runs them to the same verdict.
//! - **Bounded, fail-closed admission.** The queue has a hard cap; a
//!   submission that would overflow it is rejected with HTTP 429 and a
//!   `Retry-After` hint ([`codes::QUEUE_FULL`]) instead of growing
//!   memory without bound.
//! - **Graceful degradation.** SIGTERM drains: in-flight jobs are
//!   interrupted to checkpoints, pending jobs stay journaled, and a
//!   restarted service completes them byte-identically
//!   ([`codes::DRAIN_DEFERRED`]). The journal is an append-only log of
//!   checksummed records: a crash can tear only the last one, which
//!   replay drops, and opening it compacts the log with an atomic
//!   rewrite (temp file + rename), like the model cache.
//!
//! The submission format *is* the `jobs.toml` manifest
//! (`cspm::manifest::Manifest`), and a batch submitted to the service or
//! to `autocsp run` produces the same verdict lines because both run it
//! on the same executor. See `docs/SERVICE.md` for the HTTP surface, the
//! job lifecycle state machine and the exit/status contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod http;
pub mod journal;
pub mod orchestrator;
pub mod server;
pub mod supervisor;
pub mod wire;
pub mod worker;

use std::path::PathBuf;

use cspm::manifest::Manifest;

/// The `SRV6xx` diagnostic family: checking-service orchestration.
///
/// Catalogued in `docs/LINTS.md`; the `catalogue_docs` drift test keeps
/// the table honest.
pub mod codes {
    use diag::Code;

    /// A worker died (socket EOF or heartbeat deadline); its job was
    /// reclaimed and re-dispatched from the last checkpoint.
    pub const WORKER_LOST: Code = Code("SRV601");
    /// A submission was rejected because the queue is at capacity
    /// (HTTP 429 + `Retry-After`).
    pub const QUEUE_FULL: Code = Code("SRV602");
    /// The job journal could not be read or written, is in another
    /// format or ends in a torn or corrupt record, or a journaled job's
    /// on-disk content changed; affected entries were dropped, never
    /// trusted. Used by the service and by `autocsp run`.
    pub const JOURNAL_ERROR: Code = Code("SRV603");
    /// A worker could not be spawned or never completed its handshake.
    pub const WORKER_SPAWN: Code = Code("SRV604");
    /// A job exhausted its retry budget and was marked failed.
    pub const RETRIES_EXHAUSTED: Code = Code("SRV605");
    /// Shutdown drained a job to its checkpoint and deferred it to the
    /// next service start.
    pub const DRAIN_DEFERRED: Code = Code("SRV606");
    /// A malformed frame or HTTP request reached the service.
    pub const PROTOCOL_ERROR: Code = Code("SRV607");

    /// Every `SRV6xx` code with a one-line summary, for the docs drift
    /// test.
    pub const CATALOGUE: &[(Code, &str)] = &[
        (WORKER_LOST, "worker died; job reclaimed from checkpoint"),
        (QUEUE_FULL, "admission rejected: queue at capacity"),
        (JOURNAL_ERROR, "job journal unreadable, unwritable or stale"),
        (WORKER_SPAWN, "worker spawn or handshake failure"),
        (RETRIES_EXHAUSTED, "job failed after exhausting retries"),
        (DRAIN_DEFERRED, "shutdown deferred job to next start"),
        (PROTOCOL_ERROR, "malformed frame or request"),
    ];
}

/// Deterministic chaos plan carried per job (mirrors the manifest's
/// `[chaos]` section; drives `faults::storage::TransientJobFaults`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosCfg {
    /// Plan seed.
    pub seed: u64,
    /// Attempts that fail transiently for selected jobs.
    pub transient_attempts: u32,
    /// Every n-th job (by seeded name hash) is selected; `0` selects none.
    pub every_nth: u64,
}

/// One fully resolved job: a manifest `[[job]]` entry with every default
/// already applied ([`resolve_jobs`]). This is the unit of execution —
/// the orchestrator sends it to a worker verbatim, and the supervisor
/// hands it to its in-process executor.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedJob {
    /// Job name from the manifest (display only; not part of dispatch).
    pub name: String,
    /// What to do: `check`, `conform` or `analyze`.
    pub kind: cspm::manifest::JobKind,
    /// The CSPm script to load, resolved to a concrete path.
    pub script: PathBuf,
    /// Spec process name (`conform` jobs).
    pub spec: Option<String>,
    /// Trace corpus directory (`conform` jobs).
    pub corpus: Option<PathBuf>,
    /// Run only assertions whose description contains this substring.
    pub assertion: Option<String>,
    /// Worker threads for the engines.
    pub threads: usize,
    /// Per-job state budget.
    pub max_states: Option<u64>,
    /// Per-job wall budget in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Deterministic transient-fault plan, if the manifest has one.
    pub chaos: Option<ChaosCfg>,
}

/// Settings for whatever a manifest job and its `[run]` section leave
/// open: the CLI's flags for `autocsp run`, the service's configuration
/// for `autocsp serve`.
#[derive(Debug, Clone, Default)]
pub struct JobDefaults {
    /// Worker threads per job.
    pub threads: usize,
    /// Per-job state budget.
    pub max_states: Option<u64>,
    /// Per-job wall budget in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Spec process for `conform` jobs that name none (`autocsp run
    /// --spec`).
    pub spec: Option<String>,
}

/// Resolve every job of `manifest`, in manifest order. Each setting comes
/// from the job itself, else the manifest's `[run]` section, else
/// `defaults`.
pub fn resolve_jobs(manifest: &Manifest, defaults: &JobDefaults) -> Vec<ResolvedJob> {
    let chaos = manifest.chaos.map(|c| ChaosCfg {
        seed: c.seed,
        transient_attempts: c.transient_attempts,
        every_nth: c.every_nth,
    });
    manifest
        .jobs
        .iter()
        .map(|spec| ResolvedJob {
            name: spec.name.clone(),
            kind: spec.kind,
            script: spec.script.clone(),
            spec: spec.spec.clone().or_else(|| defaults.spec.clone()),
            corpus: spec.corpus.clone(),
            assertion: spec.assertion.clone(),
            threads: spec
                .threads
                .or(manifest.run.threads)
                .unwrap_or(defaults.threads)
                .max(1),
            max_states: spec
                .max_states
                .or(manifest.run.max_states)
                .or(defaults.max_states),
            timeout_ms: spec
                .timeout_ms
                .or(manifest.run.timeout_ms)
                .or(defaults.timeout_ms),
            chaos,
        })
        .collect()
}

/// Format a job id (a 64-bit content key) as the service's public token.
pub fn format_job_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a job-id token back to its key.
pub fn parse_job_id(token: &str) -> Option<u64> {
    if token.len() == 16 && token.bytes().all(|b| b.is_ascii_hexdigit()) {
        u64::from_str_radix(token, 16).ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_round_trip() {
        for id in [0_u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(parse_job_id(&format_job_id(id)), Some(id));
        }
        assert_eq!(parse_job_id("xyz"), None);
        assert_eq!(parse_job_id("0123456789abcde"), None);
    }
}
