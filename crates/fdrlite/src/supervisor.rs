//! The vocabulary of supervised checking jobs.
//!
//! A checking job — a refinement check, a conformance sweep, an analysis
//! — ends in a [`JobStatus`] with deterministic verdict lines
//! ([`JobReport`]), or fails with a [`JobError`] that says whether a
//! retry could help. Transient failures retry under a bounded,
//! deterministic exponential-backoff schedule ([`RetryPolicy`]).
//!
//! The runner that applies these rules — panic isolation, retries, run
//! budgets and the crash-safe journal — lives in the `service` crate
//! (`service::supervisor`), next to the checking service's orchestrator,
//! which follows the same rules across a worker farm. Both run jobs on
//! one executor (`service::exec::Executor`) and record them in one
//! journal (`service::journal`).

use std::fmt;

use crate::persist::fnv1a64;

/// Terminal state of a supervised job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The check ran to completion and the property holds.
    Passed,
    /// The check ran to completion and found a counterexample.
    Refuted,
    /// The check hit its own budget; a resume token may be embedded in the
    /// job's verdict lines.
    Inconclusive,
    /// The job could not produce a verdict at all — it panicked, failed
    /// permanently, or exhausted its retries. Never a wrong verdict.
    Failed,
}

impl JobStatus {
    /// Lower-case label used in verdict lines, journals and wire frames.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Passed => "passed",
            JobStatus::Refuted => "refuted",
            JobStatus::Inconclusive => "inconclusive",
            JobStatus::Failed => "failed",
        }
    }

    /// The status whose [`JobStatus::label`] is `label`.
    pub fn from_label(label: &str) -> Option<JobStatus> {
        [
            JobStatus::Passed,
            JobStatus::Refuted,
            JobStatus::Inconclusive,
            JobStatus::Failed,
        ]
        .into_iter()
        .find(|status| status.label() == label)
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a job hands back when it ran to a verdict (including an
/// inconclusive one). Failures go through [`JobError`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// The verdict class; must not be [`JobStatus::Failed`] (failures are
    /// expressed as [`JobError`]s so the supervisor owns the diagnostic).
    pub status: JobStatus,
    /// Deterministic verdict lines for stdout — no timings, no attempt
    /// counts, no host paths, nothing that would differ between a
    /// disturbed and an undisturbed run.
    pub lines: Vec<String>,
    /// `true` when the verdict is inconclusive *because a shutdown was
    /// requested mid-check* ([`crate::BudgetReason::Interrupted`]). Such a
    /// report is not journaled: the job runs again, picks up its
    /// per-check checkpoint and continues to the verdict the undisturbed
    /// run would have reached.
    pub interrupted: bool,
}

/// How a job failed; decides whether the supervisor retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Worth retrying: the failure is environmental and may clear
    /// (storage faults, lock contention, quarantine + recompile churn).
    Transient(String),
    /// Not worth retrying: the failure is inherent to the job.
    Permanent(String),
}

/// Bounded exponential backoff with deterministic, seedable jitter.
///
/// The delay before attempt `n + 1` is
/// `min(base · 2ⁿ⁻¹, max) + jitter`, where the jitter is an FNV hash of
/// `(seed, job key, attempt)` reduced to at most a quarter of the capped
/// delay. Two runs with the same seed retry on the identical schedule —
/// which keeps fault-injection tests reproducible.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per job, first try included. `1` disables retry.
    pub max_attempts: u32,
    /// Backoff base in milliseconds.
    pub base_delay_ms: u64,
    /// Cap on the exponential term in milliseconds.
    pub max_delay_ms: u64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 10,
            max_delay_ms: 200,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay (ms) to sleep after attempt `attempt` (1-based) of the
    /// job with key `job_key` failed transiently.
    pub fn delay_ms(&self, job_key: u64, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(16);
        let exp = self.base_delay_ms.saturating_mul(1_u64 << shift);
        let capped = exp.min(self.max_delay_ms);
        let mut bytes = [0_u8; 20];
        bytes[..8].copy_from_slice(&self.seed.to_le_bytes());
        bytes[8..16].copy_from_slice(&job_key.to_le_bytes());
        bytes[16..].copy_from_slice(&attempt.to_le_bytes());
        capped + fnv1a64(&bytes) % (capped / 4 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_labels_round_trip() {
        for status in [
            JobStatus::Passed,
            JobStatus::Refuted,
            JobStatus::Inconclusive,
            JobStatus::Failed,
        ] {
            assert_eq!(JobStatus::from_label(status.label()), Some(status));
        }
        assert_eq!(JobStatus::from_label("exploded"), None);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 10,
            max_delay_ms: 200,
            seed: 99,
        };
        let a: Vec<u64> = (1..5).map(|n| policy.delay_ms(1234, n)).collect();
        let b: Vec<u64> = (1..5).map(|n| policy.delay_ms(1234, n)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (i, &d) in a.iter().enumerate() {
            let exp = (10_u64 << i).min(200);
            assert!(
                d >= exp && d <= exp + exp / 4,
                "attempt {}: {d} vs {exp}",
                i + 1
            );
        }
        let other = RetryPolicy {
            seed: 100,
            ..policy
        };
        assert_ne!(
            (1..5).map(|n| other.delay_ms(1234, n)).collect::<Vec<_>>(),
            a,
            "jitter is seed-dependent"
        );
    }
}
