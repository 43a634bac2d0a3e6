//! Deterministic storage-fault injection for the persistent model store.
//!
//! [`fdrlite::PersistentCache`] exposes a [`StorageFaultHook`] that sees
//! every encoded cache entry immediately before it is written. This module
//! provides the seeded implementation of that hook: a [`StorageFaultEngine`]
//! that corrupts a deterministic subset of writes with torn writes,
//! truncation, bit flips, stale format versions and dropped writes — the
//! storage analogue of the bus-level [`crate::FaultEngine`].
//!
//! The contract under test is the cache's degradation guarantee: a
//! corrupted entry must never surface as a wrong compiled model or a wrong
//! verdict. It must either be rejected on load (checksum / version /
//! structure) and quarantined with an `STO4xx` diagnostic, or never land on
//! disk at all. Same seed + same write sequence ⇒ the same faults, so a CI
//! failure replays exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fdrlite::persist::fnv1a64;
use fdrlite::StorageFaultHook;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The ways a cache write can go wrong on its way to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// Crash before the rename: the write never lands (hook returns
    /// `false`).
    DropWrite,
    /// Torn write: only a prefix of the entry reaches disk.
    TornWrite,
    /// Truncation: the trailing bytes — including the checksum — are lost.
    Truncate,
    /// A single bit flip somewhere in the entry body.
    BitFlip,
    /// The header claims an unknown format version. The trailing checksum
    /// is re-computed so that *only* the version check can reject the
    /// entry — this exercises the `STO402` path rather than `STO401`.
    StaleVersion,
}

/// Every storage fault kind, in a fixed order (used by the fuzz tests to
/// sweep the full matrix).
pub const ALL_STORAGE_FAULTS: [StorageFaultKind; 5] = [
    StorageFaultKind::DropWrite,
    StorageFaultKind::TornWrite,
    StorageFaultKind::Truncate,
    StorageFaultKind::BitFlip,
    StorageFaultKind::StaleVersion,
];

/// A seeded [`StorageFaultHook`]: corrupts every `every_nth` write with a
/// fault kind drawn deterministically from the seed.
///
/// With `every_nth == 1` every write is faulted; with `every_nth == 3`
/// writes 3, 6, 9, … are. All counters and the per-write fault log are
/// observable afterwards, so a test can assert both that faults were
/// actually injected and that the cache degraded cleanly.
pub struct StorageFaultEngine {
    kinds: Vec<StorageFaultKind>,
    every_nth: u64,
    rng: Mutex<SmallRng>,
    seen: AtomicU64,
    injected: AtomicU64,
    log: Mutex<Vec<(String, StorageFaultKind)>>,
}

impl std::fmt::Debug for StorageFaultEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageFaultEngine")
            .field("kinds", &self.kinds)
            .field("every_nth", &self.every_nth)
            .field("seen", &self.seen.load(Ordering::Relaxed))
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl StorageFaultEngine {
    /// An engine that faults every `every_nth` write, cycling kinds drawn
    /// from `kinds` with the seeded generator. Empty `kinds` falls back to
    /// the full [`ALL_STORAGE_FAULTS`] matrix; `every_nth == 0` is treated
    /// as 1.
    pub fn new(seed: u64, kinds: &[StorageFaultKind], every_nth: u64) -> StorageFaultEngine {
        let kinds = if kinds.is_empty() {
            ALL_STORAGE_FAULTS.to_vec()
        } else {
            kinds.to_vec()
        };
        StorageFaultEngine {
            kinds,
            every_nth: every_nth.max(1),
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            seen: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// An engine that faults *every* write with the full fault matrix.
    pub fn all(seed: u64) -> StorageFaultEngine {
        StorageFaultEngine::new(seed, &[], 1)
    }

    /// Writes observed so far (faulted or not).
    pub fn writes_seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Faults actually injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The `(entry name, fault kind)` log, in write order.
    pub fn log(&self) -> Vec<(String, StorageFaultKind)> {
        self.log.lock().expect("fault log poisoned").clone()
    }

    fn record(&self, name: &str, kind: StorageFaultKind) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        self.log
            .lock()
            .expect("fault log poisoned")
            .push((name.to_string(), kind));
    }
}

/// Apply `kind` to an encoded cache entry in place. Returns `false` when
/// the write should be suppressed entirely (`DropWrite`, or a torn write
/// that tore before the first byte).
///
/// Exposed so the fuzz tests can drive each mutation directly against
/// bytes already on disk, not only through the write hook.
pub fn apply_storage_fault(
    kind: StorageFaultKind,
    bytes: &mut Vec<u8>,
    rng: &mut SmallRng,
) -> bool {
    match kind {
        StorageFaultKind::DropWrite => false,
        StorageFaultKind::TornWrite => {
            let cut = rng.gen_range(0..bytes.len().max(1));
            bytes.truncate(cut);
            !bytes.is_empty()
        }
        StorageFaultKind::Truncate => {
            let max_lost = bytes.len().clamp(1, 8);
            let lost = rng.gen_range(1..max_lost + 1);
            bytes.truncate(bytes.len().saturating_sub(lost));
            !bytes.is_empty()
        }
        StorageFaultKind::BitFlip => {
            if bytes.is_empty() {
                return false;
            }
            let at = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u8);
            bytes[at] ^= 1 << bit;
            true
        }
        StorageFaultKind::StaleVersion => {
            // Entry layout: 8-byte magic, 4-byte LE version, body,
            // 8-byte LE FNV-1a checksum over everything before it.
            if bytes.len() < 21 {
                return false;
            }
            let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
            let bumped = version.wrapping_add(1 + rng.gen_range(0..1000));
            bytes[8..12].copy_from_slice(&bumped.to_le_bytes());
            // Re-fix the checksum so only the version check can fire.
            let body_end = bytes.len() - 8;
            let sum = fnv1a64(&bytes[..body_end]);
            bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
            true
        }
    }
}

/// A deterministic transient-failure plan for supervised job runs
/// (`autocsp run` and `autocsp serve`): a seeded selection of jobs
/// whose first attempts fail with a *retryable* error.
///
/// Selection hashes the job *name* (not its position), so inserting or
/// reordering manifest jobs does not reshuffle which ones fail — and the
/// same plan produces the same retries in a disturbed and an undisturbed
/// run, which is what lets the supervision CI matrix diff their verdicts
/// byte for byte.
#[derive(Debug)]
pub struct TransientJobFaults {
    seed: u64,
    transient_attempts: u32,
    every_nth: u64,
    injected: AtomicU64,
}

impl TransientJobFaults {
    /// A plan that makes every `every_nth`-th job (by seeded name hash)
    /// fail transiently on its first `transient_attempts` attempts.
    /// `every_nth == 0` selects no jobs.
    pub fn new(seed: u64, transient_attempts: u32, every_nth: u64) -> TransientJobFaults {
        TransientJobFaults {
            seed,
            transient_attempts,
            every_nth,
            injected: AtomicU64::new(0),
        }
    }

    /// Whether this plan selects the job at all.
    pub fn selects(&self, job_name: &str) -> bool {
        if self.every_nth == 0 {
            return false;
        }
        let mut keyed = self.seed.to_le_bytes().to_vec();
        keyed.extend_from_slice(job_name.as_bytes());
        fnv1a64(&keyed).is_multiple_of(self.every_nth)
    }

    /// Whether attempt `attempt` (1-based) of `job_name` should fail
    /// transiently. Records the injection when it does.
    pub fn should_fail(&self, job_name: &str, attempt: u32) -> bool {
        let fail = self.selects(job_name) && attempt <= self.transient_attempts;
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fail
    }

    /// Transient failures injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

impl StorageFaultHook for StorageFaultEngine {
    fn corrupt(&self, name: &str, bytes: &mut Vec<u8>) -> bool {
        let n = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(self.every_nth) {
            return true;
        }
        let mut rng = self.rng.lock().expect("fault rng poisoned");
        let kind = self.kinds[rng.gen_range(0..self.kinds.len())];
        self.record(name, kind);
        apply_storage_fault(kind, bytes, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_entry() -> Vec<u8> {
        // magic + version + body + trailing FNV-1a checksum, like a real
        // cache entry.
        let mut e = Vec::new();
        e.extend_from_slice(b"FDRLTST\x01");
        e.extend_from_slice(&1u32.to_le_bytes());
        e.extend_from_slice(&[0xab; 64]);
        let sum = fnv1a64(&e);
        e.extend_from_slice(&sum.to_le_bytes());
        e
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = |seed: u64| {
            let eng = StorageFaultEngine::all(seed);
            for i in 0..32 {
                let mut bytes = sample_entry();
                let _ = eng.corrupt(&format!("e{i}"), &mut bytes);
            }
            eng.log()
        };
        assert_eq!(run(11), run(11), "same seed must fault identically");
        assert_ne!(run(11), run(12), "different seeds should diverge");
    }

    #[test]
    fn every_nth_gates_injection() {
        let eng = StorageFaultEngine::new(5, &[StorageFaultKind::BitFlip], 4);
        for i in 0..12 {
            let mut bytes = sample_entry();
            let _ = eng.corrupt(&format!("e{i}"), &mut bytes);
        }
        assert_eq!(eng.writes_seen(), 12);
        assert_eq!(eng.injected(), 3, "writes 4, 8, 12 fault");
    }

    #[test]
    fn stale_version_keeps_checksum_valid() {
        let mut bytes = sample_entry();
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(apply_storage_fault(
            StorageFaultKind::StaleVersion,
            &mut bytes,
            &mut rng
        ));
        let body_end = bytes.len() - 8;
        let sum = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
        assert_eq!(
            sum,
            fnv1a64(&bytes[..body_end]),
            "stale-version fault must leave a valid checksum"
        );
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        assert_ne!(version, 1, "version must actually change");
    }

    #[test]
    fn torn_and_truncated_entries_shrink() {
        let mut rng = SmallRng::seed_from_u64(9);
        let original = sample_entry();
        let mut torn = original.clone();
        let _ = apply_storage_fault(StorageFaultKind::TornWrite, &mut torn, &mut rng);
        assert!(torn.len() < original.len());
        let mut cut = original.clone();
        assert!(apply_storage_fault(
            StorageFaultKind::Truncate,
            &mut cut,
            &mut rng
        ));
        assert!(cut.len() < original.len() && !cut.is_empty());
    }

    #[test]
    fn transient_job_plan_is_deterministic_and_attempt_bounded() {
        let plan = TransientJobFaults::new(99, 2, 3);
        let other = TransientJobFaults::new(99, 2, 3);
        let names: Vec<String> = (0..30).map(|i| format!("job-{i}")).collect();
        let selected: Vec<&String> = names.iter().filter(|n| plan.selects(n)).collect();
        assert!(!selected.is_empty(), "a 30-job manifest must select some");
        assert!(selected.len() < names.len(), "…but not all");
        for name in &names {
            assert_eq!(
                plan.selects(name),
                other.selects(name),
                "same seed, same plan"
            );
        }
        let victim = selected[0];
        assert!(plan.should_fail(victim, 1));
        assert!(plan.should_fail(victim, 2));
        assert!(!plan.should_fail(victim, 3), "attempt 3 succeeds");
        assert_eq!(plan.injected(), 2);
        assert_eq!(TransientJobFaults::new(99, 2, 0).injected(), 0);
        assert!(!TransientJobFaults::new(99, 2, 0).should_fail(victim, 1));
    }

    #[test]
    fn faulted_cache_degrades_to_miss_never_a_wrong_artifact() {
        // Every write faulted with the full matrix: the cache must keep
        // answering (as misses or quarantined hits) and never panic.
        let dir = std::env::temp_dir().join(format!("faults-storage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(fdrlite::PersistentCache::open(&dir).expect("cache opens"));
        let engine = Arc::new(StorageFaultEngine::all(1234));
        cache.set_fault_hook(engine.clone() as Arc<dyn StorageFaultHook>);

        let store = fdrlite::ModelStore::new();
        store.set_persist(fdrlite::PersistConfig {
            cache: cache.clone(),
            checkpoint_every: None,
            resume: fdrlite::ResumePolicy::Off,
        });
        let checker = fdrlite::Checker::new();
        let defs = csp::Definitions::new();
        let a = csp::Process::prefix(
            csp::EventId::from_index(0),
            csp::Process::prefix(csp::EventId::from_index(1), csp::Process::Stop),
        );
        let (verdict, _) = store
            .check(
                &checker,
                &fdrlite::CheckRequest {
                    model: fdrlite::RefinementModel::Traces,
                    spec: &a,
                    impl_: &a,
                    defs: &defs,
                    threads: 1,
                    options: fdrlite::CheckOptions::UNBOUNDED,
                },
            )
            .expect("check runs");
        assert!(verdict.is_pass(), "P ⊑T P holds regardless of cache faults");
        assert!(engine.injected() > 0, "faults must actually fire");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
