//! Crash-safe persistence properties.
//!
//! 1. Interrupting a refinement at a *random* state budget, then resuming
//!    from the on-disk checkpoint, must reproduce the uninterrupted run
//!    verbatim — verdict, counterexample trace and (when both runs use one
//!    thread, or on a pass) the final state count — when the cut and the
//!    resume each run at 1 or 8 threads and each checkpoints in passing at
//!    a random cadence, and must leave no checkpoint behind. A passing
//!    resume expands every pair once. A wall budget covers a whole check,
//!    whatever its checkpoint cadence. These products stay below the size
//!    at which a multi-threaded check leaves the serial explorer, so this
//!    covers the store path at both thread counts; a cut of the
//!    partitioned engine resumed at 1 and 8 owners is tested in
//!    `crates/fdrlite/src/parallel.rs`, and at the CLI by
//!    `tests/crash_matrix.rs`.
//! 2. Corrupting on-disk cache entries (bit flips, truncation, header
//!    damage) must degrade to a quarantine + recompile, never a wrong
//!    verdict or a panic. Likewise a corrupted checkpoint must restart the
//!    check from scratch, not poison it.
//! 3. A checkpoint written by a retired codec — the whole-file frontier
//!    (`FDRLCKP\x02`, layout tag 2) or the serial layout (tag 1) — with a
//!    valid checksum must be quarantined as `STO405`, and the check must
//!    restart and reach the uninterrupted verdict.
//! 4. A checkpoint is a log of records, each adding the pairs found since
//!    the one before: checkpoints in passing write each visited pair once,
//!    a torn last record resumes from the record before it, and a record
//!    lost from the middle ends the resume's fold at the gap.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use csp::{Definitions, EventId, EventSet, Process};
use fdrlite::persist::fnv1a64;
use fdrlite::{
    BudgetReason, CheckError, CheckId, CheckOptions, CheckRequest, CheckStats, Checker, ModelStore,
    PersistConfig, PersistentCache, RefinementModel, ResumePolicy, StorageFaultHook, Verdict,
};
use proptest::prelude::*;

fn e(n: usize) -> EventId {
    EventId::from_index(n)
}

/// `spec ⊑T impl_` through `store` on `threads` workers under `options`.
fn check(
    store: &ModelStore,
    spec: &Process,
    impl_: &Process,
    defs: &Definitions,
    threads: usize,
    options: CheckOptions,
) -> Result<(Verdict, CheckStats), CheckError> {
    store.check(
        &Checker::new(),
        &CheckRequest {
            model: RefinementModel::Traces,
            spec,
            impl_,
            defs,
            threads,
            options,
        },
    )
}

/// Checkpoint files left in a cache directory.
fn checkpoints_left(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir.join("checkpoints")).map_or(0, Iterator::count)
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory per test case (proptest shrinks re-enter the
/// closure, so a fixed name would cross-contaminate runs).
fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fdrlite-persist-{tag}-{}-{n}", std::process::id()))
}

/// The same random-process strategy the engine-equivalence suite uses:
/// prefixing, both choices, sequencing, interleaving, synchronised
/// parallel and hiding over a 4-event alphabet.
fn arb_process(depth: u32) -> BoxedStrategy<Process> {
    let leaf = prop_oneof![
        Just(Process::Stop),
        Just(Process::Skip),
        (0usize..4).prop_map(|i| Process::prefix(e(i), Process::Stop)),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        prop_oneof![
            ((0usize..4), inner.clone()).prop_map(|(i, p)| Process::prefix(e(i), p)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::external_choice(p, q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::internal_choice(p, q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::seq(p, q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::interleave(p, q)),
            (
                inner.clone(),
                inner.clone(),
                proptest::collection::vec(0usize..4, 0..3)
            )
                .prop_map(|(p, q, sync)| {
                    let sync: EventSet = sync.into_iter().map(e).collect();
                    Process::parallel(sync, p, q)
                }),
            (inner, proptest::collection::vec(0usize..4, 1..3)).prop_map(|(p, hide)| {
                let hidden: EventSet = hide.into_iter().map(e).collect();
                Process::hide(p, hidden)
            }),
        ]
    })
    .boxed()
}

fn persisted_store(cache: &Arc<PersistentCache>, resume: ResumePolicy) -> ModelStore {
    checkpointing_store(cache, resume, None)
}

fn checkpointing_store(
    cache: &Arc<PersistentCache>,
    resume: ResumePolicy,
    checkpoint_every: Option<u64>,
) -> ModelStore {
    let store = ModelStore::new();
    store.set_persist(PersistConfig {
        cache: Arc::clone(cache),
        checkpoint_every,
        resume,
    });
    store
}

/// No checkpoints in passing, or one every 1–16 new pairs.
fn arb_cadence() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (1u64..=16).prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interrupt_and_resume_matches_uninterrupted(
        spec in arb_process(3),
        impl_ in arb_process(4),
        cut in 1u64..40,
        cut_every in arb_cadence(),
        resume_every in arb_cadence(),
    ) {
        let defs = Definitions::new();
        let unbounded = CheckOptions::UNBOUNDED;
        let Ok((ref_verdict, ref_stats)) =
            check(&ModelStore::new(), &spec, &impl_, &defs, 1, unbounded)
        else {
            // A hard cap aborted the reference; nothing to resume.
            return Ok(());
        };
        for (cut_threads, resume_threads) in [(1usize, 1usize), (1, 8), (8, 8), (8, 1)] {
            let dir = fresh_dir("resume");
            let cache = Arc::new(PersistentCache::open(&dir).expect("cache opens"));
            let cut_opts = CheckOptions { max_states: Some(cut), max_wall_ms: None };
            let (first, _) = check(
                &checkpointing_store(&cache, ResumePolicy::Off, cut_every),
                &spec, &impl_, &defs, cut_threads, cut_opts,
            )
            .expect("budgeted run cannot hit a hard cap the reference missed");

            let (final_verdict, final_stats) = if let Some(inc) = first.inconclusive() {
                let token = inc.resume.as_deref();
                prop_assert!(
                    token.is_some(),
                    "a budget-cut persistent check must leave a resume token"
                );
                let id = CheckId::from_token(token.unwrap()).expect("token parses");
                check(
                    &checkpointing_store(&cache, ResumePolicy::Token(id), resume_every),
                    &spec, &impl_, &defs, resume_threads, unbounded,
                )
                .expect("resumed run cannot hit a hard cap the reference missed")
            } else {
                // The check finished before the budget bit; it must already
                // agree with the reference.
                check(
                    &persisted_store(&cache, ResumePolicy::Off),
                    &spec, &impl_, &defs, cut_threads, unbounded,
                )
                .expect("warm re-run cannot hit a hard cap the reference missed")
            };

            prop_assert_eq!(&final_verdict, &ref_verdict);
            // State counts: exact when both runs use the serial engine (a
            // serial cut resumes serially as an exact continuation); the
            // parallel engine's discovery order races on a fail, so only a
            // pass pins its count (the full reachable product).
            if (cut_threads, resume_threads) == (1, 1) || ref_verdict.is_pass() {
                prop_assert_eq!(final_stats.pairs_discovered, ref_stats.pairs_discovered);
            }
            // Every pair is expanded once, across the cut as well.
            if final_verdict.is_pass() {
                prop_assert_eq!(final_stats.expansions, final_stats.pairs_discovered);
            }
            // The resume found the cut's checkpoint, whatever the thread
            // counts, and a conclusive verdict removed it.
            prop_assert!(
                checkpoints_left(&dir) == 0,
                "checkpoint left after a cut at {} thread(s) resumed at {}",
                cut_threads,
                resume_threads
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// `k` interleaved three-event cycles against an `m`-node ring spec that
/// allows every event: a passing check over `3^k · m / 3` product pairs
/// (for `m` divisible by 3).
fn cycles_against_ring(k: usize, m: usize) -> (Definitions, Process, Process) {
    let mut defs = Definitions::new();
    let cycles: Vec<Process> = (0..k)
        .map(|i| {
            let d = defs.declare(&format!("P{i}"));
            let events = [e(3 * i), e(3 * i + 1), e(3 * i + 2)];
            defs.define(d, Process::prefix_chain(events, Process::var(d)));
            Process::var(d)
        })
        .collect();
    let ring: Vec<_> = (0..m).map(|j| defs.declare(&format!("SPEC{j}"))).collect();
    for (j, &node) in ring.iter().enumerate() {
        let next = Process::var(ring[(j + 1) % m]);
        let body = (0..3 * k)
            .map(|ev| Process::prefix(e(ev), next.clone()))
            .collect();
        defs.define(node, Process::external_choice_all(body));
    }
    (defs, Process::var(ring[0]), Process::interleave_all(cycles))
}

#[test]
fn wall_budget_spans_every_checkpoint_slice() {
    // Each stretch of 1,000 new pairs between checkpoints ends well inside
    // the budget; the whole walk over 196,830 pairs takes several times
    // longer, checkpoints or not.
    let (defs, spec, impl_) = cycles_against_ring(8, 90);
    let budget = CheckOptions {
        max_states: None,
        max_wall_ms: Some(300),
    };
    for threads in [1usize, 8] {
        let dir = fresh_dir("wall");
        let cache = Arc::new(PersistentCache::open(&dir).expect("cache opens"));
        let store = ModelStore::new();
        store.set_persist(PersistConfig {
            cache: Arc::clone(&cache),
            checkpoint_every: Some(1_000),
            resume: ResumePolicy::Off,
        });
        let (verdict, stats) =
            check(&store, &spec, &impl_, &defs, threads, budget).expect("the check runs");
        let inc = verdict.inconclusive().unwrap_or_else(|| {
            panic!("{threads} thread(s): the budget must cut the walk, got {verdict:?}")
        });
        assert_eq!(
            inc.reason,
            BudgetReason::Wall { limit_ms: 300 },
            "{threads} thread(s)"
        );
        assert!(
            inc.resume.is_some(),
            "a cut persistent check leaves a token"
        );
        assert!(stats.pairs_discovered < 196_830);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Flip a byte, cut a tail, or wreck the header of `path` according to
/// `mode`/`at`.
fn damage_file(path: &std::path::Path, mode: u8, at: usize) {
    let mut bytes = std::fs::read(path).expect("entry readable");
    if bytes.is_empty() {
        return;
    }
    match mode % 3 {
        0 => {
            let i = at % bytes.len();
            bytes[i] ^= 0x40;
        }
        1 => {
            let keep = at % bytes.len();
            bytes.truncate(keep);
        }
        _ => {
            let end = bytes.len().min(12);
            for b in &mut bytes[..end] {
                *b = b.wrapping_add(1);
            }
        }
    }
    std::fs::write(path, &bytes).expect("entry writable");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn corrupted_entries_degrade_to_recompile(
        spec in arb_process(3),
        impl_ in arb_process(4),
        mode in 0u8..3,
        at in 0usize..4096,
    ) {
        let defs = Definitions::new();
        let unbounded = CheckOptions::UNBOUNDED;
        let Ok((ref_verdict, _)) =
            check(&ModelStore::new(), &spec, &impl_, &defs, 1, unbounded)
        else {
            return Ok(());
        };

        // Warm the cache, then damage every entry on disk.
        let dir = fresh_dir("fuzz");
        let cache = Arc::new(PersistentCache::open(&dir).expect("cache opens"));
        let store = persisted_store(&cache, ResumePolicy::Off);
        check(&store, &spec, &impl_, &defs, 1, unbounded).expect("cold run succeeds");
        let mut damaged = 0u64;
        for entry in std::fs::read_dir(&dir).expect("cache dir listable") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|x| x.to_str()) == Some("bin") {
                damage_file(&path, mode, at);
                damaged += 1;
            }
        }
        prop_assert!(damaged > 0, "the warm cache must contain entries to damage");

        // A fresh store over the damaged cache must still reach the
        // reference verdict, quarantining what it rejects.
        let cache2 = Arc::new(PersistentCache::open(&dir).expect("cache reopens"));
        let store2 = persisted_store(&cache2, ResumePolicy::Off);
        let (verdict, _) = check(&store2, &spec, &impl_, &defs, 1, unbounded)
            .expect("damaged cache must not abort the check");
        prop_assert_eq!(&verdict, &ref_verdict);
        prop_assert!(
            cache2.quarantined() + cache2.disk_misses() >= damaged,
            "every damaged entry is either rejected or overwritten, never trusted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checkpoint_restarts_cleanly(
        spec in arb_process(3),
        impl_ in arb_process(4),
        cut in 1u64..20,
        mode in 0u8..3,
        at in 0usize..4096,
    ) {
        let defs = Definitions::new();
        let unbounded = CheckOptions::UNBOUNDED;
        let Ok((ref_verdict, _)) =
            check(&ModelStore::new(), &spec, &impl_, &defs, 1, unbounded)
        else {
            return Ok(());
        };

        let dir = fresh_dir("ckpt");
        let cache = Arc::new(PersistentCache::open(&dir).expect("cache opens"));
        let cut_opts = CheckOptions { max_states: Some(cut), max_wall_ms: None };
        let store = persisted_store(&cache, ResumePolicy::Off);
        let (first, _) =
            check(&store, &spec, &impl_, &defs, 1, cut_opts).expect("budgeted run succeeds");
        let Some(token) = first.inconclusive().and_then(|i| i.resume.clone()) else {
            // Conclusive before the cut: no checkpoint to corrupt.
            let _ = std::fs::remove_dir_all(&dir);
            return Ok(());
        };
        let ckpt = dir.join("checkpoints").join(format!("{token}.ckpt"));
        prop_assert!(ckpt.exists(), "the resume token must name a real checkpoint");
        damage_file(&ckpt, mode, at);

        let id = CheckId::from_token(&token).expect("token parses");
        let cache2 = Arc::new(PersistentCache::open(&dir).expect("cache reopens"));
        let store2 = persisted_store(&cache2, ResumePolicy::Token(id));
        let (verdict, _) = check(&store2, &spec, &impl_, &defs, 1, unbounded)
            .expect("resume over a damaged checkpoint must not abort");
        prop_assert_eq!(&verdict, &ref_verdict);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint of check `id` in a retired codec, with a valid checksum:
/// the root pair (both compilers number their initial state 0) as the
/// only visited pair, pending at depth 0. `FDRLCKP\x02` with layout tag 2
/// is the whole-file frontier; tag 1 is the serial layout, which kept a
/// parent pointer and an edge label per node and its deque.
fn retired_checkpoint(id: &str, tag: u8) -> Vec<u8> {
    let mut bytes = b"FDRLCKP\x02".to_vec();
    bytes.extend(1u32.to_le_bytes()); // format version
    for half in [&id[..16], &id[16..]] {
        bytes.extend(
            u64::from_str_radix(half, 16)
                .expect("hex token")
                .to_le_bytes(),
        );
    }
    bytes.push(0); // the traces walk
    bytes.push(tag);
    bytes.extend(1u32.to_le_bytes());
    if tag == 2 {
        bytes.extend([0u8; 8]); // impl state, spec node
        bytes.extend(1u32.to_le_bytes());
        bytes.extend([0u8; 12]); // impl state, spec node, visible depth
        bytes.extend(1u64.to_le_bytes()); // discovered
        bytes.extend(u32::MAX.to_le_bytes()); // no violation
        for counter in [0u64, 0, 0, 1] {
            // expansions, transitions, batches, frontier peak
            bytes.extend(counter.to_le_bytes());
        }
    } else {
        bytes.extend([0u8; 16]); // impl state, spec node, visible depth, parent
        bytes.push(0); // no edge label
        bytes.extend(1u32.to_le_bytes());
        bytes.extend(0u32.to_le_bytes()); // deque: the root node
        for counter in [1u64, 0, 0, 1] {
            // discovered, expansions, transitions, frontier peak
            bytes.extend(counter.to_le_bytes());
        }
    }
    let sum = fnv1a64(&bytes);
    bytes.extend(sum.to_le_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn retired_checkpoint_layouts_are_quarantined(
        spec in arb_process(3),
        impl_ in arb_process(4),
    ) {
        let defs = Definitions::new();
        let unbounded = CheckOptions::UNBOUNDED;
        let Ok((ref_verdict, _)) =
            check(&ModelStore::new(), &spec, &impl_, &defs, 1, unbounded)
        else {
            return Ok(());
        };
        for (tag, threads) in [(2u8, 8usize), (1, 1)] {
            // A one-pair budget cuts every check at its root, so every case
            // leaves a checkpoint to overwrite.
            let dir = fresh_dir("retired");
            let cache = Arc::new(PersistentCache::open(&dir).expect("cache opens"));
            let cut_opts = CheckOptions { max_states: Some(1), max_wall_ms: None };
            let store = persisted_store(&cache, ResumePolicy::Off);
            let (first, _) = check(&store, &spec, &impl_, &defs, threads, cut_opts)
                .expect("budgeted run succeeds");
            let token = first.inconclusive().and_then(|i| i.resume.clone());
            prop_assert!(token.is_some(), "a root cut must leave a resume token: {:?}", first);
            let token = token.unwrap();
            let ckpt = dir.join("checkpoints").join(format!("{token}.ckpt"));
            std::fs::write(&ckpt, retired_checkpoint(&token, tag)).expect("checkpoint writable");

            let id = CheckId::from_token(&token).expect("token parses");
            let cache2 = Arc::new(PersistentCache::open(&dir).expect("cache reopens"));
            let store2 = persisted_store(&cache2, ResumePolicy::Token(id));
            let (verdict, _) = check(&store2, &spec, &impl_, &defs, threads, unbounded)
                .expect("resume over a retired checkpoint must not abort");
            prop_assert_eq!(&verdict, &ref_verdict);
            prop_assert_eq!(cache2.quarantined(), 1);
            let codes: Vec<&str> = cache2.take_diagnostics().iter().map(|d| d.code.0).collect();
            prop_assert_eq!(codes, vec![fdrlite::persist::BAD_CHECKPOINT.0]);
            prop_assert!(dir.join("quarantine").join(format!("{token}.ckpt")).exists());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A pass-through [`StorageFaultHook`] that counts and keeps the entry of
/// every checkpoint write it lets through, and drops the checkpoint writes
/// `drop` picks (numbered from 1).
struct Recorder {
    drop: fn(usize) -> bool,
    seen: AtomicUsize,
    written: AtomicU64,
    entries: Mutex<Vec<Vec<u8>>>,
}

impl Recorder {
    fn new(drop: fn(usize) -> bool) -> Arc<Recorder> {
        Arc::new(Recorder {
            drop,
            seen: AtomicUsize::new(0),
            written: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        })
    }

    fn entries(&self) -> Vec<Vec<u8>> {
        self.entries.lock().expect("entries lock").clone()
    }
}

impl StorageFaultHook for Recorder {
    fn corrupt(&self, name: &str, bytes: &mut Vec<u8>) -> bool {
        if !name.starts_with("checkpoints/") {
            return true;
        }
        if (self.drop)(self.seen.fetch_add(1, Ordering::Relaxed) + 1) {
            return false;
        }
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.entries
            .lock()
            .expect("entries lock")
            .push(bytes.clone());
        true
    }
}

/// The `discovered` counter of a checkpoint record's entry: it follows the
/// header (magic, version, check id, model tag), the count of pairs listed
/// before the record, the record's new pairs and its pending tasks.
fn discovered_of(entry: &[u8]) -> u64 {
    let u32_at = |at: usize| u32::from_le_bytes(entry[at..at + 4].try_into().unwrap()) as usize;
    let pending = 41 + 8 * u32_at(37);
    let at = pending + 4 + 12 * u32_at(pending);
    u64::from_le_bytes(entry[at..at + 8].try_into().unwrap())
}

/// A cache over a fresh directory with `hook` installed.
fn hooked_cache(tag: &str, hook: &Arc<Recorder>) -> (PathBuf, Arc<PersistentCache>) {
    let dir = fresh_dir(tag);
    let cache = Arc::new(PersistentCache::open(&dir).expect("cache opens"));
    cache.set_fault_hook(Arc::clone(hook) as Arc<dyn StorageFaultHook>);
    (dir, cache)
}

/// Resume check `id` at one pair of budget, which stops it at once: the
/// pairs it reports are those of the record its fold reached. The resume
/// must quarantine nothing.
fn resume_point(
    dir: &std::path::Path,
    id: CheckId,
    (defs, spec, impl_): &(Definitions, Process, Process),
    threads: usize,
) -> u64 {
    let cache = Arc::new(PersistentCache::open(dir).expect("cache reopens"));
    let stop = CheckOptions {
        max_states: Some(1),
        max_wall_ms: None,
    };
    let (verdict, _) = check(
        &persisted_store(&cache, ResumePolicy::Token(id)),
        spec,
        impl_,
        defs,
        threads,
        stop,
    )
    .expect("the resume runs");
    assert_eq!(cache.quarantined(), 0);
    assert!(cache.take_diagnostics().is_empty());
    verdict
        .inconclusive()
        .expect("a one-pair budget stops the resume")
        .states_explored
}

/// Cut the workload at `cut` pairs on `threads` through `cache`,
/// checkpointing every 1,000 pairs; the cut's resume token.
fn cut_with_checkpoints(
    cache: &Arc<PersistentCache>,
    (defs, spec, impl_): &(Definitions, Process, Process),
    threads: usize,
    cut: u64,
) -> CheckId {
    let cut_opts = CheckOptions {
        max_states: Some(cut),
        max_wall_ms: None,
    };
    let store = checkpointing_store(cache, ResumePolicy::Off, Some(1_000));
    let (verdict, _) = check(&store, spec, impl_, defs, threads, cut_opts).expect("the cut runs");
    let token = verdict.inconclusive().and_then(|i| i.resume.clone());
    CheckId::from_token(&token.expect("a cut leaves a token")).expect("token parses")
}

#[test]
fn checkpoints_in_passing_write_each_visited_pair_once() {
    // Four cycles against a long ring keep the pending tasks, which every
    // record repeats, to a few dozen, so the bound measures visited pairs.
    let (defs, spec, impl_) = cycles_against_ring(4, 1458);
    let hook = Recorder::new(|_| false);
    let (dir, cache) = hooked_cache("bytes", &hook);
    let store = checkpointing_store(&cache, ResumePolicy::Off, Some(1_000));
    let unbounded = CheckOptions::UNBOUNDED;
    let (verdict, stats) =
        check(&store, &spec, &impl_, &defs, 1, unbounded).expect("the check runs");
    assert!(verdict.is_pass(), "{verdict:?}");
    assert_eq!(stats.pairs_discovered, 39_366);
    assert!(
        hook.entries().len() >= 39,
        "one checkpoint per 1,000 new pairs"
    );

    // One whole checkpoint of the final visited set: what a cut at that
    // size writes.
    let whole_dir = fresh_dir("bytes-whole");
    let whole_cache = Arc::new(PersistentCache::open(&whole_dir).expect("cache opens"));
    let cut_opts = CheckOptions {
        max_states: Some(stats.pairs_discovered),
        max_wall_ms: None,
    };
    let (cut, _) = check(
        &persisted_store(&whole_cache, ResumePolicy::Off),
        &spec,
        &impl_,
        &defs,
        1,
        cut_opts,
    )
    .expect("the cut runs");
    let token = cut
        .inconclusive()
        .and_then(|i| i.resume.clone())
        .expect("a cut leaves a token");
    let ckpt = whole_dir.join("checkpoints").join(format!("{token}.ckpt"));
    let whole = std::fs::metadata(ckpt).expect("the cut's checkpoint").len();
    let written = hook.written.load(Ordering::Relaxed);
    assert!(
        written < 2 * whole,
        "checkpoints in passing wrote {written} bytes; one whole checkpoint is {whole}"
    );
    for dir in [dir, whole_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_torn_last_record_resumes_from_the_record_before_it() {
    let workload = cycles_against_ring(4, 1458);
    let (defs, spec, impl_) = &workload;
    let unbounded = CheckOptions::UNBOUNDED;
    let (ref_verdict, ref_stats) =
        check(&ModelStore::new(), spec, impl_, defs, 1, unbounded).expect("the reference runs");
    let hook = Recorder::new(|_| false);
    let (dir, cache) = hooked_cache("torn", &hook);
    let id = cut_with_checkpoints(&cache, &workload, 1, 20_000);
    let entries = hook.entries();
    assert!(entries.len() >= 20, "records in passing, then the cut's");
    let ckpt = dir.join("checkpoints").join(format!("{}.ckpt", id.token()));
    let bytes = std::fs::read(&ckpt).expect("checkpoint readable");
    std::fs::write(&ckpt, &bytes[..bytes.len() - 5]).expect("checkpoint writable");

    // The resume continues from the last record in passing, counters and
    // all, to the reference's verdict and totals.
    let before = discovered_of(&entries[entries.len() - 2]);
    assert_eq!(resume_point(&dir, id, &workload, 1), before);
    let cache2 = Arc::new(PersistentCache::open(&dir).expect("cache reopens"));
    let (verdict, stats) = check(
        &persisted_store(&cache2, ResumePolicy::Token(id)),
        spec,
        impl_,
        defs,
        1,
        unbounded,
    )
    .expect("the resume runs");
    assert_eq!(verdict, ref_verdict);
    assert_eq!(stats.pairs_discovered, ref_stats.pairs_discovered);
    assert_eq!(stats.expansions, stats.pairs_discovered);
    assert_eq!(checkpoints_left(&dir), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dropped_middle_record_ends_the_resume_at_the_gap() {
    // Past the 16,384 pairs at which eight threads switch engines: at 8
    // the records around the gap come from the partitioned engine.
    let workload = cycles_against_ring(8, 18);
    let (defs, spec, impl_) = &workload;
    let unbounded = CheckOptions::UNBOUNDED;
    let (ref_verdict, _) =
        check(&ModelStore::new(), spec, impl_, defs, 1, unbounded).expect("the reference runs");
    for threads in [1usize, 8] {
        // Write 20 is lost, and the run dies after write 24.
        let hook = Recorder::new(|n| n == 20 || n > 24);
        let (dir, cache) = hooked_cache("gap", &hook);
        let id = cut_with_checkpoints(&cache, &workload, threads, 38_000);
        let entries = hook.entries();
        assert!(
            entries.len() > 19,
            "{threads} thread(s): records past the gap"
        );
        let before_gap = discovered_of(&entries[18]);
        assert_eq!(
            resume_point(&dir, id, &workload, threads),
            before_gap,
            "{threads} thread(s)"
        );
        let cache2 = Arc::new(PersistentCache::open(&dir).expect("cache reopens"));
        let (verdict, _) = check(
            &persisted_store(&cache2, ResumePolicy::Token(id)),
            spec,
            impl_,
            defs,
            threads,
            unbounded,
        )
        .expect("the resume runs");
        assert_eq!(verdict, ref_verdict, "{threads} thread(s)");
        assert_eq!(checkpoints_left(&dir), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
