//! Property-based equivalence of `ModelStore::check` with the store-free
//! checker on the failures-family models, mirroring `parallel_prop.rs` for
//! `[T=` (and, like it, covering the store path: these small products
//! never leave the serial explorer; `crates/fdrlite/src/parallel.rs` drives
//! the partitioned engine directly):
//!
//! 1. For random spec/impl pairs and every thread count from 1 to 8,
//!    `ModelStore::check` in `[F=` and `[FD=` must return the **identical**
//!    verdict — exact counterexample trace and failure kind, not just
//!    pass/fail — as the serial `Checker`, and on a pass the same
//!    reachable product-pair count as the serial engine, each pair
//!    expanded exactly once.
//! 2. A cache entry written under the *previous* normal-form format
//!    version (magic `FDRLNRM\x02`, valid checksum) must be quarantined as
//!    stale and recompiled, never decoded — with the verdict unchanged.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use csp::{Definitions, EventId, EventSet, Process};
use fdrlite::persist::fnv1a64;
use fdrlite::{
    CheckError, CheckOptions, CheckRequest, CheckStats, Checker, ModelStore, PersistConfig,
    PersistentCache, RefinementModel, ResumePolicy, Verdict,
};
use proptest::prelude::*;

fn e(n: usize) -> EventId {
    EventId::from_index(n)
}

/// `spec ⊑ impl_` in `model` through `store` on `threads` workers.
fn check(
    store: &ModelStore,
    model: RefinementModel,
    spec: &Process,
    impl_: &Process,
    defs: &Definitions,
    threads: usize,
) -> Result<(Verdict, CheckStats), CheckError> {
    store.check(
        &Checker::new(),
        &CheckRequest {
            model,
            spec,
            impl_,
            defs,
            threads,
            options: CheckOptions::UNBOUNDED,
        },
    )
}

/// The `Checker` reference and `check` at every thread count from 1 to 8
/// must agree verbatim; on a pass, every thread count discovers the serial
/// engine's product and expands each pair once.
fn engines_agree(
    model: RefinementModel,
    spec: &Process,
    impl_: &Process,
) -> Result<(), TestCaseError> {
    let defs = Definitions::new();
    let checker = Checker::new();
    let reference = match model {
        RefinementModel::Failures => checker.failures_refinement(spec, impl_, &defs),
        _ => checker.failures_divergences_refinement(spec, impl_, &defs),
    };
    let store = ModelStore::new();
    let serial_pairs =
        check(&store, model, spec, impl_, &defs, 1).map_or(0, |(_, stats)| stats.pairs_discovered);
    for threads in 1..=8usize {
        match (
            &reference,
            &check(&store, model, spec, impl_, &defs, threads),
        ) {
            (Ok(s), Ok((p, ps))) => {
                prop_assert_eq!(s, p);
                if let (Some(sc), Some(pc)) = (s.counterexample(), p.counterexample()) {
                    prop_assert_eq!(sc.trace(), pc.trace());
                    prop_assert_eq!(sc.kind(), pc.kind());
                }
                if s.is_pass() {
                    // A pass explores the full reachable product in both
                    // engines; a fail races discovery order.
                    prop_assert_eq!(ps.pairs_discovered, serial_pairs);
                    prop_assert_eq!(ps.expansions, ps.pairs_discovered);
                }
            }
            (Err(se), Err(pe)) => prop_assert_eq!(se, pe),
            (s, p) => prop_assert!(
                false,
                "{:?} engines disagree at {} threads: serial={:?} parallel={:?}",
                model,
                threads,
                s,
                p
            ),
        }
    }
    Ok(())
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fdrlite-models-{tag}-{}-{n}", std::process::id()))
}

/// The same random-process strategy the engine-equivalence suite uses:
/// prefixing, both choices, sequencing, interleaving, synchronised
/// parallel and hiding over a 4-event alphabet. Internal choice and hiding
/// matter most here — they create the unstable states and nontrivial
/// acceptance sets that distinguish `[F=` from `[T=`.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_failures_matches_serial_verbatim(
        spec in arb_process(3),
        impl_ in arb_process(4),
    ) {
        engines_agree(RefinementModel::Failures, &spec, &impl_)?;
    }

    #[test]
    fn parallel_fd_matches_serial_verbatim(
        spec in arb_process(3),
        impl_ in arb_process(4),
    ) {
        engines_agree(RefinementModel::FailuresDivergences, &spec, &impl_)?;
    }
}

fn persisted_store(cache: &Arc<PersistentCache>, resume: ResumePolicy) -> ModelStore {
    let store = ModelStore::new();
    store.set_persist(PersistConfig {
        cache: Arc::clone(cache),
        checkpoint_every: None,
        resume,
    });
    store
}

/// Rewrite a cache entry so it reads as a *valid* file written by the
/// previous normal-form codec: old version byte in the magic, checksum
/// recomputed. Without the checksum fix the store would report plain
/// corruption (STO401) instead of the stale-version path (STO402).
fn downgrade_entry_version(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).expect("entry readable");
    assert!(
        bytes.len() > 16,
        "entry too small to carry magic + checksum"
    );
    assert_eq!(&bytes[..7], b"FDRLNRM", "expected a normal-form entry");
    let body_len = bytes.len() - 8;
    bytes[7] = 0x02;
    let sum = fnv1a64(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(path, &bytes).expect("entry writable");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn old_version_norm_entries_quarantine_and_recompile(
        spec in arb_process(3),
        impl_ in arb_process(4),
    ) {
        let defs = Definitions::new();
        let Ok((ref_verdict, _)) =
            check(&ModelStore::new(), RefinementModel::Failures, &spec, &impl_, &defs, 1)
        else {
            return Ok(());
        };

        // Warm the cache, then downgrade every normal-form entry to the
        // previous format version (checksum kept valid).
        let dir = fresh_dir("stale");
        let cache = Arc::new(PersistentCache::open(&dir).expect("cache opens"));
        let store = persisted_store(&cache, ResumePolicy::Off);
        check(&store, RefinementModel::Failures, &spec, &impl_, &defs, 1)
            .expect("cold run succeeds");
        let mut downgraded = 0u64;
        for entry in std::fs::read_dir(&dir).expect("cache dir listable") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|x| x.to_str()).unwrap_or("");
            if name.starts_with("n-") && name.ends_with(".bin") {
                downgrade_entry_version(&path);
                downgraded += 1;
            }
        }
        prop_assert!(downgraded > 0, "the warm cache must contain a normal form");

        // A fresh store over the stale cache must quarantine the entry and
        // rebuild, reaching the reference verdict.
        let cache2 = Arc::new(PersistentCache::open(&dir).expect("cache reopens"));
        let store2 = persisted_store(&cache2, ResumePolicy::Off);
        let (verdict, _) = check(&store2, RefinementModel::Failures, &spec, &impl_, &defs, 1)
            .expect("stale cache must not abort the check");
        prop_assert_eq!(&verdict, &ref_verdict);
        prop_assert!(
            cache2.quarantined() >= downgraded,
            "every old-version entry must take the quarantine path"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
