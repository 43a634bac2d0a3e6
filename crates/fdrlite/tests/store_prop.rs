//! Property-based equivalence of the model-store checking path and the
//! direct per-call path: for randomly generated spec/impl pairs, a check
//! routed through a [`ModelStore`] must return the identical verdict —
//! counterexample trace included — as the direct [`Checker`] call, and a
//! warm store run must be verbatim-equal to the cold one at 1 and 8
//! threads while serving strictly more artifacts from cache.

use csp::{Definitions, EventId, EventSet, Process};
use fdrlite::{
    CheckError, CheckOptions, CheckRequest, CheckStats, Checker, ModelStore, RefinementModel,
    Verdict,
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

/// A random finite process over a 4-event alphabet (same shape as the
/// parallel-engine equivalence suite).
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
    fn store_path_matches_direct_checker_verbatim(
        spec in arb_process(3),
        impl_ in arb_process(4),
    ) {
        let defs = Definitions::new();
        let checker = Checker::new();
        let direct = checker.trace_refinement(&spec, &impl_, &defs);
        let store = ModelStore::new();
        let via_store =
            check(&store, RefinementModel::Traces, &spec, &impl_, &defs, 1).map(|(v, _)| v);
        match (&direct, &via_store) {
            (Ok(d), Ok(s)) => prop_assert_eq!(d, s),
            (Err(de), Err(se)) => prop_assert_eq!(de, se),
            (d, s) => prop_assert!(
                false,
                "paths disagree: direct={:?} store={:?}", d, s
            ),
        }
    }

    #[test]
    fn warm_store_runs_are_verbatim_equal_at_1_and_8_threads(
        spec in arb_process(3),
        impl_ in arb_process(4),
    ) {
        let defs = Definitions::new();
        for threads in [1usize, 8] {
            let store = ModelStore::new();
            let cold = check(&store, RefinementModel::Traces, &spec, &impl_, &defs, threads);
            let warm = check(&store, RefinementModel::Traces, &spec, &impl_, &defs, threads);
            match (&cold, &warm) {
                (Ok((cv, cs)), Ok((wv, ws))) => {
                    prop_assert_eq!(cv, wv);
                    // The cold run builds at least the spec's artifacts (it
                    // may still hit, e.g. when spec and impl are equal
                    // terms); the warm run compiles nothing at all.
                    prop_assert!(cs.store_misses > 0);
                    prop_assert!(ws.store_hits > 0);
                    prop_assert_eq!(ws.store_misses, 0);
                }
                (Err(ce), Err(we)) => prop_assert_eq!(ce, we),
                (c, w) => prop_assert!(
                    false,
                    "cold/warm disagree at {} threads: cold={:?} warm={:?}",
                    threads, c, w
                ),
            }
        }
    }

    #[test]
    fn failures_and_fd_store_paths_match_direct_checker(
        spec in arb_process(3),
        impl_ in arb_process(3),
    ) {
        let defs = Definitions::new();
        let checker = Checker::new();
        let store = ModelStore::new();

        let direct_f = checker.failures_refinement(&spec, &impl_, &defs);
        let store_f =
            check(&store, RefinementModel::Failures, &spec, &impl_, &defs, 1).map(|(v, _)| v);
        match (&direct_f, &store_f) {
            (Ok(d), Ok(s)) => prop_assert_eq!(d, s),
            (Err(de), Err(se)) => prop_assert_eq!(de, se),
            (d, s) => prop_assert!(false, "⊑F disagree: direct={:?} store={:?}", d, s),
        }

        let direct_fd = checker.failures_divergences_refinement(&spec, &impl_, &defs);
        let store_fd = check(
            &store, RefinementModel::FailuresDivergences, &spec, &impl_, &defs, 1,
        )
        .map(|(v, _)| v);
        match (&direct_fd, &store_fd) {
            (Ok(d), Ok(s)) => prop_assert_eq!(d, s),
            (Err(de), Err(se)) => prop_assert_eq!(de, se),
            (d, s) => prop_assert!(false, "⊑FD disagree: direct={:?} store={:?}", d, s),
        }
    }
}
