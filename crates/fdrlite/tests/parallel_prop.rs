//! Property-based equivalence of `ModelStore::check` with the store-free
//! checker: for randomly generated spec/impl process pairs and every
//! thread count from 1 to 8, `check` must return the **identical** verdict
//! — including the exact counterexample trace, not just its length — as
//! `Checker::trace_refinement`. On a pass every thread count must discover
//! the same product and expand each pair exactly once.
//!
//! These products stay far below the size at which a multi-threaded check
//! leaves the serial explorer, so at every thread count this covers the
//! store path: caching, the thread-count plumbing and the serial prefix.
//! The partitioned engine itself is driven directly, at 1 to 8 owners, by
//! the property tests in `crates/fdrlite/src/parallel.rs`.

use csp::{Definitions, EventId, EventSet, Process};
use fdrlite::{
    CheckError, CheckOptions, CheckRequest, CheckStats, Checker, ModelStore, RefinementModel,
    Verdict,
};
use proptest::prelude::*;

fn e(n: usize) -> EventId {
    EventId::from_index(n)
}

/// `spec ⊑T impl_` through a fresh store on `threads` workers.
fn check(
    checker: &Checker,
    spec: &Process,
    impl_: &Process,
    defs: &Definitions,
    threads: usize,
) -> Result<(Verdict, CheckStats), CheckError> {
    ModelStore::new().check(
        checker,
        &CheckRequest {
            model: RefinementModel::Traces,
            spec,
            impl_,
            defs,
            threads,
            options: CheckOptions::UNBOUNDED,
        },
    )
}

/// A random finite process over a 4-event alphabet, exercising prefixing,
/// both choices, sequencing, interleaving, synchronised parallel, and
/// hiding (hiding introduces τ edges, the weight-0 case of the engines'
/// 0-1 BFS).
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_engine_matches_serial_verbatim(
        spec in arb_process(3),
        impl_ in arb_process(4),
    ) {
        let defs = Definitions::new();
        let checker = Checker::new();
        let serial = checker.trace_refinement(&spec, &impl_, &defs);
        let serial_pairs = check(&checker, &spec, &impl_, &defs, 1)
            .map_or(0, |(_, stats)| stats.pairs_discovered);
        for threads in 1..=8usize {
            let parallel = check(&checker, &spec, &impl_, &defs, threads);
            match (&serial, &parallel) {
                (Ok(s), Ok((p, stats))) => {
                    prop_assert_eq!(s, p);
                    if let (Some(sc), Some(pc)) = (s.counterexample(), p.counterexample()) {
                        prop_assert_eq!(sc.trace().len(), pc.trace().len());
                    }
                    if p.is_pass() {
                        prop_assert_eq!(stats.pairs_discovered, serial_pairs);
                        prop_assert_eq!(stats.expansions, stats.pairs_discovered);
                    }
                }
                (Err(se), Err(pe)) => prop_assert_eq!(se, pe),
                (s, p) => prop_assert!(
                    false,
                    "engines disagree at {} threads: serial={:?} parallel={:?}",
                    threads, s, p
                ),
            }
        }
    }

    #[test]
    fn bounded_product_agrees_or_both_overflow(
        impl_ in arb_process(4),
    ) {
        // With a tight product bound, both engines must raise the same
        // `ProductExceeded` — or, when a violation and the bound race,
        // the parallel engine may legitimately find the violation the
        // serial engine reports (and vice versa); verdicts that do come
        // back must still be identical.
        let defs = Definitions::new();
        let checker = Checker {
            max_product: 8,
            ..Checker::new()
        };
        let spec = Process::prefix(e(0), Process::Stop);
        let serial = checker.trace_refinement(&spec, &impl_, &defs);
        let parallel = check(&checker, &spec, &impl_, &defs, 4).map(|(verdict, _)| verdict);
        match (&serial, &parallel) {
            (Ok(s), Ok(p)) => prop_assert_eq!(s, p),
            (Err(CheckError::ProductExceeded { limit: a }),
             Err(CheckError::ProductExceeded { limit: b })) => prop_assert_eq!(a, b),
            (Ok(v), Err(CheckError::ProductExceeded { .. }))
            | (Err(CheckError::ProductExceeded { .. }), Ok(v)) => {
                // Documented race: only legal when a violation exists.
                prop_assert!(!v.is_pass(), "bound/verdict race requires a violation");
            }
            (s, p) => prop_assert!(
                false,
                "unexpected outcome pair: serial={:?} parallel={:?}", s, p
            ),
        }
    }
}
