//! Property-based soundness of strong-bisimulation compression: on random
//! processes, a checker with `compress(true)` must reach the verdict an
//! uncompressed one reaches — pass or fail, and the kind of failure — for
//! deadlock freedom, divergence freedom, `[T=` and `[F=`.
//!
//! Which witness a failing check reports may differ: the quotient numbers
//! its states differently, so breadth-first ties break differently.

use std::mem::{discriminant, Discriminant};

use csp::{Definitions, EventId, EventSet, Process, RenameMap};
use fdrlite::{CheckError, Checker, CheckerBuilder, FailureKind, Verdict};
use proptest::prelude::*;

fn e(n: usize) -> EventId {
    EventId::from_index(n)
}

/// A random finite process over a 4-event alphabet (same shape as the
/// term-arena equivalence suite), so `SKIP`, `STOP`, τ-loops and refusals
/// all occur.
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
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::interrupt(p, q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::timeout(p, q)),
            (
                inner.clone(),
                inner.clone(),
                proptest::collection::vec(0usize..4, 0..3)
            )
                .prop_map(|(p, q, sync)| {
                    let sync: EventSet = sync.into_iter().map(e).collect();
                    Process::parallel(sync, p, q)
                }),
            (inner.clone(), proptest::collection::vec(0usize..4, 1..3)).prop_map(|(p, hide)| {
                let hidden: EventSet = hide.into_iter().map(e).collect();
                Process::hide(p, hidden)
            }),
            (
                inner,
                proptest::collection::vec((0usize..4, 0usize..4), 1..3)
            )
                .prop_map(|(p, pairs)| {
                    let mut map = RenameMap::new();
                    for (from, to) in pairs {
                        map.insert(e(from), e(to));
                    }
                    Process::rename(p, map)
                }),
        ]
    })
    .boxed()
}

/// What compression must preserve of a verdict: pass or fail, and the
/// kind of failure.
fn outcome(v: Result<Verdict, CheckError>) -> (bool, Option<Discriminant<FailureKind>>) {
    let v = v.expect("small random processes check within the default bounds");
    (
        v.is_pass(),
        v.counterexample().map(|c| discriminant(c.kind())),
    )
}

/// Deadlock freedom, divergence freedom, `spec [T= impl_` and
/// `spec [F= impl_`, in that order.
fn verdicts(
    checker: &Checker,
    spec: &Process,
    impl_: &Process,
) -> Vec<(bool, Option<Discriminant<FailureKind>>)> {
    let defs = Definitions::new();
    vec![
        outcome(checker.deadlock_free(impl_, &defs)),
        outcome(checker.divergence_free(impl_, &defs)),
        outcome(checker.trace_refinement(spec, impl_, &defs)),
        outcome(checker.failures_refinement(spec, impl_, &defs)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compression_preserves_every_verdict(spec in arb_process(3), impl_ in arb_process(4)) {
        let mut compressed = CheckerBuilder::new();
        compressed.compress(true);
        prop_assert_eq!(
            verdicts(&Checker::new(), &spec, &impl_),
            verdicts(&compressed.build(), &spec, &impl_)
        );
    }
}
