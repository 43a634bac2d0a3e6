//! Property-based soundness of the semantic analysis layer against the
//! checker itself, over randomly generated processes:
//!
//! * the cached [`GraphAnalysis`] divergence-freedom verdict must agree
//!   with a `P [FD= P` self-check through the *direct* checker path (whose
//!   divergence phase runs the independent `divergent_states_of` sweep,
//!   not the Tarjan pass under test);
//! * the compositional state-space estimate, whenever every leaf compiles
//!   within its cap, must be an upper bound on the states the compile
//!   actually discovers;
//! * the a-priori `predicted_pairs` product bound in [`CheckStats`] must
//!   dominate the pairs a refinement run really explores;
//! * the inferred may-alphabet must contain every visible event on a
//!   reachable transition of the compiled LTS — an oracle that shares
//!   nothing with the inference but the process term.
//!
//! Every model may call one recursive definition `R` and use renaming, so
//! the inference's fixpoint and its rename arm both run.

use std::collections::HashSet;

use csp::analysis::{estimate, AlphabetInference};
use csp::{DefId, Definitions, EventId, EventSet, Process, RenameMap, TermArena};
use fdrlite::{CheckOptions, CheckRequest, Checker, ModelStore, RefinementModel};
use proptest::prelude::*;

fn e(n: usize) -> EventId {
    EventId::from_index(n)
}

/// `R`'s id: it is the only definition of every table [`arb_model`]
/// builds, so it is the first one declared.
fn r() -> DefId {
    Definitions::new().declare("R")
}

/// The body of `R` after its guarding prefix. `R` recurs only in tail
/// position (after a prefix, in a choice branch, after `;`), so its state
/// space stays finite.
fn arb_tail() -> BoxedStrategy<Process> {
    prop_oneof![
        Just(Process::Stop),
        Just(Process::Skip),
        Just(Process::var(r())),
    ]
    .prop_recursive(2, 8, 2, |tail| {
        prop_oneof![
            ((0usize..4), tail.clone()).prop_map(|(i, t)| Process::prefix(e(i), t)),
            (tail.clone(), tail.clone()).prop_map(|(p, q)| Process::external_choice(p, q)),
            (tail.clone(), tail.clone()).prop_map(|(p, q)| Process::internal_choice(p, q)),
            ((0usize..4), tail)
                .prop_map(|(i, t)| Process::seq(Process::prefix(e(i), Process::Skip), t)),
        ]
    })
    .boxed()
}

/// A random model: the definitions table holding `R = e -> tail`, and a
/// root process that may call `R` anywhere.
fn arb_model(depth: u32) -> impl Strategy<Value = (Definitions, Process)> {
    ((0usize..4), arb_tail(), arb_process(depth)).prop_map(|(i, tail, root)| {
        let mut defs = Definitions::new();
        let r = defs.declare("R");
        defs.define(r, Process::prefix(e(i), tail));
        (defs, root)
    })
}

/// A random finite process over a 4-event alphabet (same shape as the
/// store-equivalence suite, hide included so τ-cycles actually occur),
/// plus calls of `R` and renaming.
fn arb_process(depth: u32) -> BoxedStrategy<Process> {
    let leaf = prop_oneof![
        Just(Process::Stop),
        Just(Process::Skip),
        (0usize..4).prop_map(|i| Process::prefix(e(i), Process::Stop)),
        Just(Process::var(r())),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn divergence_verdict_agrees_with_fd_self_check((defs, p) in arb_model(4)) {
        let checker = Checker::new();
        let store = ModelStore::new();
        let analysis = store
            .graph_analysis(&checker, &p, &defs)
            .expect("small random models compile under default bounds");
        // `P [FD= P` holds exactly when P is divergence free: the failures
        // phase is reflexive, so only the divergence phase (which runs the
        // independent `divergent_states_of` sweep) can refute it.
        let self_check = checker
            .failures_divergences_refinement(&p, &p, &defs)
            .expect("self-check compiles");
        prop_assert!(
            analysis.is_divergence_free() == self_check.is_pass(),
            "analysis says divergence-free={} but P [FD= P gave {:?}",
            analysis.is_divergence_free(),
            self_check
        );
    }

    #[test]
    fn predicted_state_bound_dominates_actual_states((defs, p) in arb_model(4)) {
        let checker = Checker::new();
        let store = ModelStore::new();
        let actual = store
            .graph_analysis(&checker, &p, &defs)
            .expect("small random models compile under default bounds")
            .state_count() as u64;
        let mut arena = TermArena::new();
        let root = arena.intern(&p);
        let est = estimate(&mut arena, root, &defs, 1_000_000);
        // Under a 1M-state cap every 4-event toy model compiles fully, so
        // the estimate is a proven bound and must dominate the real count.
        prop_assert!(est.is_exact(), "leaf hit the 1M-state cap on a toy model");
        prop_assert!(
            est.predicted_states() >= actual,
            "predicted {} < actual {}",
            est.predicted_states(),
            actual
        );
    }

    #[test]
    fn predicted_pairs_dominates_pairs_discovered(
        spec in arb_process(3),
        (defs, impl_) in arb_model(4),
    ) {
        let checker = Checker::new();
        let store = ModelStore::new();
        let request = CheckRequest {
            model: RefinementModel::Traces,
            spec: &spec,
            impl_: &impl_,
            defs: &defs,
            threads: 1,
            options: CheckOptions::UNBOUNDED,
        };
        if let Ok((_, stats)) = store.check(&checker, &request) {
            prop_assert!(
                stats.predicted_pairs >= stats.pairs_discovered,
                "predicted {} < discovered {}",
                stats.predicted_pairs,
                stats.pairs_discovered
            );
        }
    }

    #[test]
    fn inferred_alphabet_covers_every_reachable_event((defs, p) in arb_model(4)) {
        let checker = Checker::new();
        let model = ModelStore::new()
            .compile(&checker, &p, &defs)
            .expect("small random models compile under default bounds");
        let mut arena = TermArena::new();
        let inference = AlphabetInference::infer(&mut arena, &defs);
        let root = arena.intern(&p);
        let alphabet = inference.alphabet_of(&arena, root);

        let lts = model.lts();
        let mut seen = HashSet::from([lts.initial()]);
        let mut stack = vec![lts.initial()];
        while let Some(s) = stack.pop() {
            for &(label, target) in lts.edges(s) {
                if let Some(event) = label.event() {
                    prop_assert!(
                        alphabet.contains(event),
                        "event {} is reachable but not in the inferred alphabet {}",
                        event.index(),
                        alphabet
                    );
                }
                if seen.insert(target) {
                    stack.push(target);
                }
            }
        }
    }
}
