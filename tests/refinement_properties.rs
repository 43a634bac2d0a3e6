//! Property-based tests on the checker's core invariants: the efficient
//! product-automaton refinement in `fdrlite` must agree with the
//! enumerative trace-set reference in `csp::laws` on randomly generated
//! process pairs, and algebraic laws must hold.

use csp::{laws, Definitions, EventId, EventSet, Process};
use fdrlite::Checker;
use proptest::prelude::*;

/// A small random process over events `0..4`, depth-bounded.
fn arb_process(depth: u32) -> BoxedStrategy<Process> {
    let leaf = prop_oneof![
        Just(Process::Stop),
        Just(Process::Skip),
        (0u32..4).prop_map(|e| Process::prefix(EventId::from_index(e as usize), Process::Stop)),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            ((0u32..4), inner.clone())
                .prop_map(|(e, p)| Process::prefix(EventId::from_index(e as usize), p)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::external_choice(p, q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::internal_choice(p, q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::seq(p, q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::interleave(p, q)),
            ((0u32..4), inner.clone(), inner.clone()).prop_map(|(e, p, q)| {
                Process::parallel(EventSet::singleton(EventId::from_index(e as usize)), p, q)
            }),
            ((0u32..4), inner.clone()).prop_map(|(e, p)| {
                Process::hide(p, EventSet::singleton(EventId::from_index(e as usize)))
            }),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::interrupt(p, q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::timeout(p, q)),
        ]
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// fdrlite's verdict must agree with the enumerative reference on
    /// bounded traces. (The reference bounds trace length; agreement in the
    /// failing direction is exact because counterexamples are finite.)
    #[test]
    fn product_checker_agrees_with_enumerative_reference(
        spec in arb_process(3),
        imp in arb_process(3),
    ) {
        let defs = Definitions::new();
        let checker = Checker::new();
        let product = checker.trace_refinement(&spec, &imp, &defs).unwrap();
        // Enumerative check with generous depth: these processes are
        // loop-free (recursion cannot be generated), so depth 32 is exact.
        let reference = laws::trace_refines_upto(&spec, &imp, &defs, 32, 200_000).unwrap();
        prop_assert_eq!(product.is_pass(), reference);
    }

    /// Reflexivity: every process trace-refines itself.
    #[test]
    fn trace_refinement_is_reflexive(p in arb_process(4)) {
        let defs = Definitions::new();
        let v = Checker::new().trace_refinement(&p, &p, &defs).unwrap();
        prop_assert!(v.is_pass());
    }

    /// Reflexivity in the failures model too.
    #[test]
    fn failures_refinement_is_reflexive(p in arb_process(3)) {
        let defs = Definitions::new();
        let v = Checker::new().failures_refinement(&p, &p, &defs).unwrap();
        prop_assert!(v.is_pass());
    }

    /// ⊑F implies ⊑T (failures refinement is strictly stronger).
    #[test]
    fn failures_refinement_implies_trace_refinement(
        spec in arb_process(3),
        imp in arb_process(3),
    ) {
        let defs = Definitions::new();
        let checker = Checker::new();
        let failures = checker.failures_refinement(&spec, &imp, &defs).unwrap();
        if failures.is_pass() {
            let traces = checker.trace_refinement(&spec, &imp, &defs).unwrap();
            prop_assert!(traces.is_pass());
        }
    }

    /// Timeout has the external-choice trace law: traces(P [> Q) =
    /// traces(P) ∪ traces(Q).
    #[test]
    fn timeout_trace_law(p in arb_process(3), q in arb_process(3)) {
        let defs = Definitions::new();
        let t = Process::timeout(p.clone(), q.clone());
        let ext = Process::external_choice(p, q);
        prop_assert!(laws::trace_equivalent_upto(&t, &ext, &defs, 10, 200_000).unwrap());
    }

    /// External and internal choice are trace-equivalent (§IV-A2 law).
    #[test]
    fn choice_operators_are_trace_equivalent(
        p in arb_process(3),
        q in arb_process(3),
    ) {
        let defs = Definitions::new();
        let ext = Process::external_choice(p.clone(), q.clone());
        let int = Process::internal_choice(p, q);
        prop_assert!(laws::trace_equivalent_upto(&ext, &int, &defs, 12, 200_000).unwrap());
    }

    /// Interleaving is commutative up to traces.
    #[test]
    fn interleaving_is_commutative(p in arb_process(2), q in arb_process(2)) {
        let defs = Definitions::new();
        let pq = Process::interleave(p.clone(), q.clone());
        let qp = Process::interleave(q, p);
        prop_assert!(laws::trace_equivalent_upto(&pq, &qp, &defs, 10, 200_000).unwrap());
    }

    /// STOP is a unit of external choice.
    #[test]
    fn stop_is_unit_of_external_choice(p in arb_process(3)) {
        let defs = Definitions::new();
        let with_stop = Process::external_choice(p.clone(), Process::Stop);
        prop_assert!(laws::trace_equivalent_upto(&with_stop, &p, &defs, 12, 200_000).unwrap());
    }

    /// Hiding everything leaves at most the empty trace and termination.
    #[test]
    fn hiding_all_events_empties_traces(p in arb_process(3)) {
        let defs = Definitions::new();
        let all: EventSet = (0..4).map(EventId::from_index).collect();
        let hidden = Process::hide(p, all);
        let ts = laws::bounded_traces(&hidden, &defs, 12, 200_000).unwrap();
        for t in ts {
            prop_assert!(t.events().iter().all(|e| e.event().is_none()));
        }
    }

    /// Deadlock-freedom of `p ||| q` needs both components live; conversely
    /// a deadlock in the interleaving maps to one in a component.
    #[test]
    fn interleaving_preserves_deadlock_freedom(p in arb_process(2), q in arb_process(2)) {
        let defs = Definitions::new();
        let checker = Checker::new();
        let p_free = checker.deadlock_free(&p, &defs).unwrap().is_pass();
        let q_free = checker.deadlock_free(&q, &defs).unwrap().is_pass();
        let both = checker
            .deadlock_free(&Process::interleave(p, q), &defs)
            .unwrap()
            .is_pass();
        prop_assert_eq!(both, p_free && q_free);
    }

    /// The parallel decision procedure agrees with the serial checker.
    #[test]
    fn parallel_checker_agrees_with_serial(
        spec in arb_process(3),
        imp in arb_process(3),
    ) {
        let defs = Definitions::new();
        let checker = Checker::new();
        let serial = checker.trace_refinement(&spec, &imp, &defs).unwrap();
        let request = fdrlite::CheckRequest {
            model: fdrlite::RefinementModel::Traces,
            spec: &spec,
            impl_: &imp,
            defs: &defs,
            threads: 4,
            options: fdrlite::CheckOptions::UNBOUNDED,
        };
        let (parallel, _) = fdrlite::ModelStore::new().check(&checker, &request).unwrap();
        prop_assert_eq!(serial.is_pass(), parallel.is_pass());
    }
}
