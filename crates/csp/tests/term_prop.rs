//! Property-based equivalence of the hash-consed term arena and the
//! process-tree semantics: for randomly generated processes, the arena's
//! id-based firing rules must produce the same transitions, in the same
//! order, as [`csp::semantics::transitions`], and [`csp::Lts::build`]
//! (which composes leaf states fired on the arena) must match a reference
//! BFS driven by the tree semantics state for state and edge for edge —
//! over closed processes, over recursive definition tables whose root is a
//! `Var` chain into a parallel spine, and over fixed spine shapes.

use std::collections::HashMap;

use csp::{
    semantics, CspError, DefId, Definitions, EventId, EventSet, Label, Lts, Process, RenameMap,
    TermArena,
};
use proptest::prelude::*;

fn e(n: usize) -> EventId {
    EventId::from_index(n)
}

/// A random finite process over a 4-event alphabet, covering every operator
/// the arena mirrors: prefixing, both choices, sequencing, interleaving,
/// synchronised parallel, hiding, renaming, interrupt and timeout.
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

/// The `i`-th definition declared in any table.
fn def(i: usize) -> DefId {
    let mut defs = Definitions::new();
    (0..=i)
        .map(|_| defs.declare("_"))
        .last()
        .expect("i + 1 declarations")
}

/// `D0..D2` of every table [`arb_model`] builds are sequential; `D3`
/// composes two of them in parallel.
const SEQUENTIAL: usize = 3;

fn arb_events(len: std::ops::Range<usize>) -> impl Strategy<Value = EventSet> {
    proptest::collection::vec(0usize..4, len).prop_map(|es| es.into_iter().map(e).collect())
}

/// A sequential definition body: an external or internal choice of one or
/// two guarded branches, each one or two events (optionally followed by
/// `;`) into a call of a sequential definition, `SKIP` or `STOP`.
fn arb_sequential() -> BoxedStrategy<Process> {
    let tail = prop_oneof![
        (0..SEQUENTIAL).prop_map(|i| Process::var(def(i))),
        Just(Process::Skip),
        Just(Process::Stop),
    ];
    let branch = (
        proptest::collection::vec(0usize..4, 1..3),
        tail,
        any::<bool>(),
    )
        .prop_map(|(es, tail, seq)| {
            let events = es.into_iter().map(e);
            if seq {
                Process::seq(Process::prefix_chain(events, Process::Skip), tail)
            } else {
                Process::prefix_chain(events, tail)
            }
        });
    (proptest::collection::vec(branch, 1..3), any::<bool>())
        .prop_map(|(branches, internal)| {
            if internal {
                Process::internal_choice_all(branches)
            } else {
                Process::external_choice_all(branches)
            }
        })
        .boxed()
}

/// A `Parallel` over two `operand`s with a random sync set, bare or under
/// a random `Hide` or `Rename`.
fn arb_composite(operand: BoxedStrategy<Process>) -> BoxedStrategy<Process> {
    let par = (operand.clone(), operand, arb_events(0..3))
        .prop_map(|(p, q, sync)| Process::parallel(sync, p, q))
        .boxed();
    prop_oneof![
        par.clone(),
        (par.clone(), arb_events(1..3)).prop_map(|(p, hidden)| Process::hide(p, hidden)),
        (par, proptest::collection::vec((0usize..4, 0usize..4), 1..3)).prop_map(|(p, pairs)| {
            let mut map = RenameMap::new();
            for (from, to) in pairs {
                map.insert(e(from), e(to));
            }
            Process::rename(p, map)
        }),
    ]
    .boxed()
}

/// A random recursive model: sequential `D0..D2`, `D3 = Di [| A |] Dj`,
/// and a root `Var` chain `R0 = R1 = ...` of one to three definitions whose
/// last body is a spine of `Parallel`, `Hide` and `Rename` over `Var`,
/// `SKIP` and `STOP` leaves.
fn arb_model() -> impl Strategy<Value = (Definitions, Process)> {
    // Four leaves in six call `D0..D3`.
    let leaf = (0..SEQUENTIAL + 3).prop_map(|i| match i {
        i if i <= SEQUENTIAL => Process::var(def(i)),
        i if i == SEQUENTIAL + 1 => Process::Skip,
        _ => Process::Stop,
    });
    let spine = arb_composite(leaf.prop_recursive(1, 8, 2, arb_composite));
    let composed = (0..SEQUENTIAL, 0..SEQUENTIAL, arb_events(0..3));
    (
        proptest::collection::vec(arb_sequential(), SEQUENTIAL..SEQUENTIAL + 1),
        composed,
        spine,
        1usize..4,
    )
        .prop_map(|(bodies, (i, j, sync), spine, chain)| {
            let mut defs = Definitions::new();
            for (k, body) in bodies.into_iter().enumerate() {
                defs.add(&format!("D{k}"), body);
            }
            let composed = Process::parallel(sync, Process::var(def(i)), Process::var(def(j)));
            defs.add("D3", composed);
            let chain: Vec<DefId> = (0..chain).map(|k| defs.declare(&format!("R{k}"))).collect();
            for link in chain.windows(2) {
                defs.define(link[0], Process::var(link[1]));
            }
            defs.define(*chain.last().expect("a non-empty chain"), spine);
            (defs, Process::var(chain[0]))
        })
}

/// Reference LTS construction driven purely by the tree semantics: BFS with
/// the visited set keyed on structural [`Process`] equality, edges sorted
/// and deduplicated exactly as [`Lts::build`] does. `None` beyond `cap`
/// states.
#[allow(clippy::type_complexity)]
fn reference_lts(
    root: &Process,
    defs: &Definitions,
    cap: usize,
) -> Option<(Vec<Process>, Vec<Vec<(Label, usize)>>)> {
    let mut states: Vec<Process> = vec![root.clone()];
    let mut index: HashMap<Process, usize> = HashMap::new();
    index.insert(root.clone(), 0);
    let mut out: Vec<Vec<(Label, usize)>> = vec![Vec::new()];

    let mut frontier = 0usize;
    while frontier < states.len() {
        let succs = semantics::transitions(&states[frontier].clone(), defs).expect("finite");
        let mut edges = Vec::with_capacity(succs.len());
        for (label, succ) in succs {
            let id = match index.get(&succ) {
                Some(&id) => id,
                None => {
                    if states.len() == cap {
                        return None;
                    }
                    let id = states.len();
                    index.insert(succ.clone(), id);
                    states.push(succ);
                    out.push(Vec::new());
                    id
                }
            };
            edges.push((label, id));
        }
        edges.sort_unstable_by_key(|a| (a.0, a.1));
        edges.dedup();
        out[frontier] = edges;
        frontier += 1;
    }
    Some((states, out))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_transitions_match_tree_semantics_in_order(p in arb_process(4)) {
        let defs = Definitions::new();
        let tree = semantics::transitions(&p, &defs).expect("finite process");

        let mut arena = TermArena::new();
        let id = arena.intern(&p);
        let arena_succs = arena.transitions(id, &defs).expect("finite process");

        prop_assert_eq!(tree.len(), arena_succs.len());
        for ((tl, tp), (al, at)) in tree.iter().zip(&arena_succs) {
            prop_assert_eq!(tl, al);
            let materialised = arena.process_of(*at);
            prop_assert_eq!(tp, materialised.as_ref());
        }
    }

    #[test]
    fn interning_round_trips_the_process(p in arb_process(4)) {
        let mut arena = TermArena::new();
        let id = arena.intern(&p);
        let materialised = arena.process_of(id);
        prop_assert_eq!(materialised.as_ref(), &p);
        // Re-interning the materialised process lands on the same id.
        let back = materialised.as_ref().clone();
        prop_assert_eq!(arena.intern(&back), id);
    }

    #[test]
    fn lts_build_matches_reference_bfs(p in arb_process(4)) {
        let defs = Definitions::new();
        let (ref_states, ref_edges) = reference_lts(&p, &defs, usize::MAX).expect("uncapped");
        let lts = Lts::build(p, &defs, 100_000).expect("finite process");
        matches_reference(&lts, &ref_states, &ref_edges)?;
    }

    #[test]
    fn lts_build_matches_reference_bfs_over_recursive_definitions(
        (defs, root) in arb_model(),
        cut in 0usize..1_000_000,
    ) {
        let reference = reference_lts(&root, &defs, 4_000);
        prop_assume!(reference.is_some());
        let (ref_states, ref_edges) = reference.expect("assumed");
        let lts = Lts::build(root.clone(), &defs, 100_000).expect("finite model");
        matches_reference(&lts, &ref_states, &ref_edges)?;

        // Any bound below the reference count is exceeded, and reported as
        // that bound (the initial state is always admitted).
        if ref_states.len() > 1 {
            let limit = cut % ref_states.len();
            let err = Lts::build(root, &defs, limit).expect_err("bound below the state count");
            prop_assert_eq!(err, CspError::StateSpaceExceeded { limit });
        }
    }
}

/// Spine shapes a random model reaches only by luck, each compiled and
/// compared with the reference BFS: a three-way synchronisation (one move
/// changes three leaves), hiding and renaming over a parallel, distributed
/// `✓` (bare and under hiding), and a root with no spine, whose `✓` leads
/// to a leaf tuple rather than the composite `Ω`.
#[test]
fn fixed_spines_match_reference_bfs() {
    let (a, b, c) = (e(0), e(1), e(2));
    let sync_a = || EventSet::singleton(a);
    let mut defs = Definitions::new();
    let p = defs.add("P", Process::prefix(a, Process::prefix(b, Process::Skip)));
    let q = defs.declare("Q");
    defs.define(q, Process::prefix(a, Process::prefix(c, Process::var(q))));
    let r = defs.declare("R");
    defs.define(
        r,
        Process::external_choice(Process::prefix(a, Process::var(r)), Process::Skip),
    );
    let three_way = Process::parallel(
        sync_a(),
        Process::parallel(sync_a(), Process::var(p), Process::var(q)),
        Process::var(r),
    );
    let root = defs.add("ROOT", three_way.clone());
    let mut renaming = RenameMap::new();
    renaming.insert(a, c);
    renaming.insert(b, a);
    let pair = || {
        Process::parallel(
            sync_a(),
            Process::prefix(a, Process::prefix(b, Process::Skip)),
            Process::prefix(a, Process::Skip),
        )
    };
    let cases = [
        three_way,
        Process::var(root),
        Process::hide(pair(), EventSet::from_iter([a, b])),
        Process::rename(pair(), renaming),
        Process::interleave(Process::Skip, Process::Skip),
        Process::hide(
            Process::interleave(Process::Skip, Process::prefix(a, Process::Skip)),
            sync_a(),
        ),
        Process::prefix(a, Process::Skip),
    ];
    for (i, case) in cases.into_iter().enumerate() {
        let (ref_states, ref_edges) = reference_lts(&case, &defs, 10_000).expect("small");
        let lts = Lts::build(case, &defs, 10_000).expect("finite");
        if let Err(err) = matches_reference(&lts, &ref_states, &ref_edges) {
            panic!("case {i}: {err:?}");
        }
    }
}

/// State count, numbering, every edge list and every Ω bit of `lts` equal
/// the reference BFS's.
fn matches_reference(
    lts: &Lts,
    ref_states: &[Process],
    ref_edges: &[Vec<(Label, usize)>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(lts.state_count(), ref_states.len());
    for (i, expected) in ref_states.iter().enumerate() {
        let s = csp::StateId::from_index(i);
        prop_assert_eq!(lts.is_omega(s), matches!(expected, Process::Omega));
        let got: Vec<(Label, usize)> = lts.edges(s).iter().map(|&(l, t)| (l, t.index())).collect();
        prop_assert_eq!(&got, &ref_edges[i]);
    }
    Ok(())
}
