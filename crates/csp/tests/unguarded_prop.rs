//! Unguarded recursion is judged exactly, by two oracles written here that
//! share no code with the engine, over random definition tables shaped like
//! `term_prop`'s: four random definitions `D0..D3`, an alias chain
//! `A0 = A1 = …` of one or 129–300 definitions, and a chain `C0, C1, …` of
//! one or 100–199 definitions, each nesting the next in one firing
//! position of one operator, so that firing it nests past the bound or not.
//! Bodies refer to any `Di` and to both chain heads; each chain ends in a
//! `Di` or in an event.
//!
//! 1. A plain search over the firing edges from the root. The firing
//!    rules, in the tree semantics and in the arena alike, report
//!    `UnguardedRecursion` (naming a definition on a cycle) exactly when it
//!    finds a cycle, `UnfoldingTooDeep` exactly when the model is acyclic
//!    and nests more than 128 definitions through operators, and fire
//!    every other model.
//! 2. One search per definition over the `CSP202` edges, `reaches_itself`
//!    of the syntactic rule it replaces, run on the elaborated tables: it
//!    flags exactly what `analysis::unguarded_definitions` flags.

use std::sync::atomic::{AtomicUsize, Ordering};

use csp::analysis::unguarded_definitions;
use csp::{
    semantics, CspError, DefId, Definitions, EventId, EventSet, Process, RenameMap, TermArena,
};
use proptest::prelude::*;

/// Random definitions `D0..D3`; the alias chain's head is definition
/// `RANDOM`, the nested chain's head `RANDOM + 1`.
const RANDOM: usize = 4;
/// How many definitions firing may nest through operators.
const BOUND: usize = 128;

fn e(n: usize) -> EventId {
    EventId::from_index(n)
}

/// The `i`-th definition declared in any table.
fn def(i: usize) -> DefId {
    let mut defs = Definitions::new();
    (0..=i)
        .map(|_| defs.declare("_"))
        .last()
        .expect("i + 1 declarations")
}

/// A random body over a 4-event alphabet and every operator, whose leaves
/// are half references to `D0..D3` and both chain heads, mostly bare.
fn arb_body(depth: u32) -> BoxedStrategy<Process> {
    let reference = || (0..RANDOM + 2).prop_map(|i| Process::var(def(i)));
    let leaf = prop_oneof![
        Just(Process::Stop),
        Just(Process::Skip),
        (0usize..4).prop_map(|i| Process::prefix(e(i), Process::Stop)),
        reference(),
        reference(),
        (0..RANDOM + 2).prop_map(|i| Process::prefix(e(0), Process::var(def(i)))),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            ((0usize..4), inner.clone()).prop_map(|(i, p)| Process::prefix(e(i), p)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::external_choice(p, q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::internal_choice(p, q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::seq(p, q)),
            inner.clone().prop_map(|p| Process::seq(Process::Skip, p)),
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
            (inner.clone(), 0usize..4)
                .prop_map(|(p, i)| Process::hide(p, EventSet::singleton(e(i)))),
            inner.prop_map(|p| Process::rename(p, renaming())),
        ]
    })
    .boxed()
}

fn renaming() -> RenameMap {
    let mut map = RenameMap::new();
    map.insert(e(0), e(1));
    map
}

/// `next` nested in one firing position of operator `op`: `[]`, the first
/// operand of `;`, the right of `[| |]`, `\`, `[[ ]]`, the right of `/\`,
/// or the first operand of `[>`.
fn nest(op: usize, next: Process) -> Process {
    match op {
        0 => Process::external_choice(next, Process::Stop),
        1 => Process::seq(next, Process::Stop),
        2 => Process::parallel(EventSet::singleton(e(3)), Process::Stop, next),
        3 => Process::hide(next, EventSet::singleton(e(0))),
        4 => Process::rename(next, renaming()),
        5 => Process::interrupt(Process::Stop, next),
        _ => Process::timeout(next, Process::Stop),
    }
}

/// The end of a chain: a reference to `D(i)`, or an event for `i` =
/// `RANDOM`.
fn tail(i: usize) -> Process {
    if i < RANDOM {
        Process::var(def(i))
    } else {
        Process::prefix(e(2), Process::Stop)
    }
}

fn arb_model() -> impl Strategy<Value = (Definitions, Process)> {
    (
        proptest::collection::vec(arb_body(3), RANDOM..RANDOM + 1),
        prop_oneof![Just(1usize), 129usize..301],
        prop_oneof![Just(1usize), 100usize..200],
        (0usize..7, 0..RANDOM + 1, 0..RANDOM + 1),
        prop_oneof![
            (0..RANDOM + 2).prop_map(|i| Process::var(def(i))),
            Just(Process::var(def(RANDOM + 1))),
            arb_body(2)
        ],
    )
        .prop_map(
            |(bodies, aliases, nested, (op, alias_end, nested_end), root)| {
                let mut defs = Definitions::new();
                for k in 0..RANDOM {
                    defs.declare(&format!("D{k}"));
                }
                let mut alias = vec![defs.declare("A0")];
                let mut chain = vec![defs.declare("C0")];
                alias.extend((1..aliases).map(|k| defs.declare(&format!("A{k}"))));
                chain.extend((1..nested).map(|k| defs.declare(&format!("C{k}"))));
                for (k, body) in bodies.into_iter().enumerate() {
                    defs.define(def(k), body);
                }
                for link in alias.windows(2) {
                    defs.define(link[0], Process::var(link[1]));
                }
                for link in chain.windows(2) {
                    defs.define(link[0], nest(op, Process::var(link[1])));
                }
                defs.define(alias[aliases - 1], tail(alias_end));
                defs.define(chain[nested - 1], tail(nested_end));
                (defs, root)
            },
        )
}

/// The definitions firing `p` unfolds before any event, left to right: in
/// every `[]` operand, the first operand of `;` and `[>`, both operands of
/// `[| |]` and `/\`, and the operand of `\` and `[[ ]]`.
fn firing_refs(p: &Process, out: &mut Vec<usize>) {
    match p {
        Process::Var(d) => out.push(d.index()),
        Process::ExternalChoice(xs) => xs.iter().for_each(|x| firing_refs(x, out)),
        Process::Seq(p, _)
        | Process::Timeout(p, _)
        | Process::Hide(p, _)
        | Process::Rename(p, _) => {
            firing_refs(p, out);
        }
        Process::Parallel { left, right, .. } | Process::Interrupt(left, right) => {
            firing_refs(left, out);
            firing_refs(right, out);
        }
        _ => {}
    }
}

/// The `CSP202` edges: the firing edges, every `|~|` operand, the second
/// operand of `[>`, and, `through_skip`, the second of `;` after a first
/// that can terminate without an event.
fn csp202_refs(p: &Process, through_skip: bool, out: &mut Vec<usize>) {
    let operands: Vec<&Process> = match p {
        Process::Var(d) => {
            out.push(d.index());
            return;
        }
        Process::ExternalChoice(xs) | Process::InternalChoice(xs) => {
            xs.iter().map(AsRef::as_ref).collect()
        }
        Process::Seq(p, q) if through_skip && terminates_silently(p) => vec![p, q],
        Process::Seq(p, _) | Process::Hide(p, _) | Process::Rename(p, _) => vec![p],
        Process::Parallel { left, right, .. }
        | Process::Interrupt(left, right)
        | Process::Timeout(left, right) => vec![left, right],
        _ => Vec::new(),
    };
    for operand in operands {
        csp202_refs(operand, through_skip, out);
    }
}

/// Whether `p` can reach `SKIP` without an event, as the syntactic rule
/// judged it: a reference counts as not terminating.
fn terminates_silently(p: &Process) -> bool {
    match p {
        Process::Skip => true,
        Process::Seq(p, q) => terminates_silently(p) && terminates_silently(q),
        Process::ExternalChoice(xs) | Process::InternalChoice(xs) => {
            xs.iter().any(|x| terminates_silently(x))
        }
        Process::Timeout(p, q) => terminates_silently(p) || terminates_silently(q),
        _ => false,
    }
}

/// Each definition's edges under `refs`.
fn edges(defs: &Definitions, refs: impl Fn(&Process, &mut Vec<usize>)) -> Vec<Vec<usize>> {
    defs.ids()
        .map(|d| {
            let mut out = Vec::new();
            refs(defs.body(d).expect("every definition has a body"), &mut out);
            out
        })
        .collect()
}

/// Whether `start` can reach itself along `edges`.
fn reaches_itself(start: usize, edges: &[Vec<usize>]) -> bool {
    let mut visited = vec![false; edges.len()];
    let mut stack = vec![start];
    while let Some(at) = stack.pop() {
        for &next in &edges[at] {
            if next == start {
                return true;
            }
            if !std::mem::replace(&mut visited[next], true) {
                stack.push(next);
            }
        }
    }
    false
}

/// What the firing rules must answer for `root`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Fires,
    TooDeep,
    Recursion,
}

/// Oracle 1: a depth-first search over the firing edges from the root
/// finds a cycle, or else measures how many definitions with an operator
/// body firing nests.
fn oracle(defs: &Definitions, root: &Process, firing: &[Vec<usize>]) -> Verdict {
    let mut from_root = Vec::new();
    firing_refs(root, &mut from_root);
    // 0: unseen, 1: on the search path, 2: done.
    let mut state = vec![0u8; firing.len()];
    for &start in &from_root {
        if state[start] != 0 {
            continue;
        }
        state[start] = 1;
        let mut path = vec![(start, 0usize)];
        while let Some((at, next)) = path.last_mut() {
            let Some(&to) = firing[*at].get(*next) else {
                state[*at] = 2;
                path.pop();
                continue;
            };
            *next += 1;
            match state[to] {
                0 => {
                    state[to] = 1;
                    path.push((to, 0));
                }
                1 => return Verdict::Recursion,
                _ => {}
            }
        }
    }
    // Acyclic: the most definitions with an operator body one firing
    // unfolds inside one another.
    let bare: Vec<bool> = defs
        .ids()
        .map(|d| matches!(**defs.body(d).expect("defined"), Process::Var(_)))
        .collect();
    let mut memo = vec![None; firing.len()];
    let deepest = from_root
        .iter()
        .map(|&d| nests(d, &bare, firing, &mut memo))
        .max()
        .unwrap_or(0);
    if deepest > BOUND {
        Verdict::TooDeep
    } else {
        Verdict::Fires
    }
}

/// How many definitions with an operator body firing `d` unfolds inside
/// one another; a bare reference `P = Q` counts none.
fn nests(d: usize, bare: &[bool], firing: &[Vec<usize>], memo: &mut [Option<usize>]) -> usize {
    if let Some(n) = memo[d] {
        return n;
    }
    let inner = firing[d]
        .iter()
        .map(|&q| nests(q, bare, firing, memo))
        .max()
        .unwrap_or(0);
    let n = inner + usize::from(!bare[d]);
    memo[d] = Some(n);
    n
}

/// The models of each verdict the property has seen, and the tables on
/// which a `SKIP ;` edge decided a `CSP202` flag.
static SEEN: [AtomicUsize; 4] = [const { AtomicUsize::new(0) }; 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn firing_and_csp202_match_their_oracles((defs, root) in arb_model()) {
        let firing = edges(&defs, firing_refs);
        let want = oracle(&defs, &root, &firing);
        let tree = semantics::transitions(&root, &defs).map(|_| ());
        let mut arena = TermArena::new();
        let id = arena.intern(&root);
        let interned = arena.transitions(id, &defs).map(|_| ());
        prop_assert_eq!(&tree, &interned);
        match (&tree, want) {
            (Ok(()), Verdict::Fires) => {}
            (Err(CspError::UnfoldingTooDeep { limit, .. }), Verdict::TooDeep) => {
                prop_assert_eq!(*limit, BOUND);
            }
            (Err(CspError::UnguardedRecursion { name }), Verdict::Recursion) => {
                let d = defs.lookup(name).expect("a declared name");
                prop_assert!(reaches_itself(d.index(), &firing), "{name} is on no cycle");
            }
            (got, want) => prop_assert!(false, "oracle says {want:?}, firing gave {got:?}"),
        }
        SEEN[want as usize].fetch_add(1, Ordering::Relaxed);

        let csp202 = edges(&defs, |p, out| csp202_refs(p, true, out));
        let flagged: Vec<bool> = (0..defs.len()).map(|d| reaches_itself(d, &csp202)).collect();
        prop_assert_eq!(unguarded_definitions(&defs), flagged.clone());
        // Every definition firing finds on a cycle is flagged.
        for d in (0..defs.len()).filter(|&d| reaches_itself(d, &firing)) {
            prop_assert!(flagged[d], "definition {d} recurses when fired but is not flagged");
        }
        // Count the tables where the edge through `SKIP ;` decides a flag.
        let without = edges(&defs, |p, out| csp202_refs(p, false, out));
        if (0..defs.len()).any(|d| flagged[d] != reaches_itself(d, &without)) {
            SEEN[3].fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn firing_and_csp202_are_exact_on_random_tables() {
    // The firing rules nest 128 definitions deep, and a debug test
    // thread's 2 MiB does not hold that for every operator.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(firing_and_csp202_match_their_oracles)
        .expect("spawn")
        .join()
        .expect("the property holds");
    let seen: Vec<usize> = SEEN.iter().map(|n| n.load(Ordering::Relaxed)).collect();
    // Every verdict, and tables where `SKIP ;` decides a flag, occur.
    assert!(
        seen.iter().all(|&n| n >= 10),
        "verdicts and seq-decided tables: {seen:?}"
    );
}
