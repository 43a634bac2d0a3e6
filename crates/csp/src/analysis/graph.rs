//! SCC-based τ-cycle, divergence, deadlock and unguarded-recursion
//! classification.
//!
//! A state of a finite LTS diverges iff it has an infinite τ-path, iff it
//! can reach (by τ-steps alone) a τ-cycle — a nontrivial SCC of the
//! τ-subgraph, or a τ-self-loop. [`tau_divergence`] finds those cycles
//! with an iterative Tarjan pass over any edge relation and then marks
//! everything that τ-reaches them. It is the *one* divergence routine in
//! the stack: [`GraphAnalysis`] (cached per compiled model), the
//! specification normaliser's per-node divergence flags and the `[FD=`
//! divergence phase all call it, so a cached analysis stands in for the
//! divergence phase of `[FD=` verbatim by construction.
//! The same pass over the references definitions reach before any prefix
//! finds unguarded recursion ([`unguarded_definitions`]).

use crate::alphabet::Label;
use crate::error::CspError;
use crate::lts::{Lts, StateId};
use crate::process::{DefId, Definitions, Process};
use crate::semantics::unguarded_refs;
use std::sync::Arc;

/// Which definitions can recurse without performing an event first
/// (`CSP202`), by `DefId` index: those on a cycle of the references each
/// body reaches before any prefix, through the firing rules or a silent
/// step (`|~|`, `[>`, or `;` after an operand that can terminate without
/// an event, through references too). One SCC pass. Firing follows a
/// subset of these edges, so every [`CspError::UnguardedRecursion`] it
/// reports names a flagged definition.
#[must_use]
pub fn unguarded_definitions(defs: &Definitions) -> Vec<bool> {
    let ends = silent_termination(defs);
    let (offsets, edges) = reference_graph(defs, Some(&ends));
    tau_cycle_members(defs.len(), |s| {
        &edges[offsets[s.index()]..offsets[s.index() + 1]]
    })
}

/// Decide a firing of `root` that stopped at the nesting bound: unguarded
/// recursion, naming a definition on the cycle, when the firing edges from
/// `root` reach a cycle; else `e` as it stands. Other errors pass through.
pub(crate) fn decide(
    e: CspError,
    defs: &Definitions,
    root: impl FnOnce() -> Arc<Process>,
) -> CspError {
    if !matches!(e, CspError::UnfoldingTooDeep { .. }) {
        return e;
    }
    let (offsets, edges) = reference_graph(defs, None);
    let succ = |s: StateId| &edges[offsets[s.index()]..offsets[s.index() + 1]];
    let on_cycle = tau_cycle_members(defs.len(), succ);
    let (mut seen, mut start) = (vec![false; defs.len()], Vec::new());
    unguarded_refs(&root(), None, &mut start);
    let mut stack: Vec<StateId> = start.iter().map(|d| StateId(d.0)).collect();
    while let Some(s) = stack.pop() {
        if on_cycle[s.index()] {
            let name = defs.name(DefId(s.0)).to_owned();
            return CspError::UnguardedRecursion { name };
        }
        if !std::mem::replace(&mut seen[s.index()], true) {
            stack.extend(succ(s).iter().map(|&(_, t)| t));
        }
    }
    e
}

/// Each definition's flag, by `DefId` index, of whether its body can
/// terminate without an event: the least fixpoint of [`unguarded_refs`]'s
/// answer, where a reference reads its definition's flag. A body is
/// evaluated again only when a flag it reads turns true.
fn silent_termination(defs: &Definitions) -> Vec<bool> {
    // With every flag set a walk reads the most references: `readers[d]`
    // holds each definition that may read `d`'s flag.
    let (all, mut readers) = (vec![true; defs.len()], vec![Vec::new(); defs.len()]);
    let mut refs = Vec::new();
    for d in defs.ids() {
        if let Ok(body) = defs.body(d) {
            unguarded_refs(body, Some(&all), &mut refs);
        }
        refs.sort_unstable();
        refs.dedup();
        for r in refs.drain(..) {
            readers[r.index()].push(d);
        }
    }
    let (mut ends, mut work) = (vec![false; defs.len()], defs.ids().collect::<Vec<_>>());
    while let Some(d) = work.pop() {
        let Ok(body) = defs.body(d) else { continue };
        if !ends[d.index()] && unguarded_refs(body, Some(&ends), &mut refs) {
            ends[d.index()] = true;
            work.append(&mut readers[d.index()]);
        }
        refs.clear();
    }
    ends
}

/// Each definition's [`unguarded_refs`] as τ-edges, in CSR form.
fn reference_graph(
    defs: &Definitions,
    silent: Option<&[bool]>,
) -> (Vec<usize>, Vec<(Label, StateId)>) {
    let (mut offsets, mut edges, mut refs) = (vec![0], Vec::new(), Vec::new());
    for d in defs.ids() {
        if let Ok(body) = defs.body(d) {
            unguarded_refs(body, silent, &mut refs);
        }
        edges.extend(refs.drain(..).map(|r| (Label::Tau, StateId(r.0))));
        offsets.push(edges.len());
    }
    (offsets, edges)
}

/// Per-node "lies on a τ-cycle" flags of an `n`-node edge relation:
/// a member of a nontrivial SCC of the τ-subgraph, or a node with a
/// τ-self-loop.
fn tau_cycle_members<'a>(
    n: usize,
    succ: impl Fn(StateId) -> &'a [(Label, StateId)] + Copy,
) -> Vec<bool> {
    let (tau_comp, tau_comp_count) = tarjan(n, succ, true);
    let mut comp_size = vec![0_u32; tau_comp_count];
    for &c in &tau_comp {
        comp_size[c] += 1;
    }
    (0..n)
        .map(|s| {
            comp_size[tau_comp[s]] > 1
                || succ(StateId::from_index(s))
                    .iter()
                    .any(|&(l, t)| l.is_tau() && t.index() == s)
        })
        .collect()
}

/// The τ-cycle / divergence classification of one edge relation — the one
/// shared divergence routine in the stack. [`GraphAnalysis::of_lts`], the
/// specification normaliser's divergence flags and the `[FD=` divergence
/// phase all call [`tau_divergence`], so the three can never drift apart.
#[derive(Debug, Clone)]
pub struct TauDivergence {
    /// Per-state "lies on a τ-cycle" flags (nontrivial τ-SCC member or
    /// τ-self-loop).
    pub on_cycle: Vec<bool>,
    /// Per-state divergence flags: the state τ-reaches a τ-cycle.
    pub divergent: Vec<bool>,
}

/// Classify every state of an `n`-state edge relation: which lie on a
/// τ-cycle, and which diverge (τ-reach a τ-cycle). `succ` must return the
/// outgoing edges of a state; [`Lts::edges`] fits directly.
#[must_use]
pub fn tau_divergence<'a>(
    n: usize,
    succ: impl Fn(StateId) -> &'a [(Label, StateId)] + Copy,
) -> TauDivergence {
    let on_cycle = tau_cycle_members(n, succ);

    // Divergent = τ-reaches a τ-cycle: backward BFS over τ-edges.
    let mut rev_tau: Vec<Vec<u32>> = vec![Vec::new(); n];
    for s in 0..n {
        for &(l, t) in succ(StateId::from_index(s)) {
            if l.is_tau() {
                rev_tau[t.index()].push(s as u32);
            }
        }
    }
    let mut divergent = on_cycle.clone();
    let mut queue: Vec<u32> = (0..n as u32).filter(|&s| divergent[s as usize]).collect();
    while let Some(s) = queue.pop() {
        for &p in &rev_tau[s as usize] {
            if !divergent[p as usize] {
                divergent[p as usize] = true;
                queue.push(p);
            }
        }
    }

    TauDivergence {
        on_cycle,
        divergent,
    }
}

/// Everything the SCC pass learns about one compiled LTS.
///
/// Built once per compiled model (the model store caches it per
/// `CompileKey`); all queries are pure reads.
#[derive(Debug, Clone)]
pub struct GraphAnalysis {
    state_count: usize,
    transition_count: usize,
    tau_transition_count: usize,
    scc_count: usize,
    tau_cycle_states: usize,
    divergent: Vec<bool>,
    divergent_count: usize,
    deadlock: Vec<bool>,
    deadlock_count: usize,
}

impl GraphAnalysis {
    /// Analyse `lts`. A terminal Ω state is successful termination, not a
    /// deadlock.
    #[must_use]
    pub fn of_lts(lts: &Lts) -> GraphAnalysis {
        let n = lts.state_count();
        let succ = |s: StateId| lts.edges(s);

        let tau_transition_count = lts
            .state_ids()
            .map(|s| succ(s).iter().filter(|(l, _)| l.is_tau()).count())
            .sum();
        let transition_count = lts.transition_count();

        // Full-graph SCC count (structure metric for `analyze` output).
        let (_, scc_count) = tarjan(n, succ, false);

        // The shared τ-cycle/divergence classification (also used by the
        // normaliser and the `[FD=` divergence phase).
        let TauDivergence {
            on_cycle,
            divergent,
        } = tau_divergence(n, succ);
        let tau_cycle_states = on_cycle.iter().filter(|&&b| b).count();
        let divergent_count = divergent.iter().filter(|&&b| b).count();

        let deadlock: Vec<bool> = lts
            .state_ids()
            .map(|s| lts.is_terminal(s) && !lts.is_omega(s))
            .collect();
        let deadlock_count = deadlock.iter().filter(|&&b| b).count();

        GraphAnalysis {
            state_count: n,
            transition_count,
            tau_transition_count,
            scc_count,
            tau_cycle_states,
            divergent,
            divergent_count,
            deadlock,
            deadlock_count,
        }
    }

    /// States in the analysed LTS.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Transitions in the analysed LTS.
    pub fn transition_count(&self) -> usize {
        self.transition_count
    }

    /// τ-labelled transitions in the analysed LTS.
    pub fn tau_transition_count(&self) -> usize {
        self.tau_transition_count
    }

    /// Strongly connected components of the full transition graph.
    pub fn scc_count(&self) -> usize {
        self.scc_count
    }

    /// States lying *on* a τ-cycle (nontrivial τ-SCC member or τ-self-loop).
    pub fn tau_cycle_states(&self) -> usize {
        self.tau_cycle_states
    }

    /// Per-state divergence flags, indexed by `StateId`.
    pub fn divergent(&self) -> &[bool] {
        &self.divergent
    }

    /// How many states diverge.
    pub fn divergent_count(&self) -> usize {
        self.divergent_count
    }

    /// Per-state guaranteed-deadlock flags (terminal and not Ω).
    pub fn deadlocked(&self) -> &[bool] {
        &self.deadlock
    }

    /// How many states are guaranteed-deadlock sinks.
    pub fn deadlock_count(&self) -> usize {
        self.deadlock_count
    }

    /// No reachable state diverges (every LTS state is reachable by
    /// construction of the BFS build).
    pub fn is_divergence_free(&self) -> bool {
        self.divergent_count == 0
    }

    /// No reachable state is a non-Ω sink.
    pub fn is_deadlock_free(&self) -> bool {
        self.deadlock_count == 0
    }
}

/// Iterative Tarjan over the (optionally τ-restricted) edge relation.
/// Returns the component id of every node plus the component count;
/// component ids are in reverse topological discovery order, but callers
/// here only use sizes and membership.
fn tarjan<'a>(
    n: usize,
    succ: impl Fn(StateId) -> &'a [(Label, StateId)] + Copy,
    tau_only: bool,
) -> (Vec<usize>, usize) {
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0_u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![usize::MAX; n];
    let mut comp_count = 0;
    let mut next_index: u32 = 0;
    let mut stack: Vec<u32> = Vec::new();

    // Explicit DFS: (node, edge cursor).
    let mut dfs: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        dfs.push((root, 0));
        while let Some(&mut (v, ref mut cursor)) = dfs.last_mut() {
            let vi = v as usize;
            if *cursor == 0 {
                index[vi] = next_index;
                lowlink[vi] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            let edges = succ(StateId::from_index(vi));
            let mut advanced = false;
            while *cursor < edges.len() {
                let (l, w) = edges[*cursor];
                *cursor += 1;
                if tau_only && !l.is_tau() {
                    continue;
                }
                let wi = w.index();
                if index[wi] == UNSET {
                    dfs.push((w.index() as u32, 0));
                    advanced = true;
                    break;
                } else if on_stack[wi] {
                    lowlink[vi] = lowlink[vi].min(index[wi]);
                }
            }
            if advanced {
                continue;
            }
            // v is done: pop it, fold its lowlink into the parent.
            dfs.pop();
            if let Some(&(p, _)) = dfs.last() {
                let pi = p as usize;
                lowlink[pi] = lowlink[pi].min(lowlink[vi]);
            }
            if lowlink[vi] == index[vi] {
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w as usize] = false;
                    comp[w as usize] = comp_count;
                    if w == v {
                        break;
                    }
                }
                comp_count += 1;
            }
        }
    }
    (comp, comp_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alphabet, Definitions, EventSet, Process, TermArena};

    /// Whether `lts` has a τ-cycle, by Kahn's algorithm on the τ-subgraph:
    /// one exists exactly when topological sorting cannot consume every
    /// state. An oracle apart from the SCC pass.
    fn kahn_tau_cycle(lts: &Lts) -> bool {
        let mut indegree = vec![0usize; lts.state_count()];
        for s in lts.state_ids() {
            for &(_, t) in lts.edges(s).iter().filter(|(l, _)| l.is_tau()) {
                indegree[t.index()] += 1;
            }
        }
        let mut queue: Vec<StateId> = lts
            .state_ids()
            .filter(|s| indegree[s.index()] == 0)
            .collect();
        let mut processed = 0usize;
        while let Some(s) = queue.pop() {
            processed += 1;
            for &(_, t) in lts.edges(s).iter().filter(|(l, _)| l.is_tau()) {
                indegree[t.index()] -= 1;
                if indegree[t.index()] == 0 {
                    queue.push(t);
                }
            }
        }
        processed < lts.state_count()
    }

    fn analyse(p: &Process, defs: &Definitions) -> (Lts, GraphAnalysis) {
        let mut arena = TermArena::new();
        let root = arena.intern(p);
        let lts = Lts::build_in(&mut arena, root, defs, 10_000).unwrap();
        let ga = GraphAnalysis::of_lts(&lts);
        (lts, ga)
    }

    #[test]
    fn hidden_loop_is_divergent_everywhere_it_is_reachable() {
        let mut al = Alphabet::new();
        let a = al.intern("a");
        let mut defs = Definitions::new();
        let d = defs.declare("D");
        defs.define(d, Process::prefix(a, Process::var(d)));
        // (a -> D) \ {a}: every state τ-loops.
        let p = Process::hide(Process::var(d), EventSet::from_iter_dedup([a]));
        let (lts, ga) = analyse(&p, &defs);
        assert!(kahn_tau_cycle(&lts));
        assert!(!ga.is_divergence_free());
        assert_eq!(ga.divergent_count(), ga.state_count());
        assert!(ga.tau_cycle_states() > 0);
    }

    #[test]
    fn stop_is_a_deadlock_sink_but_skip_is_not() {
        let mut al = Alphabet::new();
        let a = al.intern("a");
        let defs = Definitions::new();
        let stops = Process::prefix(a, Process::Stop);
        let (_, ga) = analyse(&stops, &defs);
        assert!(!ga.is_deadlock_free());
        assert_eq!(ga.deadlock_count(), 1);
        assert!(ga.is_divergence_free());

        let ends = Process::prefix(a, Process::Skip);
        let (_, ga) = analyse(&ends, &defs);
        // a -> SKIP -> Ω: the only sink is Ω, which terminates successfully.
        assert!(ga.is_deadlock_free());
    }

    #[test]
    fn tau_cycle_flags_agree_with_the_global_kahn_check() {
        let mut al = Alphabet::new();
        let a = al.intern("a");
        let b = al.intern("b");
        let mut defs = Definitions::new();
        let d = defs.declare("D");
        defs.define(d, Process::prefix(a, Process::prefix(b, Process::var(d))));
        // Hide only `a`: τ-steps exist but no τ-cycle (b interleaves).
        let p = Process::hide(Process::var(d), EventSet::from_iter_dedup([a]));
        let (lts, ga) = analyse(&p, &defs);
        assert!(!kahn_tau_cycle(&lts));
        assert_eq!(ga.tau_cycle_states(), 0);
        assert!(ga.is_divergence_free());
        assert!(ga.tau_transition_count() > 0);
    }

    #[test]
    fn scc_count_sees_the_recursive_cycle() {
        let mut al = Alphabet::new();
        let a = al.intern("a");
        let mut defs = Definitions::new();
        let d = defs.declare("D");
        defs.define(d, Process::prefix(a, Process::var(d)));
        let (lts, ga) = analyse(&Process::var(d), &defs);
        // One cyclic component holding the whole loop.
        assert!(ga.scc_count() <= lts.state_count());
        assert!(ga.scc_count() >= 1);
        assert!(ga.is_divergence_free());
        assert!(ga.is_deadlock_free());
    }
}
