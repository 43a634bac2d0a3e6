//! Labelled transition system construction by explicit state enumeration.
//!
//! [`Lts::build_in`] compiles a process the way FDR compiles a parallel
//! composition, as a supercombinator over small component systems:
//!
//! * **Spine and leaves.** The root's static operator spine — `Parallel`
//!   nodes, plus any `Hide` or `Rename` whose operand is a `Parallel` — is
//!   split once into nodes over *leaves*, the maximal subterms below it.
//!   A root `Var` chain whose body is such a spine unfolds into a distinct
//!   initial state, as the `Var` term is one.
//! * **Leaf states.** A leaf state is a term of the [`TermArena`], fired by
//!   [`TermArena::transitions`] the first time the product reaches it and
//!   memoised in the arena's emission order.
//! * **Composite states.** A composite state is the tuple of its leaf
//!   states, numbered per build and stored flat. Its successors come from
//!   the spine's rules over the leaves' memoised moves; no composite term
//!   is built or hashed.
//!
//! The spine rules emit successors in the order the arena's rules emit the
//! successors of the composite term, so BFS numbering and edge lists are
//! those of exploring the hash-consed terms one by one. `tests/term_prop.rs`
//! pins this against the tree semantics. A root with no spine is the
//! one-leaf case of the same rules.
//!
//! Only one fact about a state's term is observable downstream: whether it
//! is the terminated process `Ω`. An [`Lts`] keeps exactly that, as a
//! bitset.

use std::collections::HashMap;

use crate::alphabet::{EventSet, Label, RenameMap};
use crate::error::CspError;
use crate::process::{Definitions, Process};
use crate::semantics::MAX_UNFOLD_DEPTH;
use crate::term::{Term, TermArena, TermId};

/// Index of a state within an [`Lts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// Raw index of this state.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index (for tests and serialisation).
    pub fn from_index(index: usize) -> Self {
        StateId(index as u32)
    }
}

/// An explicit labelled transition system: the reachable state graph of a
/// process term, state 0 initial, with one `Ω` bit per state.
#[derive(Debug, Clone)]
pub struct Lts {
    omega: Vec<u64>,
    transitions: Vec<Vec<(Label, StateId)>>,
}

impl Lts {
    /// Explore the reachable states of `root` breadth-first.
    ///
    /// # Errors
    ///
    /// * [`CspError::StateSpaceExceeded`] if more than `max_states` distinct
    ///   states are reachable.
    /// * Any error from the firing rules (undefined or unguarded recursion).
    pub fn build(root: Process, defs: &Definitions, max_states: usize) -> Result<Lts, CspError> {
        let mut arena = TermArena::new();
        let root = arena.intern(&root);
        Lts::build_in(&mut arena, root, defs, max_states)
    }

    /// Explore the reachable states of an already-interned term, sharing
    /// `arena`'s hash-consed structure (and its memoised definition bodies)
    /// with any previous builds against the same [`Definitions`] table.
    ///
    /// This is the entry point for callers that compile many related
    /// processes — repeated assertions over one script, conformance checks
    /// of many traces against one spec — where re-interning from scratch
    /// would redo the structural work the arena exists to amortise.
    ///
    /// # Errors
    ///
    /// As for [`Lts::build`]. A leaf state is fired only once the product
    /// reaches it, so each error arises at the same state as it would when
    /// firing the composite term there.
    pub fn build_in(
        arena: &mut TermArena,
        root: TermId,
        defs: &Definitions,
        max_states: usize,
    ) -> Result<Lts, CspError> {
        let (spine, unfolded) = Spine::of(arena, root, defs);
        let width = spine.leaves.len();
        let mut leaves = LeafMoves::default();
        let mut tuples: Vec<u32> = spine.leaves.iter().map(|&t| leaves.number(t)).collect();
        let mut omega = vec![leaves.is_omega(arena, &tuples)];
        let mut out: Vec<Vec<(Label, StateId)>> = vec![Vec::new()];
        let mut index = TupleIndex::default();
        // An unfolded root `Var` is a state of its own: its body's tuple,
        // if reached, is a different one.
        if unfolded == 0 {
            index.insert(&tuples, width, StateId(0));
        }
        let mut omega_state: Option<StateId> = None;
        let mut fired = vec![(0, 0); width];
        let mut buffers = MoveBuffers::default();

        let mut frontier = 0usize;
        while frontier < out.len() {
            if omega[frontier] {
                frontier += 1;
                continue;
            }
            // The root's unfoldings count towards its leaves' recursion depth.
            let depth = if frontier == 0 { unfolded } else { 0 };
            let at = frontier * width;
            for (i, range) in fired.iter_mut().enumerate() {
                *range = leaves.fire(arena, defs, tuples[at + i], depth)?;
            }
            let moves = spine.moves(&leaves, &fired, &tuples[at..at + width], &mut buffers);
            let mut edges = Vec::with_capacity(moves.labels.len());
            for (&label, slots) in moves.labels.iter().zip(moves.slots.chunks_exact(width)) {
                let known = if slots[0] == OMEGA {
                    omega_state
                } else {
                    index.find(&tuples, width, slots)
                };
                let id = match known {
                    Some(id) => id,
                    None => {
                        if out.len() >= max_states {
                            return Err(CspError::StateSpaceExceeded { limit: max_states });
                        }
                        let id = StateId(out.len() as u32);
                        tuples.extend_from_slice(slots);
                        out.push(Vec::new());
                        if slots[0] == OMEGA {
                            omega.push(true);
                            omega_state = Some(id);
                        } else {
                            omega.push(leaves.is_omega(arena, slots));
                            index.insert(&tuples, width, id);
                        }
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
        Ok(Lts::from_parts(&omega, out))
    }

    /// Assemble an LTS directly from per-state `Ω` flags and transition
    /// lists (used by compression and by cache deserialisation). State 0 is
    /// the initial state.
    ///
    /// # Panics
    ///
    /// Panics if `omega` and `transitions` have different lengths or are
    /// empty.
    pub fn from_parts(omega: &[bool], transitions: Vec<Vec<(Label, StateId)>>) -> Lts {
        assert_eq!(omega.len(), transitions.len());
        assert!(!omega.is_empty());
        let mut bits = vec![0u64; omega.len().div_ceil(64)];
        for (i, _) in omega.iter().enumerate().filter(|(_, &o)| o) {
            bits[i / 64] |= 1 << (i % 64);
        }
        Lts {
            omega: bits,
            transitions,
        }
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// Total number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// Whether a state is the terminated process `Ω` (a terminal `Ω` is
    /// successful termination, not a deadlock).
    pub fn is_omega(&self, id: StateId) -> bool {
        self.omega[id.index() / 64] >> (id.index() % 64) & 1 == 1
    }

    /// The outgoing edges of a state, sorted by `(label, target)`.
    pub fn edges(&self, id: StateId) -> &[(Label, StateId)] {
        &self.transitions[id.index()]
    }

    /// Iterate over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.transitions.len() as u32).map(StateId)
    }

    /// Whether `id` has no outgoing transitions at all (deadlock if it is
    /// also not the terminated state `Ω`).
    pub fn is_terminal(&self, id: StateId) -> bool {
        self.transitions[id.index()].is_empty()
    }

    /// States reachable from `from` by following only `τ` transitions
    /// (including `from` itself), in ascending order.
    pub fn tau_closure(&self, from: StateId) -> Vec<StateId> {
        let mut seen = vec![false; self.transitions.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(s) = stack.pop() {
            for &(label, target) in self.edges(s) {
                if label.is_tau() && !seen[target.index()] {
                    seen[target.index()] = true;
                    stack.push(target);
                }
            }
        }
        (0..self.transitions.len())
            .filter(|&i| seen[i])
            .map(|i| StateId(i as u32))
            .collect()
    }

    /// Whether a `τ`-cycle exists, i.e. the process can diverge.
    ///
    /// Runs Kahn's algorithm on the τ-subgraph: a cycle exists exactly when
    /// topological sorting cannot consume every state.
    pub fn has_tau_cycle(&self) -> bool {
        let n = self.transitions.len();
        let mut indegree = vec![0usize; n];
        let mut tau_succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (s, edges) in self.transitions.iter().enumerate() {
            for &(label, target) in edges {
                if label.is_tau() {
                    tau_succs[s].push(target.index());
                    indegree[target.index()] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut processed = 0usize;
        while let Some(s) = queue.pop() {
            processed += 1;
            for &t in &tau_succs[s] {
                indegree[t] -= 1;
                if indegree[t] == 0 {
                    queue.push(t);
                }
            }
        }
        processed < n
    }

    /// The maximum out-degree over all states — the natural per-task work
    /// bound for parallel exploration.
    pub fn max_out_degree(&self) -> usize {
        self.transitions.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Flatten the transition lists into a compact CSR (compressed sparse
    /// row) snapshot for concurrent read-only traversal.
    ///
    /// The per-state `Vec`s of an [`Lts`] are already shareable across
    /// threads, but each is its own allocation; the CSR form packs every
    /// edge into one contiguous array, which keeps a multi-worker product
    /// exploration on warm cache lines instead of chasing pointers.
    pub fn to_csr(&self) -> CsrEdges {
        let mut offsets = Vec::with_capacity(self.transitions.len() + 1);
        let mut edges = Vec::with_capacity(self.transition_count());
        offsets.push(0u32);
        for row in &self.transitions {
            edges.extend_from_slice(row);
            offsets.push(edges.len() as u32);
        }
        CsrEdges { offsets, edges }
    }
}

/// A flat, read-only snapshot of an [`Lts`]'s transition relation in CSR
/// form: one contiguous edge array plus per-state offsets.
///
/// `CsrEdges` is `Send + Sync` and carries no interior mutability, so any
/// number of worker threads can traverse it concurrently without
/// synchronisation. Built by [`Lts::to_csr`].
#[derive(Debug, Clone)]
pub struct CsrEdges {
    offsets: Vec<u32>,
    edges: Vec<(Label, StateId)>,
}

impl CsrEdges {
    /// The outgoing edges of `id`, sorted by `(label, target)` as in the
    /// source [`Lts`].
    pub fn edges(&self, id: StateId) -> &[(Label, StateId)] {
        let lo = self.offsets[id.index()] as usize;
        let hi = self.offsets[id.index() + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// The slot value of a composite's `✓` move: its successor is `Ω`, not a
/// tuple. Leaf states are numbered from 0 and never reach `u32::MAX`.
const OMEGA: u32 = u32::MAX;

/// One node of a root's operator spine, in post-order.
#[derive(Debug)]
enum Node {
    /// The leaf at this position of the tuple.
    Leaf(usize),
    /// `P [| sync |] Q` over the leaves `lo..mid` (`P`) and `mid..hi` (`Q`).
    Parallel {
        sync: EventSet,
        lo: usize,
        mid: usize,
        hi: usize,
    },
    /// `P \ A`: the operand's visible events in `A` become `τ`.
    Hide(EventSet),
    /// `P[[R]]`: the operand's visible events are renamed.
    Rename(RenameMap),
}

/// A root term split into its operator spine and the leaves below it.
#[derive(Debug, Default)]
struct Spine {
    nodes: Vec<Node>,
    leaves: Vec<TermId>,
}

impl Spine {
    /// Split `root`, first unfolding a root `Var` chain whose body has a
    /// spine. Also returns the number of definitions unfolded.
    fn of(arena: &mut TermArena, root: TermId, defs: &Definitions) -> (Spine, usize) {
        let (top, unfolded) = unfold_root(arena, root, defs).unwrap_or((root, 0));
        let mut spine = Spine::default();
        spine.split(arena, top);
        (spine, unfolded)
    }

    fn split(&mut self, arena: &TermArena, t: TermId) {
        match *arena.term(t) {
            Term::Parallel { sync, left, right } => {
                let lo = self.leaves.len();
                self.split(arena, left);
                let mid = self.leaves.len();
                self.split(arena, right);
                let sync = arena.set(sync).clone();
                let hi = self.leaves.len();
                self.nodes.push(Node::Parallel { sync, lo, mid, hi });
            }
            Term::Hide(inner, hidden) if is_parallel(arena, inner) => {
                self.split(arena, inner);
                self.nodes.push(Node::Hide(arena.set(hidden).clone()));
            }
            Term::Rename(inner, map) if is_parallel(arena, inner) => {
                self.split(arena, inner);
                self.nodes.push(Node::Rename(arena.map(map).clone()));
            }
            _ => {
                self.nodes.push(Node::Leaf(self.leaves.len()));
                self.leaves.push(t);
            }
        }
    }

    /// The moves of the composite state `cur`, whose leaves' moves are
    /// `leaves.edges[fired[i]]`, in the order the arena's rules emit the
    /// successors of the composite term.
    fn moves<'s>(
        &self,
        leaves: &LeafMoves,
        fired: &[(u32, u32)],
        cur: &[u32],
        buffers: &'s mut MoveBuffers,
    ) -> &'s Moves {
        let MoveBuffers { stack, pool } = buffers;
        pool.append(stack);
        for node in &self.nodes {
            match node {
                Node::Leaf(i) => {
                    let mut m = fresh(pool);
                    let (lo, hi) = fired[*i];
                    for &(label, t) in &leaves.edges[lo as usize..hi as usize] {
                        m.labels.push(label);
                        m.slots.push(t);
                    }
                    stack.push(m);
                }
                Node::Parallel { sync, lo, mid, hi } => {
                    let right = stack.pop().expect("a parallel node has two operands");
                    let left = stack.pop().expect("a parallel node has two operands");
                    let mut m = fresh(pool);
                    parallel(
                        sync,
                        &left,
                        &right,
                        &cur[*lo..*mid],
                        &cur[*mid..*hi],
                        &mut m,
                    );
                    pool.extend([left, right]);
                    stack.push(m);
                }
                Node::Hide(hidden) => {
                    let m = stack.last_mut().expect("hiding has an operand");
                    for label in &mut m.labels {
                        if matches!(*label, Label::Event(e) if hidden.contains(e)) {
                            *label = Label::Tau;
                        }
                    }
                }
                Node::Rename(map) => {
                    let m = stack.last_mut().expect("renaming has an operand");
                    for label in &mut m.labels {
                        if let Label::Event(e) = *label {
                            *label = Label::Event(map.apply(e));
                        }
                    }
                }
            }
        }
        stack.last().expect("the spine has a root")
    }
}

/// Follow a root `Var` chain to a body with a spine, as firing the root
/// would. `None` when the chain ends elsewhere or cannot be followed; the
/// root is then a leaf, and firing it reports any error.
fn unfold_root(arena: &mut TermArena, root: TermId, defs: &Definitions) -> Option<(TermId, usize)> {
    let mut t = root;
    let mut depth = 0;
    while let Term::Var(d) = *arena.term(t) {
        if depth >= MAX_UNFOLD_DEPTH {
            return None;
        }
        t = arena.def_term(d, defs).ok()?;
        depth += 1;
    }
    let composite = match *arena.term(t) {
        Term::Parallel { .. } => true,
        Term::Hide(inner, _) | Term::Rename(inner, _) => is_parallel(arena, inner),
        _ => false,
    };
    (depth > 0 && composite).then_some((t, depth))
}

fn is_parallel(arena: &TermArena, t: TermId) -> bool {
    matches!(arena.term(t), Term::Parallel { .. })
}

/// The `P [| sync |] Q` rule over the operands' moves (`left`, `right`)
/// and current leaf states (`cur_l`, `cur_r`): `P`'s independent moves,
/// then `Q`'s, then synchronised pairs, then distributed `✓`.
fn parallel(
    sync: &EventSet,
    left: &Moves,
    right: &Moves,
    cur_l: &[u32],
    cur_r: &[u32],
    out: &mut Moves,
) {
    let independent = |label: Label| match label {
        Label::Tau => true,
        Label::Tick => false,
        Label::Event(e) => !sync.contains(e),
    };
    for (label, slots) in left.iter(cur_l.len()) {
        if independent(label) {
            out.push(label, slots, cur_r);
        }
    }
    for (label, slots) in right.iter(cur_r.len()) {
        if independent(label) {
            out.push(label, cur_l, slots);
        }
    }
    for (ll, ls) in left.iter(cur_l.len()) {
        if !matches!(ll, Label::Event(e) if sync.contains(e)) {
            continue;
        }
        for (rl, rs) in right.iter(cur_r.len()) {
            if rl == ll {
                out.push(ll, ls, rs);
            }
        }
    }
    if left.labels.contains(&Label::Tick) && right.labels.contains(&Label::Tick) {
        out.labels.push(Label::Tick);
        out.slots
            .extend(std::iter::repeat_n(OMEGA, cur_l.len() + cur_r.len()));
    }
}

/// The moves of one spine node: a label per move and, flat, the node's
/// leaf states after it.
#[derive(Debug, Default)]
struct Moves {
    labels: Vec<Label>,
    slots: Vec<u32>,
}

impl Moves {
    fn iter(&self, width: usize) -> impl Iterator<Item = (Label, &[u32])> {
        self.labels
            .iter()
            .copied()
            .zip(self.slots.chunks_exact(width))
    }

    fn push(&mut self, label: Label, left: &[u32], right: &[u32]) {
        self.labels.push(label);
        self.slots.extend_from_slice(left);
        self.slots.extend_from_slice(right);
    }
}

/// Move buffers reused across states: the evaluation stack of the spine
/// and the free ones.
#[derive(Debug, Default)]
struct MoveBuffers {
    stack: Vec<Moves>,
    pool: Vec<Moves>,
}

fn fresh(pool: &mut Vec<Moves>) -> Moves {
    let mut m = pool.pop().unwrap_or_default();
    m.labels.clear();
    m.slots.clear();
    m
}

/// Every leaf state the product has reached, numbered in order of
/// discovery, and the moves of those it has fired, in the arena's emission
/// order: leaf state `l` is the term `terms[l]` and moves along
/// `edges[memo[l]]`. Numbering keeps the memo as small as the leaf state
/// space, however large a shared arena has grown.
#[derive(Debug, Default)]
struct LeafMoves {
    terms: Vec<TermId>,
    numbers: HashMap<TermId, u32>,
    memo: Vec<(u32, u32)>,
    edges: Vec<(Label, u32)>,
}

impl LeafMoves {
    const UNFIRED: (u32, u32) = (u32::MAX, 0);

    /// The number of leaf term `t`, numbering it if it is new.
    fn number(&mut self, t: TermId) -> u32 {
        *self.numbers.entry(t).or_insert_with(|| {
            self.terms.push(t);
            self.memo.push(Self::UNFIRED);
            (self.terms.len() - 1) as u32
        })
    }

    /// The range of `edges` holding the moves of leaf state `l`, firing its
    /// term (at recursion depth `depth`) if no state has reached it yet.
    fn fire(
        &mut self,
        arena: &mut TermArena,
        defs: &Definitions,
        l: u32,
        depth: usize,
    ) -> Result<(u32, u32), CspError> {
        let l = l as usize;
        if self.memo[l] != Self::UNFIRED {
            return Ok(self.memo[l]);
        }
        let lo = self.edges.len() as u32;
        for (label, t) in arena.transitions_at(self.terms[l], defs, depth)? {
            let next = self.number(t);
            self.edges.push((label, next));
        }
        self.memo[l] = (lo, self.edges.len() as u32);
        Ok(self.memo[l])
    }

    /// A tuple stands for `Ω` only when it is a single leaf state that is
    /// `Ω`: a composite's `Ω` is the [`OMEGA`] successor, never a tuple.
    fn is_omega(&self, arena: &TermArena, tuple: &[u32]) -> bool {
        matches!(tuple, [l] if matches!(arena.term(self.terms[*l as usize]), Term::Omega))
    }
}

/// An open-addressed index from leaf tuples to the ids of the states that
/// own them. Slots hold only ids; keys are read from the state table.
#[derive(Debug, Default)]
struct TupleIndex {
    slots: Vec<u32>,
    len: usize,
}

impl TupleIndex {
    const EMPTY: u32 = u32::MAX;

    fn home(&self, key: &[u32]) -> usize {
        let mut h = 0u64;
        for &x in key {
            h = (h.rotate_left(5) ^ u64::from(x)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        // Fibonacci hashing: the high bits are the well-mixed ones.
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn find(&self, tuples: &[u32], width: usize, key: &[u32]) -> Option<StateId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let id = self.slots[i];
            if id == Self::EMPTY {
                return None;
            }
            let at = id as usize * width;
            if &tuples[at..at + width] == key {
                return Some(StateId(id));
            }
            i = (i + 1) & mask;
        }
    }

    /// Index state `id`, whose tuple is already in `tuples`.
    fn insert(&mut self, tuples: &[u32], width: usize, id: StateId) {
        if (self.len + 1) * 2 > self.slots.len() {
            let grown = vec![Self::EMPTY; (self.slots.len() * 2).max(64)];
            let old = std::mem::replace(&mut self.slots, grown);
            self.len = 0;
            for id in old.into_iter().filter(|&id| id != Self::EMPTY) {
                self.insert(tuples, width, StateId(id));
            }
        }
        let at = id.index() * width;
        let mask = self.slots.len() - 1;
        let mut i = self.home(&tuples[at..at + width]);
        while self.slots[i] != Self::EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = id.0;
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{EventId, EventSet};

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    #[test]
    fn recursion_yields_finite_lts() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(
            d,
            Process::prefix(e(0), Process::prefix(e(1), Process::var(d))),
        );
        let lts = Lts::build(Process::var(d), &defs, 100).unwrap();
        assert_eq!(lts.state_count(), 2);
        assert_eq!(lts.transition_count(), 2);
    }

    /// `NAME0 = NAME1 = … = NAME{len-1} = last`; returns `NAME0`.
    fn chain(defs: &mut Definitions, name: &str, len: usize, last: Process) -> Process {
        let ids: Vec<_> = (0..len)
            .map(|i| defs.declare(&format!("{name}{i}")))
            .collect();
        for link in ids.windows(2) {
            defs.define(link[0], Process::var(link[1]));
        }
        defs.define(ids[len - 1], last);
        Process::var(ids[0])
    }

    #[test]
    fn an_unfolded_root_counts_towards_its_leaves_recursion_depth() {
        // A 100-definition root chain into `L ||| STOP`, where `L` is a
        // 40-definition chain: each chain alone is guarded enough, but
        // firing the root unfolds 140 definitions in one derivation.
        let mut defs = Definitions::new();
        let leaf = chain(&mut defs, "L", 40, Process::prefix(e(0), Process::Stop));
        let root = chain(
            &mut defs,
            "R",
            100,
            Process::interleave(leaf, Process::Stop),
        );
        let want = crate::semantics::transitions(&root, &defs).unwrap_err();
        assert!(matches!(want, CspError::UnguardedRecursion { .. }));
        assert_eq!(Lts::build(root, &defs, 100).unwrap_err(), want);
    }

    #[test]
    fn state_limit_is_enforced() {
        let defs = Definitions::new();
        // A chain of 10 distinct prefix states.
        let p = Process::prefix_chain((0..10).map(e), Process::Stop);
        let err = Lts::build(p, &defs, 5).unwrap_err();
        assert!(matches!(err, CspError::StateSpaceExceeded { limit: 5 }));
    }

    #[test]
    fn tau_closure_collects_internal_states() {
        let defs = Definitions::new();
        let p = Process::internal_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let lts = Lts::build(p, &defs, 100).unwrap();
        let closure = lts.tau_closure(lts.initial());
        // initial + both resolved branches
        assert_eq!(closure.len(), 3);
    }

    #[test]
    fn divergence_detected_for_hidden_loop() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(d, Process::prefix(e(0), Process::var(d)));
        let hidden = Process::hide(Process::var(d), EventSet::singleton(e(0)));
        let lts = Lts::build(hidden, &defs, 100).unwrap();
        assert!(lts.has_tau_cycle());
    }

    #[test]
    fn no_divergence_without_tau_cycle() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(d, Process::prefix(e(0), Process::var(d)));
        let lts = Lts::build(Process::var(d), &defs, 100).unwrap();
        assert!(!lts.has_tau_cycle());
    }

    #[test]
    fn parallel_product_states() {
        let defs = Definitions::new();
        let p = Process::interleave(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let lts = Lts::build(p, &defs, 100).unwrap();
        // 2x2 product grid.
        assert_eq!(lts.state_count(), 4);
    }

    #[test]
    fn edges_are_sorted_and_deduped() {
        let defs = Definitions::new();
        // a -> STOP [] a -> STOP produces duplicate edges that must collapse.
        let p = Process::ExternalChoice(vec![
            std::sync::Arc::new(Process::prefix(e(0), Process::Stop)),
            std::sync::Arc::new(Process::prefix(e(0), Process::Stop)),
        ]);
        let lts = Lts::build(p, &defs, 100).unwrap();
        assert_eq!(lts.edges(lts.initial()).len(), 1);
    }

    #[test]
    fn csr_view_matches_edge_lists() {
        let defs = Definitions::new();
        let p = Process::interleave(
            Process::prefix(e(0), Process::prefix(e(1), Process::Stop)),
            Process::prefix(e(2), Process::Stop),
        );
        let lts = Lts::build(p, &defs, 100).unwrap();
        let csr = lts.to_csr();
        assert_eq!(csr.state_count(), lts.state_count());
        assert_eq!(csr.edge_count(), lts.transition_count());
        for s in lts.state_ids() {
            assert_eq!(csr.edges(s), lts.edges(s));
        }
        assert!(lts.max_out_degree() >= 1);
    }

    #[test]
    fn lts_and_csr_are_shareable_across_threads() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<Lts>();
        assert_sync_send::<CsrEdges>();
    }
}
