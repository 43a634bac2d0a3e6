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
//!   one pass of the spine's rules over the leaves' memoised moves, in one
//!   flat buffer: a move records only the leaves it changes, and only the
//!   root writes out a successor tuple, hashed once to find or number it.
//!   No composite term is built or hashed.
//!
//! The spine rules emit successors in the order the arena's rules emit the
//! successors of the composite term, so BFS numbering and edge lists are
//! those of exploring the hash-consed terms one by one. `tests/term_prop.rs`
//! pins this against the tree semantics. A root with no spine is the
//! one-leaf case of the same rules.
//!
//! An [`Lts`] is the one table every consumer reads: the edges in CSR form,
//! each state's sorted run appended as the search expands states in id
//! order. Only one fact about a state's term is observable downstream:
//! whether it is the terminated process `Ω`. An [`Lts`] keeps exactly
//! that, as a bitset.

use std::collections::HashMap;

use crate::alphabet::{EventSet, Label, RenameMap};
use crate::error::CspError;
use crate::process::{Definitions, Process};
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
///
/// The edges are one flat array in CSR (compressed sparse row) form: state
/// `s` owns `edges[offsets[s]..offsets[s + 1]]`, sorted by
/// `(label, target)`. An `Lts` has no interior mutability, so any number
/// of threads can traverse one at once.
#[derive(Debug, Clone)]
pub struct Lts {
    omega: Vec<u64>,
    offsets: Vec<u32>,
    edges: Vec<(Label, StateId)>,
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
        // The tuple hash of each state, by id.
        let mut hashes = vec![tuple_hash(&tuples)];
        let mut index = TupleIndex::default();
        // An unfolded root `Var` is a state of its own: its body's tuple,
        // if reached, is a different one.
        if !unfolded {
            index.find_or_insert(&tuples, width, hashes[0], StateId(0));
        }
        let mut omega_state: Option<StateId> = None;
        let mut fired = vec![(0, 0); width];
        let mut moves = Moves::default();
        let mut offsets = vec![0u32];
        let mut edges: Vec<(Label, StateId)> = Vec::new();

        let mut frontier = 0usize;
        while frontier < omega.len() {
            if !omega[frontier] {
                // Unfolding the root into its spine nests its leaves one
                // definition deep, as firing the root would.
                let depth = usize::from(frontier == 0 && unfolded);
                let at = frontier * width;
                for (i, range) in fired.iter_mut().enumerate() {
                    *range = leaves.fire(arena, defs, tuples[at + i], depth)?;
                }
                spine.eval(&leaves, &fired, &mut moves);
                let row = edges.len();
                for m in &moves.moves {
                    let target = if m.lo == m.hi {
                        // A composite `✓`: every one leads to the one `Ω`.
                        match omega_state {
                            Some(id) => id,
                            None => {
                                let id = admit(&mut omega, max_states, true)?;
                                // Placeholders keep the tables indexed by
                                // state id; `Ω` is never expanded.
                                tuples.resize(tuples.len() + width, OMEGA);
                                hashes.push(0);
                                omega_state = Some(id);
                                id
                            }
                        }
                    } else {
                        let next = tuples.len();
                        tuples.extend_from_within(at..at + width);
                        let mut hash = hashes[frontier];
                        for &(pos, leaf) in moves.changes(m) {
                            let slot = &mut tuples[next + pos as usize];
                            hash = hash
                                .wrapping_sub(mix(pos, *slot))
                                .wrapping_add(mix(pos, leaf));
                            *slot = leaf;
                        }
                        let fresh = StateId(omega.len() as u32);
                        match index.find_or_insert(&tuples, width, hash, fresh) {
                            Some(id) => {
                                tuples.truncate(next);
                                id
                            }
                            None => {
                                let terminated = leaves.is_omega(arena, &tuples[next..]);
                                hashes.push(hash);
                                admit(&mut omega, max_states, terminated)?
                            }
                        }
                    };
                    edges.push((m.label, target));
                }
                close_row(&mut edges, row);
            }
            offsets.push(edges.len() as u32);
            frontier += 1;
        }
        Ok(Lts::from_parts(&omega, offsets, edges))
    }

    /// Assemble an LTS from per-state `Ω` flags and its edges in CSR form:
    /// state `s` owns `edges[offsets[s]..offsets[s + 1]]`, sorted by
    /// `(label, target)` without duplicates. State 0 is the initial state.
    /// Outside this module its one caller is cache decoding
    /// (`fdrlite::persist`).
    ///
    /// # Panics
    ///
    /// Panics if `omega` is empty, or if `offsets` does not run
    /// monotonically from 0 to `edges.len()` in one more entry than
    /// `omega` has.
    pub fn from_parts(omega: &[bool], offsets: Vec<u32>, edges: Vec<(Label, StateId)>) -> Lts {
        assert!(!omega.is_empty());
        assert_eq!(offsets.len(), omega.len() + 1);
        assert_eq!(offsets[0], 0);
        assert_eq!(offsets[omega.len()] as usize, edges.len());
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let mut bits = vec![0u64; omega.len().div_ceil(64)];
        for (i, _) in omega.iter().enumerate().filter(|(_, &o)| o) {
            bits[i / 64] |= 1 << (i % 64);
        }
        Lts {
            omega: bits,
            offsets,
            edges,
        }
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of transitions.
    pub fn transition_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether a state is the terminated process `Ω` (a terminal `Ω` is
    /// successful termination, not a deadlock).
    pub fn is_omega(&self, id: StateId) -> bool {
        self.omega[id.index() / 64] >> (id.index() % 64) & 1 == 1
    }

    /// The outgoing edges of a state, sorted by `(label, target)`.
    pub fn edges(&self, id: StateId) -> &[(Label, StateId)] {
        let lo = self.offsets[id.index()] as usize;
        let hi = self.offsets[id.index() + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Iterate over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.state_count() as u32).map(StateId)
    }

    /// Whether `id` has no outgoing transitions at all (deadlock if it is
    /// also not the terminated state `Ω`).
    pub fn is_terminal(&self, id: StateId) -> bool {
        self.edges(id).is_empty()
    }

    /// States reachable from `from` by following only `τ` transitions
    /// (including `from` itself), in ascending order.
    pub fn tau_closure(&self, from: StateId) -> Vec<StateId> {
        let mut closure = Vec::new();
        self.tau_closure_into(&[from], &mut Vec::new(), &mut closure);
        closure
    }

    /// The states reachable from any of `from` by `τ` transitions alone
    /// (`from` included), ascending, into `out`.
    ///
    /// `marks` is a buffer to keep across calls: it must hold no `true` on
    /// entry, and holds none on return. A call marks and unmarks only the
    /// states it reaches, so once `marks` has grown to the state count a
    /// closure of `k` states costs `O(k log k)`, however large the LTS.
    pub fn tau_closure_into(
        &self,
        from: &[StateId],
        marks: &mut Vec<bool>,
        out: &mut Vec<StateId>,
    ) {
        if marks.len() < self.state_count() {
            marks.resize(self.state_count(), false);
        }
        out.clear();
        for &s in from {
            if !std::mem::replace(&mut marks[s.index()], true) {
                out.push(s);
            }
        }
        // `out` doubles as the search queue.
        let mut next = 0;
        while let Some(&s) = out.get(next) {
            next += 1;
            // `τ` sorts before every other label: τ-edges open a run.
            for &(_, target) in self.edges(s).iter().take_while(|(l, _)| l.is_tau()) {
                if !std::mem::replace(&mut marks[target.index()], true) {
                    out.push(target);
                }
            }
        }
        for s in out.iter() {
            marks[s.index()] = false;
        }
        out.sort_unstable();
    }
}

/// Close the row that began at `edges[row]`: sort it by `(label, target)`
/// and drop repeated edges.
fn close_row(edges: &mut Vec<(Label, StateId)>, row: usize) {
    edges[row..].sort_unstable();
    let mut kept = row;
    for i in row..edges.len() {
        if kept == row || edges[i] != edges[kept - 1] {
            edges[kept] = edges[i];
            kept += 1;
        }
    }
    edges.truncate(kept);
}

/// Number a newly reached state, unless `max_states` are numbered already.
fn admit(omega: &mut Vec<bool>, max_states: usize, is_omega: bool) -> Result<StateId, CspError> {
    if omega.len() >= max_states {
        return Err(CspError::StateSpaceExceeded { limit: max_states });
    }
    omega.push(is_omega);
    Ok(StateId(omega.len() as u32 - 1))
}

/// The tuple slot value of the `Ω` state, which is no tuple. Leaf states
/// are numbered from 0 and never reach `u32::MAX`.
const OMEGA: u32 = u32::MAX;

/// One node of a root's operator spine, in post-order.
#[derive(Debug)]
enum Node {
    /// The leaf at this position of the tuple.
    Leaf(u32),
    /// `P [| sync |] Q` over the two operands evaluated before it.
    Parallel(EventSet),
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
    /// spine. Also returns whether it unfolded one.
    fn of(arena: &mut TermArena, root: TermId, defs: &Definitions) -> (Spine, bool) {
        let top = unfold_root(arena, root, defs);
        let mut spine = Spine::default();
        spine.split(arena, top.unwrap_or(root));
        (spine, top.is_some())
    }

    fn split(&mut self, arena: &TermArena, t: TermId) {
        match *arena.term(t) {
            Term::Parallel { sync, left, right } => {
                self.split(arena, left);
                self.split(arena, right);
                self.nodes.push(Node::Parallel(arena.set(sync).clone()));
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
                self.nodes.push(Node::Leaf(self.leaves.len() as u32));
                self.leaves.push(t);
            }
        }
    }

    /// Evaluate the spine into `out`, leaving there the moves of the
    /// composite state whose leaves move along `leaves.edges[fired[i]]`, in
    /// the order the arena's rules emit the successors of the composite
    /// term.
    fn eval(&self, leaves: &LeafMoves, fired: &[(u32, u32)], out: &mut Moves) {
        out.moves.clear();
        out.changes.clear();
        out.starts.clear();
        for node in &self.nodes {
            match node {
                &Node::Leaf(pos) => {
                    out.starts.push(out.moves.len());
                    let (lo, hi) = fired[pos as usize];
                    for &(label, leaf) in &leaves.edges[lo as usize..hi as usize] {
                        let at = out.changes.len() as u32;
                        out.changes.push((pos, leaf));
                        out.moves.push(Move {
                            label,
                            lo: at,
                            hi: at + 1,
                        });
                    }
                }
                Node::Parallel(sync) => {
                    let right = out.starts.pop().expect("a parallel node has two operands");
                    let left = *out.starts.last().expect("a parallel node has two operands");
                    out.parallel(sync, left, right);
                }
                Node::Hide(hidden) => {
                    let run = *out.starts.last().expect("hiding has an operand");
                    for m in &mut out.moves[run..] {
                        if matches!(m.label, Label::Event(e) if hidden.contains(e)) {
                            m.label = Label::Tau;
                        }
                    }
                }
                Node::Rename(map) => {
                    let run = *out.starts.last().expect("renaming has an operand");
                    for m in &mut out.moves[run..] {
                        if let Label::Event(e) = m.label {
                            m.label = Label::Event(map.apply(e));
                        }
                    }
                }
            }
        }
    }
}

/// Follow a root `Var` chain to a body with a spine, as firing the root
/// would. `None` when the root is no such `Var` chain; the root is then a
/// leaf, and firing it reports any error.
fn unfold_root(arena: &mut TermArena, root: TermId, defs: &Definitions) -> Option<TermId> {
    let Term::Var(d) = *arena.term(root) else {
        return None;
    };
    let (d, _) = crate::semantics::unfold(d, defs).ok()?;
    let t = arena.def_term(d, defs).ok()?;
    let composite = match *arena.term(t) {
        Term::Parallel { .. } => true,
        Term::Hide(inner, _) | Term::Rename(inner, _) => is_parallel(arena, inner),
        _ => false,
    };
    composite.then_some(t)
}

fn is_parallel(arena: &TermArena, t: TermId) -> bool {
    matches!(arena.term(t), Term::Parallel { .. })
}

/// One move of a spine node: its label and the leaves it changes,
/// `changes[lo..hi]`. A composite `✓` changes none: its successor is `Ω`,
/// not a tuple.
#[derive(Debug, Clone, Copy)]
struct Move {
    label: Label,
    lo: u32,
    hi: u32,
}

/// The moves of the spine's pending nodes in one flat buffer, reused
/// across states: each pending node's moves are one run, from its entry in
/// `starts` to the next node's.
#[derive(Debug, Default)]
struct Moves {
    moves: Vec<Move>,
    /// `(leaf position, leaf state)` pairs, as the moves index them.
    changes: Vec<(u32, u32)>,
    starts: Vec<usize>,
}

impl Moves {
    fn changes(&self, m: &Move) -> &[(u32, u32)] {
        &self.changes[m.lo as usize..m.hi as usize]
    }

    /// The `P [| sync |] Q` rule over `P`'s run `moves[left..right]` and
    /// `Q`'s run `moves[right..]`, leaving in `moves[left..]` `P`'s
    /// independent moves, then `Q`'s, then synchronised pairs left-major,
    /// then distributed `✓`.
    fn parallel(&mut self, sync: &EventSet, left: usize, right: usize) {
        let end = self.moves.len();
        let ticks = |run: &[Move]| run.iter().any(|m| m.label == Label::Tick);
        if sync.is_empty() && !ticks(&self.moves[left..end]) {
            // An interleaving with no `✓` on offer: both runs stand.
            return;
        }
        let tick = ticks(&self.moves[left..right]) && ticks(&self.moves[right..end]);
        // Pairs first, while both runs are whole.
        for l in left..right {
            let lm = self.moves[l];
            if !matches!(lm.label, Label::Event(e) if sync.contains(e)) {
                continue;
            }
            for r in right..end {
                let rm = self.moves[r];
                if rm.label == lm.label {
                    let lo = self.changes.len() as u32;
                    self.changes
                        .extend_from_within(lm.lo as usize..lm.hi as usize);
                    self.changes
                        .extend_from_within(rm.lo as usize..rm.hi as usize);
                    let hi = self.changes.len() as u32;
                    self.moves.push(Move {
                        label: lm.label,
                        lo,
                        hi,
                    });
                }
            }
        }
        // Then keep the independent moves of both runs, in place, and the
        // pairs after them.
        let mut kept = left;
        for i in left..self.moves.len() {
            let m = self.moves[i];
            let keep = i >= end
                || match m.label {
                    Label::Tau => true,
                    Label::Tick => false,
                    Label::Event(e) => !sync.contains(e),
                };
            if keep {
                self.moves[kept] = m;
                kept += 1;
            }
        }
        self.moves.truncate(kept);
        if tick {
            self.moves.push(Move {
                label: Label::Tick,
                lo: 0,
                hi: 0,
            });
        }
    }
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
    /// term (`depth` nested unfoldings deep) if no state has reached it yet.
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
        for (label, t) in arena.fire(self.terms[l], defs, depth)? {
            let next = self.number(t);
            self.edges.push((label, next));
        }
        self.memo[l] = (lo, self.edges.len() as u32);
        Ok(self.memo[l])
    }

    /// A tuple stands for `Ω` only when it is a single leaf state that is
    /// `Ω`: a composite's `Ω` is reached by its `✓`, never as a tuple.
    fn is_omega(&self, arena: &TermArena, tuple: &[u32]) -> bool {
        matches!(tuple, [l] if matches!(arena.term(self.terms[*l as usize]), Term::Omega))
    }
}

/// The hash of a leaf tuple is the wrapping sum of one mixed word per
/// `(position, leaf state)`, so the hash of a successor follows from its
/// predecessor's and the changes of the move alone.
fn tuple_hash(tuple: &[u32]) -> u64 {
    (0..)
        .zip(tuple)
        .map(|(pos, &leaf)| mix(pos, leaf))
        .fold(0, u64::wrapping_add)
}

fn mix(pos: u32, leaf: u32) -> u64 {
    let x = (u64::from(pos) << 32 | u64::from(leaf)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (x ^ x >> 32).wrapping_mul(0xd6e8_feb8_6659_fd93)
}

/// An open-addressed index from leaf tuples to the ids of the states that
/// own them. A slot holds the high half of the tuple's hash above the
/// state's id; keys are read from the state table.
#[derive(Debug, Default)]
struct TupleIndex {
    slots: Vec<u64>,
    len: usize,
}

impl TupleIndex {
    const EMPTY: u64 = u64::MAX;

    /// Fibonacci hashing: the high bits are the well-mixed ones, and a
    /// slot keeps them (for tables of up to 2^32 slots).
    fn home(hash: u64, slots: usize) -> usize {
        (hash >> (64 - slots.trailing_zeros())) as usize
    }

    /// The state that owns the tuple ending `tuples`, the last `width`
    /// values, whose hash is `hash`; when none does, index it as the state
    /// `fresh` and return `None`.
    fn find_or_insert(
        &mut self,
        tuples: &[u32],
        width: usize,
        hash: u64,
        fresh: StateId,
    ) -> Option<StateId> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let key = &tuples[tuples.len() - width..];
        let tag = hash >> 32;
        let mask = self.slots.len() - 1;
        let mut i = Self::home(hash, self.slots.len());
        loop {
            let slot = self.slots[i];
            if slot == Self::EMPTY {
                self.slots[i] = tag << 32 | u64::from(fresh.0);
                self.len += 1;
                return None;
            }
            if slot >> 32 == tag {
                let at = (slot as u32) as usize * width;
                if &tuples[at..at + width] == key {
                    return Some(StateId(slot as u32));
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the slots, re-placing every indexed state by its kept hash.
    fn grow(&mut self) {
        let mut grown = vec![Self::EMPTY; (self.slots.len() * 2).max(64)];
        assert!(grown.len() <= 1 << 32, "a slot keeps 32 bits of hash");
        let mask = grown.len() - 1;
        for &slot in self.slots.iter().filter(|&&slot| slot != Self::EMPTY) {
            let mut i = Self::home(slot, grown.len());
            while grown[i] != Self::EMPTY {
                i = (i + 1) & mask;
            }
            grown[i] = slot;
        }
        self.slots = grown;
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
    fn an_unfolded_root_nests_its_leaves_one_definition_deep() {
        // Chains of bare references cost no depth: a 100-definition root
        // chain into `L ||| STOP`, where `L` is a 40-definition chain,
        // fires in both semantics.
        let mut defs = Definitions::new();
        let leaf = chain(&mut defs, "L", 40, Process::prefix(e(0), Process::Stop));
        let root = chain(
            &mut defs,
            "R",
            100,
            Process::interleave(leaf, Process::Stop),
        );
        crate::semantics::transitions(&root, &defs).unwrap();
        Lts::build(root, &defs, 100).unwrap();

        // Unfolding the root into its spine nests the leaves one definition
        // deep, as firing the root does: below it, a leaf that nests `n`
        // definitions through `[]` fires up to `n` = 127.
        for (n, fires) in [(127, true), (128, false)] {
            let mut defs = Definitions::new();
            let ids: Vec<_> = (0..n).map(|i| defs.declare(&format!("L{i}"))).collect();
            for link in ids.windows(2) {
                let stop = Process::prefix(e(1), Process::Stop);
                defs.define(
                    link[0],
                    Process::external_choice(Process::var(link[1]), stop),
                );
            }
            defs.define(ids[n - 1], Process::prefix(e(0), Process::Stop));
            let leaf = Process::var(ids[0]);
            let root = chain(&mut defs, "R", 3, Process::interleave(leaf, Process::Stop));
            let want = crate::semantics::transitions(&root, &defs).err();
            assert_eq!(want.is_none(), fires, "{n}: {want:?}");
            assert_eq!(Lts::build(root, &defs, 1_000).err(), want, "{n}");
        }
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
        assert!(crate::analysis::GraphAnalysis::of_lts(&lts).tau_cycle_states() > 0);
    }

    #[test]
    fn no_divergence_without_tau_cycle() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(d, Process::prefix(e(0), Process::var(d)));
        let lts = Lts::build(Process::var(d), &defs, 100).unwrap();
        assert_eq!(
            crate::analysis::GraphAnalysis::of_lts(&lts).tau_cycle_states(),
            0
        );
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
    fn edges_are_one_table_of_sorted_runs() {
        let defs = Definitions::new();
        let p = Process::interleave(
            Process::prefix(e(0), Process::prefix(e(1), Process::Stop)),
            Process::internal_choice(Process::prefix(e(2), Process::Stop), Process::Skip),
        );
        let lts = Lts::build(p, &defs, 100).unwrap();
        let runs: usize = lts.state_ids().map(|s| lts.edges(s).len()).sum();
        assert_eq!(runs, lts.transition_count());
        for s in lts.state_ids() {
            assert!(lts.edges(s).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn tau_closures_share_marks_and_leave_them_clear() {
        let defs = Definitions::new();
        // τ to either branch, then `a` or `b`: the closure of the root is
        // three states, of a branch one.
        let p = Process::internal_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let lts = Lts::build(p, &defs, 100).unwrap();
        let mut marks = Vec::new();
        let mut out = Vec::new();
        let branches: Vec<StateId> = lts.edges(lts.initial()).iter().map(|&(_, t)| t).collect();
        lts.tau_closure_into(&branches, &mut marks, &mut out);
        assert_eq!(out, branches);
        assert!(marks.iter().all(|&m| !m));
        lts.tau_closure_into(&[branches[1], lts.initial()], &mut marks, &mut out);
        assert_eq!(out, lts.tau_closure(lts.initial()));
        assert!(marks.iter().all(|&m| !m));
    }

    #[test]
    fn lts_is_shareable_across_threads() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<Lts>();
    }
}
