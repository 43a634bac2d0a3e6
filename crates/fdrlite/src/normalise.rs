//! Specification normalisation: τ-closed subset construction onto a flat,
//! cache-friendly normal form.
//!
//! Refinement checking against an arbitrary (nondeterministic) specification
//! requires the spec in *normal form*: a deterministic automaton over visible
//! events where each node also records
//!
//! * whether the spec may terminate there,
//! * the **minimal acceptance sets** of its stable states (for the
//!   stable-failures model), and
//! * whether the node can diverge (an infinite τ-path exists).
//!
//! This mirrors FDR's `normalise` compilation step. The representation is
//! flat throughout — no per-node heap structures:
//!
//! * **Closure keys** (the τ-closed state sets of the subset construction)
//!   live in one interned sorted slab: a shared `Vec<StateId>` plus one
//!   `(start, end)` range per node, deduplicated through FNV hash buckets.
//!   Re-discovering a subset costs a hash and one slice comparison, never a
//!   `Vec` allocation.
//! * **The transition table** is CSR: per-node ranges into parallel
//!   event/target arrays sorted by event, so [`NormalisedLts::after`] is a
//!   binary search over a contiguous slice.
//! * **Acceptance sets** are rows of `u64` bitset words in one deduplicated
//!   pool addressed by [`AcceptanceId`]; nodes hold CSR ranges of ids, and
//!   the stable-failures subset test is word-parallel
//!   ([`AcceptanceView::is_subset_of_words`]).

use std::collections::HashMap;

use csp::{EventId, EventSet, Label, Lts, StateId};

use crate::error::CheckError;

/// Index of a node in a [`NormalisedLts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NormNodeId(u32);

impl NormNodeId {
    /// Raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from a raw index (cache/checkpoint deserialisation).
    pub(crate) fn from_index(index: usize) -> NormNodeId {
        NormNodeId(index as u32)
    }
}

/// Index of a deduplicated acceptance row in a [`NormalisedLts`]'s pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AcceptanceId(u32);

impl AcceptanceId {
    /// Raw index of this acceptance row.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from a raw index (cache deserialisation).
    pub(crate) fn from_index(index: usize) -> AcceptanceId {
        AcceptanceId(index as u32)
    }
}

/// The initials of one stable state: the visible events it offers plus
/// whether it offers termination.
///
/// This is the materialised form; inside a [`NormalisedLts`] acceptances are
/// stored as bitset rows and read through [`AcceptanceView`], which converts
/// on demand via [`AcceptanceView::to_acceptance`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Acceptance {
    /// Visible events offered.
    pub events: EventSet,
    /// Whether `✓` is offered.
    pub tick: bool,
}

impl Acceptance {
    /// Is `self` a subset of `other` (component-wise)?
    pub fn is_subset(&self, other: &Acceptance) -> bool {
        (!self.tick || other.tick) && self.events.is_subset(&other.events)
    }
}

/// Borrowed view of one acceptance row: bitset words plus the tick flag.
#[derive(Debug, Clone, Copy)]
pub struct AcceptanceView<'a> {
    words: &'a [u64],
    tick: bool,
}

impl<'a> AcceptanceView<'a> {
    /// Whether `✓` is offered.
    pub fn tick(&self) -> bool {
        self.tick
    }

    /// Membership test for a visible event.
    pub fn contains(&self, e: EventId) -> bool {
        let i = e.index();
        i / 64 < self.words.len() && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Word-level subset test against an acceptance given as raw bitset
    /// words (same width as [`NormalisedLts::acceptance_words`]) plus a
    /// tick flag: is `self ⊆ (words, tick)` component-wise?
    pub fn is_subset_of_words(&self, words: &[u64], tick: bool) -> bool {
        debug_assert_eq!(words.len(), self.words.len());
        (!self.tick || tick)
            && self
                .words
                .iter()
                .zip(words)
                .all(|(mine, theirs)| mine & !theirs == 0)
    }

    /// The events in this acceptance, in ascending id order.
    pub fn events(&self) -> impl Iterator<Item = EventId> + 'a {
        self.words.iter().copied().enumerate().flat_map(|(wi, w)| {
            (0..64)
                .filter(move |b| (w >> b) & 1 == 1)
                .map(move |b| EventId::from_index(wi * 64 + b))
        })
    }

    /// Materialise into an owned [`Acceptance`].
    pub fn to_acceptance(&self) -> Acceptance {
        Acceptance {
            events: self.events().collect(),
            tick: self.tick,
        }
    }
}

/// A normalised (deterministic) view of an [`Lts`], used as the
/// specification side of a refinement check.
///
/// All storage is flat (see the module docs): CSR transition table, CSR
/// acceptance-id table, one deduplicated bitset pool. The `persist` module
/// reads and rebuilds these fields directly when caching normal forms.
#[derive(Debug, Clone)]
pub struct NormalisedLts {
    /// CSR offsets into `after_ev`/`after_tgt`, length `node_count + 1`.
    pub(crate) after_off: Vec<u32>,
    /// Transition events, sorted ascending within each node's range.
    pub(crate) after_ev: Vec<EventId>,
    /// Transition targets, parallel to `after_ev`.
    pub(crate) after_tgt: Vec<NormNodeId>,
    /// Per-node "may terminate" flags.
    pub(crate) tick_ok: Vec<bool>,
    /// Per-node divergence flags.
    pub(crate) div_flag: Vec<bool>,
    /// CSR offsets into `acc_ids`, length `node_count + 1`.
    pub(crate) acc_off: Vec<u32>,
    /// Acceptance rows of each node, minimal-antichain order.
    pub(crate) acc_ids: Vec<AcceptanceId>,
    /// Bitset words per pool row (covers the largest event id in the LTS).
    pub(crate) acc_wps: u32,
    /// The pool: row `i` occupies `pool_words[i*acc_wps..(i+1)*acc_wps]`.
    pub(crate) pool_words: Vec<u64>,
    /// Tick flag of each pool row, parallel to the rows of `pool_words`.
    pub(crate) pool_ticks: Vec<bool>,
}

impl NormalisedLts {
    /// Normalise `lts` by τ-closed subset construction.
    ///
    /// # Errors
    ///
    /// [`CheckError::NormalisationExceeded`] if more than `max_nodes` subset
    /// nodes are produced.
    pub fn build(lts: &Lts, max_nodes: usize) -> Result<NormalisedLts, CheckError> {
        // Intern `closure` (sorted, deduplicated); returns the node id and
        // whether this call created it.
        fn intern_key(
            closure: &[StateId],
            slab: &mut Vec<StateId>,
            ranges: &mut Vec<(u32, u32)>,
            buckets: &mut HashMap<u64, Vec<u32>>,
        ) -> (u32, bool) {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for s in closure {
                h ^= s.index() as u64;
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
            let ids = buckets.entry(h).or_default();
            for &id in ids.iter() {
                let (a, b) = ranges[id as usize];
                if &slab[a as usize..b as usize] == closure {
                    return (id, false);
                }
            }
            let id = ranges.len() as u32;
            let start = slab.len() as u32;
            slab.extend_from_slice(closure);
            ranges.push((start, slab.len() as u32));
            ids.push(id);
            (id, true)
        }

        let divergent_states = divergent_states_of(lts);

        // Bitset width: enough words for the largest visible event id.
        let max_event = lts
            .state_ids()
            .flat_map(|s| lts.edges(s).iter())
            .filter_map(|&(l, _)| l.event())
            .map(EventId::index)
            .max();
        let wps = max_event.map_or(0, |m| m / 64 + 1);

        // Interned sorted-slab closure keys.
        let mut slab: Vec<StateId> = Vec::new();
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();

        // Deduplicated acceptance pool.
        let mut pool_words: Vec<u64> = Vec::new();
        let mut pool_ticks: Vec<bool> = Vec::new();
        let mut pool_index: HashMap<(Vec<u64>, bool), u32> = HashMap::new();

        let mut after_off: Vec<u32> = vec![0];
        let mut after_ev: Vec<EventId> = Vec::new();
        let mut after_tgt: Vec<NormNodeId> = Vec::new();
        let mut tick_ok: Vec<bool> = Vec::new();
        let mut div_flag: Vec<bool> = Vec::new();
        let mut acc_off: Vec<u32> = vec![0];
        let mut acc_ids: Vec<AcceptanceId> = Vec::new();

        let initial_key = lts.tau_closure(lts.initial());
        intern_key(&initial_key, &mut slab, &mut ranges, &mut buckets);

        // Scratch reused across nodes.
        let mut succ_pairs: Vec<(EventId, StateId)> = Vec::new();
        let mut targets: Vec<StateId> = Vec::new();
        let mut marks: Vec<bool> = Vec::new();
        let mut closure: Vec<StateId> = Vec::new();
        let mut row = vec![0u64; wps];

        let mut frontier = 0usize;
        while frontier < ranges.len() {
            let (ka, kb) = ranges[frontier];
            let mut allows_tick = false;
            let mut divergent = false;
            let mut accs: Vec<(Vec<u64>, bool)> = Vec::new();
            succ_pairs.clear();

            for i in ka..kb {
                let s = slab[i as usize];
                if divergent_states[s.index()] {
                    divergent = true;
                }
                let mut stable = true;
                let mut acc_tick = false;
                row.fill(0);
                for &(label, target) in lts.edges(s) {
                    match label {
                        Label::Tau => stable = false,
                        Label::Tick => {
                            allows_tick = true;
                            acc_tick = true;
                        }
                        Label::Event(e) => {
                            succ_pairs.push((e, target));
                            row[e.index() / 64] |= 1 << (e.index() % 64);
                        }
                    }
                }
                if stable {
                    accs.push((row.clone(), acc_tick));
                }
            }

            for (words, tick) in minimal_acceptances(accs) {
                let next = pool_ticks.len() as u32;
                let id = *pool_index.entry((words, tick)).or_insert_with_key(|k| {
                    pool_words.extend_from_slice(&k.0);
                    pool_ticks.push(k.1);
                    next
                });
                acc_ids.push(AcceptanceId(id));
            }
            acc_off.push(acc_ids.len() as u32);

            // Group successor targets by event; each group's τ-closure is a
            // candidate node.
            succ_pairs.sort_unstable();
            let mut i = 0usize;
            while i < succ_pairs.len() {
                let event = succ_pairs[i].0;
                targets.clear();
                while i < succ_pairs.len() && succ_pairs[i].0 == event {
                    targets.push(succ_pairs[i].1);
                    i += 1;
                }
                lts.tau_closure_into(&targets, &mut marks, &mut closure);
                let (id, is_new) = intern_key(&closure, &mut slab, &mut ranges, &mut buckets);
                if is_new && ranges.len() > max_nodes {
                    return Err(CheckError::NormalisationExceeded { limit: max_nodes });
                }
                after_ev.push(event);
                after_tgt.push(NormNodeId(id));
            }
            after_off.push(after_ev.len() as u32);
            tick_ok.push(allows_tick);
            div_flag.push(divergent);
            frontier += 1;
        }

        Ok(NormalisedLts {
            after_off,
            after_ev,
            after_tgt,
            tick_ok,
            div_flag,
            acc_off,
            acc_ids,
            acc_wps: wps as u32,
            pool_words,
            pool_ticks,
        })
    }

    /// The initial node.
    pub fn initial(&self) -> NormNodeId {
        NormNodeId(0)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.tick_ok.len()
    }

    fn after_range(&self, node: NormNodeId) -> std::ops::Range<usize> {
        self.after_off[node.index()] as usize..self.after_off[node.index() + 1] as usize
    }

    /// Successor node on visible event `e`, if the spec allows `e` here.
    pub fn after(&self, node: NormNodeId, e: EventId) -> Option<NormNodeId> {
        let r = self.after_range(node);
        self.after_ev[r.clone()]
            .binary_search(&e)
            .ok()
            .map(|i| self.after_tgt[r.start + i])
    }

    /// Whether the spec may terminate (`✓`) at this node.
    pub fn allows_tick(&self, node: NormNodeId) -> bool {
        self.tick_ok[node.index()]
    }

    /// Bitset words per acceptance row. An implementation-side acceptance
    /// for [`AcceptanceView::is_subset_of_words`] must use this width
    /// (events beyond it cannot occur in any spec acceptance, so dropping
    /// them never changes a subset verdict).
    pub fn acceptance_words(&self) -> usize {
        self.acc_wps as usize
    }

    /// The acceptance rows of this node, as pool ids.
    ///
    /// Empty exactly when the node has no stable states (i.e. it diverges),
    /// in which case the spec has **no** stable failure with this trace.
    pub fn acceptance_ids(&self, node: NormNodeId) -> &[AcceptanceId] {
        &self.acc_ids[self.acc_off[node.index()] as usize..self.acc_off[node.index() + 1] as usize]
    }

    /// View one pool row.
    pub fn acceptance(&self, id: AcceptanceId) -> AcceptanceView<'_> {
        let wps = self.acc_wps as usize;
        AcceptanceView {
            words: &self.pool_words[id.index() * wps..(id.index() + 1) * wps],
            tick: self.pool_ticks[id.index()],
        }
    }

    /// The minimal acceptance sets of this node's stable states.
    pub fn acceptances(&self, node: NormNodeId) -> impl Iterator<Item = AcceptanceView<'_>> + '_ {
        self.acceptance_ids(node)
            .iter()
            .map(|&id| self.acceptance(id))
    }

    /// Rows in the deduplicated acceptance pool.
    pub fn acceptance_pool_len(&self) -> usize {
        self.pool_ticks.len()
    }

    /// Whether the node can diverge.
    pub fn divergent(&self, node: NormNodeId) -> bool {
        self.div_flag[node.index()]
    }

    /// All visible events enabled at this node.
    pub fn enabled(&self, node: NormNodeId) -> impl Iterator<Item = EventId> + '_ {
        self.after_ev[self.after_range(node)].iter().copied()
    }
}

/// States with an infinite outgoing τ-path (they can diverge).
///
/// Delegates to the shared [`csp::analysis::tau_divergence`] routine — the
/// same Tarjan τ-SCC pass behind [`csp::analysis::GraphAnalysis`] and the
/// `[FD=` divergence phase, so normal forms cannot drift from them.
pub(crate) fn divergent_states_of(lts: &Lts) -> Vec<bool> {
    csp::analysis::tau_divergence(lts.state_count(), |s| lts.edges(s)).divergent
}

/// Keep only acceptance rows that have no strict subset among the others.
///
/// Output order is pinned: ascending lexicographic on the bitset words,
/// tickless before ticked — deterministic for any input order.
fn minimal_acceptances(mut rows: Vec<(Vec<u64>, bool)>) -> Vec<(Vec<u64>, bool)> {
    fn subset(a: &(Vec<u64>, bool), b: &(Vec<u64>, bool)) -> bool {
        (!a.1 || b.1) && a.0.iter().zip(&b.0).all(|(x, y)| x & !y == 0)
    }
    rows.sort_unstable();
    rows.dedup();
    let keep: Vec<bool> = rows
        .iter()
        .map(|a| !rows.iter().any(|b| b != a && subset(b, a)))
        .collect();
    rows.into_iter()
        .zip(keep)
        .filter_map(|(a, k)| k.then_some(a))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp::{Definitions, Process};

    fn e(n: u32) -> EventId {
        EventId::from_index(n as usize)
    }

    fn norm(p: Process) -> NormalisedLts {
        let lts = Lts::build(p, &Definitions::new(), 10_000).unwrap();
        NormalisedLts::build(&lts, 10_000).unwrap()
    }

    #[test]
    fn deterministic_process_normalises_one_to_one() {
        let p = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));
        let n = norm(p);
        assert_eq!(n.node_count(), 3);
        let n1 = n.after(n.initial(), e(0)).unwrap();
        assert!(n.after(n1, e(1)).is_some());
        assert!(n.after(n.initial(), e(1)).is_none());
    }

    #[test]
    fn internal_choice_merges_into_one_node() {
        // a -> STOP |~| b -> STOP: initial node allows both a and b
        // (trace-wise) but has two singleton acceptances.
        let p = Process::internal_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let n = norm(p);
        let init = n.initial();
        assert!(n.after(init, e(0)).is_some());
        assert!(n.after(init, e(1)).is_some());
        let accs: Vec<Acceptance> = n.acceptances(init).map(|a| a.to_acceptance()).collect();
        assert_eq!(accs.len(), 2);
        assert!(accs.iter().all(|a| a.events.len() == 1 && !a.tick));
    }

    #[test]
    fn external_choice_has_single_acceptance() {
        let p = Process::external_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let n = norm(p);
        let accs: Vec<Acceptance> = n
            .acceptances(n.initial())
            .map(|a| a.to_acceptance())
            .collect();
        assert_eq!(accs.len(), 1);
        assert_eq!(accs[0].events.len(), 2);
    }

    #[test]
    fn tick_is_recorded() {
        let n = norm(Process::Skip);
        assert!(n.allows_tick(n.initial()));
        let accs: Vec<Acceptance> = n
            .acceptances(n.initial())
            .map(|a| a.to_acceptance())
            .collect();
        assert_eq!(accs.len(), 1);
        assert!(accs[0].tick);
    }

    #[test]
    fn divergence_flag_set_for_hidden_loop() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(d, Process::prefix(e(0), Process::var(d)));
        let hidden = Process::hide(Process::var(d), EventSet::singleton(e(0)));
        let lts = Lts::build(hidden, &defs, 1_000).unwrap();
        let n = NormalisedLts::build(&lts, 1_000).unwrap();
        assert!(n.divergent(n.initial()));
        assert!(n.acceptance_ids(n.initial()).is_empty());
    }

    #[test]
    fn identical_acceptances_share_one_pool_row() {
        // a -> a -> STOP: two nodes offer exactly {a}; the pool holds the
        // row once and both nodes reference the same id.
        let p = Process::prefix(e(0), Process::prefix(e(0), Process::Stop));
        let n = norm(p);
        let init = n.initial();
        let mid = n.after(init, e(0)).unwrap();
        assert_eq!(n.acceptance_ids(init), n.acceptance_ids(mid));
        // Pool rows: {a} (shared) and the empty acceptance of STOP.
        assert_eq!(n.acceptance_pool_len(), 2);
    }

    #[test]
    fn word_level_subset_test_matches_materialised_one() {
        let p = Process::external_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let n = norm(p);
        let view = n.acceptances(n.initial()).next().unwrap();
        // {e0, e1} ⊆ {e0, e1, tick} but ⊄ {e0}.
        let mut both = vec![0u64; n.acceptance_words()];
        both[0] = 0b11;
        let mut only0 = vec![0u64; n.acceptance_words()];
        only0[0] = 0b01;
        assert!(view.is_subset_of_words(&both, true));
        assert!(view.is_subset_of_words(&both, false));
        assert!(!view.is_subset_of_words(&only0, true));
    }

    #[test]
    fn minimal_acceptances_filters_supersets() {
        let small = (vec![0b01u64], false);
        let big = (vec![0b11u64], false);
        let out = minimal_acceptances(vec![big, small.clone()]);
        assert_eq!(out, vec![small]);
    }

    #[test]
    fn minimal_acceptances_output_order_is_pinned() {
        // Pairwise-incomparable rows in scrambled input order: the output
        // is sorted ascending lexicographic on the word vectors (low word
        // first), tickless before ticked. The superset {e0,e1} is dropped
        // regardless of where it appears, as is {e0,✓} (⊇ {e0}).
        let r_tick = (vec![0u64, 0u64], true);
        let r_e64 = (vec![0u64, 0b1u64], false);
        let r_e0 = (vec![0b01u64, 0u64], false);
        let r_e1 = (vec![0b10u64, 0u64], false);
        let r_e0_tick = (vec![0b01u64, 0u64], true);
        let r_both = (vec![0b11u64, 0u64], false);
        let out = minimal_acceptances(vec![
            r_both,
            r_e64.clone(),
            r_e1.clone(),
            r_e0_tick,
            r_tick.clone(),
            r_e0.clone(),
        ]);
        assert_eq!(out, vec![r_tick, r_e64, r_e0, r_e1]);
    }

    #[test]
    fn node_bound_is_enforced() {
        let p = Process::prefix_chain((0..20).map(e), Process::Stop);
        let lts = Lts::build(p, &Definitions::new(), 1_000).unwrap();
        let err = NormalisedLts::build(&lts, 3).unwrap_err();
        assert!(matches!(
            err,
            CheckError::NormalisationExceeded { limit: 3 }
        ));
    }
}
