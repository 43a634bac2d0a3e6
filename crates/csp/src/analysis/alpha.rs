//! Interprocedural may-alphabet inference.
//!
//! `α(P)` here is the set of events `P` could *ever* perform, computed
//! structurally over interned terms with a fixpoint across definition
//! bodies. It is an over-approximation: `e ∉ α(P)` proves `P` never
//! performs `e`; `e ∈ α(P)` promises nothing. That direction is exactly
//! what the semantic lints need — every finding below is a statement of
//! the form "this event can *never* happen here".
//!
//! Internally alphabets are dense bitsets over event indices, so the
//! per-node union/difference work is a few machine words rather than a
//! sort of the whole alphabet; the public API speaks [`EventSet`]. A
//! definition keeps only its bitset: its [`EventSet`] is built when
//! [`AlphabetInference::def_alphabet`] asks for it, so a script whose n
//! definitions each reach n events does not pay for n sorted sets that
//! only a report prints.

use std::collections::{HashMap, HashSet};

use crate::alphabet::{EventId, EventSet};
use crate::process::{DefId, Definitions};
use crate::term::{Term, TermArena, TermId};

/// Which operand of a parallel composition can perform an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncSide {
    /// Only the left operand offers the event.
    Left,
    /// Only the right operand offers the event.
    Right,
}

/// One semantic finding from the alphabet walk, anchored at the interned
/// node it was discovered on (useful for deduplication — hash-consing
/// means the same composition reachable from two roots is the same id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlphaFinding {
    /// An event in a synchronisation set that exactly one side can
    /// perform: the interface blocks it forever.
    SyncOneSided {
        /// The parallel node the sync set belongs to.
        at: TermId,
        /// The blocked event.
        event: EventId,
        /// The side that *can* perform it (the other side never offers it).
        performer: SyncSide,
    },
    /// An event in a synchronisation set that neither side can perform.
    SyncDeadEvent {
        /// The parallel node the sync set belongs to.
        at: TermId,
        /// The dead event.
        event: EventId,
    },
    /// An event in a hide set the hidden process can never perform.
    HiddenNeverPerformable {
        /// The hide node.
        at: TermId,
        /// The event that is hidden but never offered.
        event: EventId,
    },
}

/// The result of running alphabet inference over one definitions table.
///
/// Build it once with [`AlphabetInference::infer`]; queries are then pure
/// reads (plus arena interning for terms not seen during inference).
#[derive(Debug)]
pub struct AlphabetInference {
    /// Least-fixpoint may-alphabet per definition, indexed by `DefId`.
    def_bits: Vec<Bits>,
    /// Interned body of each *defined* definition.
    def_body: Vec<Option<TermId>>,
    /// Fixpoint rounds until stabilisation (diagnostics/bench interest).
    rounds: usize,
}

impl AlphabetInference {
    /// Run the interprocedural fixpoint over every definition in `defs`.
    ///
    /// Definitions that were declared but never defined get the empty
    /// alphabet (they cannot fire anything the analysis could rely on;
    /// exploring them errors long before alphabets matter).
    ///
    /// The iteration is a Gauss–Seidel pass over a finite monotone
    /// lattice (subsets of the interned event universe), so it terminates;
    /// each round re-evaluates every body against the freshest alphabets,
    /// callees before their callers, so an alphabet climbs a whole chain of
    /// definitions in one round rather than one link per round.
    pub fn infer(arena: &mut TermArena, defs: &Definitions) -> Self {
        let n = defs.len();
        let mut def_body: Vec<Option<TermId>> = vec![None; n];
        for d in defs.ids() {
            if let Ok(body) = defs.body(d) {
                let body = std::sync::Arc::clone(body);
                def_body[d.index()] = Some(arena.intern(&body));
            }
        }
        let order = callees_first(arena, &def_body);

        let mut def_bits = vec![Bits::default(); n];
        let mut rounds = 0;
        loop {
            rounds += 1;
            let mut changed = false;
            let mut memo = HashMap::new();
            for &i in &order {
                let Some(body) = def_body[i] else { continue };
                let a = alphabet_of_with(arena, body, &def_bits, &mut memo);
                if a != def_bits[i] {
                    def_bits[i] = a;
                    changed = true;
                    // Alphabets grew: memoised results may be stale.
                    memo.clear();
                }
            }
            if !changed {
                break;
            }
        }

        AlphabetInference {
            def_bits,
            def_body,
            rounds,
        }
    }

    /// Fixpoint rounds until the definition alphabets stabilised.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The may-alphabet of a definition, built from its bitset on each
    /// call.
    pub fn def_alphabet(&self, d: DefId) -> EventSet {
        self.def_bits[d.index()].to_event_set()
    }

    /// The interned body of a definition, when it has one.
    pub fn def_body(&self, d: DefId) -> Option<TermId> {
        self.def_body.get(d.index()).copied().flatten()
    }

    /// The may-alphabet of an arbitrary interned term, using the
    /// definition alphabets computed by [`AlphabetInference::infer`].
    pub fn alphabet_of(&self, arena: &TermArena, t: TermId) -> EventSet {
        alphabet_of_with(arena, t, &self.def_bits, &mut HashMap::new()).to_event_set()
    }

    /// Walk the term graph under `root` (not following definition
    /// references — run this per definition body and per assertion operand
    /// so findings have an attribution context) and report every event
    /// that a sync or hide set mentions but the relevant side can never
    /// perform.
    ///
    /// Deterministic: nodes are visited in a left-to-right preorder and
    /// each interned node at most once.
    pub fn term_findings(&self, arena: &TermArena, root: TermId) -> Vec<AlphaFinding> {
        let mut memo = HashMap::new();
        let mut findings = Vec::new();
        let mut visited = HashSet::new();
        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            if !visited.insert(t) {
                continue;
            }
            match arena.term(t).clone() {
                Term::Stop | Term::Skip | Term::Omega | Term::Var(_) => {}
                Term::Prefix(_, rest) => stack.push(rest),
                Term::ExternalChoice(xs) | Term::InternalChoice(xs) => {
                    stack.extend(xs.iter().rev());
                }
                Term::Seq(a, b) | Term::Interrupt(a, b) | Term::Timeout(a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
                Term::Parallel { sync, left, right } => {
                    let al = alphabet_of_with(arena, left, &self.def_bits, &mut memo);
                    let ar = alphabet_of_with(arena, right, &self.def_bits, &mut memo);
                    for event in arena.set(sync).iter() {
                        match (al.contains(event), ar.contains(event)) {
                            (true, true) => {}
                            (true, false) => findings.push(AlphaFinding::SyncOneSided {
                                at: t,
                                event,
                                performer: SyncSide::Left,
                            }),
                            (false, true) => findings.push(AlphaFinding::SyncOneSided {
                                at: t,
                                event,
                                performer: SyncSide::Right,
                            }),
                            (false, false) => {
                                findings.push(AlphaFinding::SyncDeadEvent { at: t, event });
                            }
                        }
                    }
                    stack.push(right);
                    stack.push(left);
                }
                Term::Hide(inner, set) => {
                    let ai = alphabet_of_with(arena, inner, &self.def_bits, &mut memo);
                    for event in arena.set(set).iter() {
                        if !ai.contains(event) {
                            findings.push(AlphaFinding::HiddenNeverPerformable { at: t, event });
                        }
                    }
                    stack.push(inner);
                }
                Term::Rename(inner, _) => stack.push(inner),
            }
        }
        findings
    }

    /// Which definitions are reachable from `roots`, following definition
    /// references through interned bodies. Index `i` answers for the
    /// definition with `DefId` index `i`.
    ///
    /// This works on the *elaborated* model, so renaming, hiding and
    /// computed sync sets do not defeat it.
    pub fn reachable_defs(&self, arena: &TermArena, roots: &[TermId]) -> Vec<bool> {
        let mut reached = vec![false; self.def_bits.len()];
        let mut visited = HashSet::new();
        let mut stack: Vec<TermId> = roots.to_vec();
        while let Some(t) = stack.pop() {
            if !visited.insert(t) {
                continue;
            }
            match arena.term(t).clone() {
                Term::Stop | Term::Skip | Term::Omega => {}
                Term::Prefix(_, rest) => stack.push(rest),
                Term::ExternalChoice(xs) | Term::InternalChoice(xs) => stack.extend(xs),
                Term::Seq(a, b) | Term::Interrupt(a, b) | Term::Timeout(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                Term::Parallel { left, right, .. } => {
                    stack.push(left);
                    stack.push(right);
                }
                Term::Hide(inner, _) | Term::Rename(inner, _) => stack.push(inner),
                Term::Var(d) => {
                    if let Some(flag) = reached.get_mut(d.index()) {
                        if !*flag {
                            *flag = true;
                            if let Some(body) = self.def_body(d) {
                                stack.push(body);
                            }
                        }
                    }
                }
            }
        }
        reached
    }
}

/// Every definition index, in a depth-first post-order over the `Var`
/// references of the bodies, from roots taken in `DefId` order: a callee
/// comes before its callers except where a cycle closes.
fn callees_first(arena: &TermArena, def_body: &[Option<TermId>]) -> Vec<usize> {
    let n = def_body.len();
    // The definitions each body names, in first-reference order. A term
    // is walked once per body: `walked[t]` is the last body that reached it.
    let mut walked = vec![usize::MAX; arena.len()];
    let callees: Vec<Vec<usize>> = def_body
        .iter()
        .enumerate()
        .map(|(i, body)| {
            let mut calls = Vec::new();
            let mut stack: Vec<TermId> = body.iter().copied().collect();
            while let Some(t) = stack.pop() {
                if std::mem::replace(&mut walked[t.index()], i) == i {
                    continue;
                }
                match arena.term(t) {
                    Term::Stop | Term::Skip | Term::Omega => {}
                    Term::Prefix(_, rest) => stack.push(*rest),
                    Term::ExternalChoice(xs) | Term::InternalChoice(xs) => {
                        stack.extend(xs.iter().rev());
                    }
                    Term::Seq(a, b) | Term::Interrupt(a, b) | Term::Timeout(a, b) => {
                        stack.push(*b);
                        stack.push(*a);
                    }
                    Term::Parallel { left, right, .. } => {
                        stack.push(*right);
                        stack.push(*left);
                    }
                    Term::Hide(inner, _) | Term::Rename(inner, _) => stack.push(*inner),
                    Term::Var(d) if d.index() < n => calls.push(d.index()),
                    Term::Var(_) => {}
                }
            }
            calls
        })
        .collect();

    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    // Iterative, so a chain of any length fits the stack: (definition,
    // next callee to visit).
    let mut dfs: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if std::mem::replace(&mut visited[root], true) {
            continue;
        }
        dfs.push((root, 0));
        while let Some((d, next)) = dfs.last_mut() {
            if let Some(&callee) = callees[*d].get(*next) {
                *next += 1;
                if !std::mem::replace(&mut visited[callee], true) {
                    dfs.push((callee, 0));
                }
            } else {
                order.push(*d);
                dfs.pop();
            }
        }
    }
    order
}

/// A set of events as a dense bitset over [`EventId`] indices.
///
/// Trailing zero words are trimmed, so two sets are equal exactly when
/// their words are — the fixpoint's change test relies on that.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Bits(Vec<u64>);

impl Bits {
    fn contains(&self, e: EventId) -> bool {
        let i = e.index();
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    fn insert(&mut self, e: EventId) {
        let (word, bit) = (e.index() / 64, e.index() % 64);
        if self.0.len() <= word {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << bit;
    }

    /// Remove every event of `set` for which `keep` is false.
    fn remove_unless(&mut self, set: &EventSet, keep: impl Fn(EventId) -> bool) {
        for e in set.iter() {
            if let Some(w) = self.0.get_mut(e.index() / 64) {
                if !keep(e) {
                    *w &= !(1 << (e.index() % 64));
                }
            }
        }
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
    }

    fn union_with(&mut self, other: &Bits) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    /// The events in ascending id order.
    fn iter(&self) -> impl Iterator<Item = EventId> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &w)| {
            (0..64)
                .filter(move |b| w >> b & 1 == 1)
                .map(move |b| EventId::from_index(i * 64 + b))
        })
    }

    fn to_event_set(&self) -> EventSet {
        self.iter().collect()
    }
}

/// Structural may-alphabet of `t` against fixed definition alphabets.
///
/// Iterative post-order so arbitrarily deep terms (long prefix chains from
/// lifted traces) cannot overflow the stack. `memo` is keyed by `TermId`
/// and is only valid for one `def_bits` snapshot.
fn alphabet_of_with(
    arena: &TermArena,
    root: TermId,
    def_bits: &[Bits],
    memo: &mut HashMap<TermId, Bits>,
) -> Bits {
    enum Frame {
        Visit(TermId),
        Compute(TermId),
    }

    let mut stack = vec![Frame::Visit(root)];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Visit(t) => {
                if memo.contains_key(&t) {
                    continue;
                }
                stack.push(Frame::Compute(t));
                match arena.term(t) {
                    Term::Stop | Term::Skip | Term::Omega | Term::Var(_) => {}
                    Term::Prefix(_, rest) => stack.push(Frame::Visit(*rest)),
                    Term::ExternalChoice(xs) | Term::InternalChoice(xs) => {
                        stack.extend(xs.iter().map(|&x| Frame::Visit(x)));
                    }
                    Term::Seq(a, b) | Term::Interrupt(a, b) | Term::Timeout(a, b) => {
                        stack.push(Frame::Visit(*a));
                        stack.push(Frame::Visit(*b));
                    }
                    Term::Parallel { left, right, .. } => {
                        stack.push(Frame::Visit(*left));
                        stack.push(Frame::Visit(*right));
                    }
                    Term::Hide(inner, _) | Term::Rename(inner, _) => {
                        stack.push(Frame::Visit(*inner));
                    }
                }
            }
            Frame::Compute(t) => {
                let a = match arena.term(t) {
                    Term::Stop | Term::Skip | Term::Omega => Bits::default(),
                    Term::Prefix(e, rest) => {
                        let mut a = memo[rest].clone();
                        a.insert(*e);
                        a
                    }
                    Term::ExternalChoice(xs) | Term::InternalChoice(xs) => {
                        let mut acc = Bits::default();
                        for x in xs {
                            acc.union_with(&memo[x]);
                        }
                        acc
                    }
                    Term::Seq(a, b) | Term::Interrupt(a, b) | Term::Timeout(a, b) => {
                        let mut acc = memo[a].clone();
                        acc.union_with(&memo[b]);
                        acc
                    }
                    Term::Parallel { sync, left, right } => {
                        // Outside the sync set either side may perform an
                        // event; inside it, both must.
                        let (al, ar) = (&memo[left], &memo[right]);
                        let mut acc = al.clone();
                        acc.union_with(ar);
                        acc.remove_unless(arena.set(*sync), |e| al.contains(e) && ar.contains(e));
                        acc
                    }
                    Term::Hide(inner, set) => {
                        let mut acc = memo[inner].clone();
                        acc.remove_unless(arena.set(*set), |_| false);
                        acc
                    }
                    Term::Rename(inner, map) => {
                        let m = arena.map(*map);
                        let mut acc = Bits::default();
                        for e in memo[inner].iter() {
                            acc.insert(m.apply(e));
                        }
                        acc
                    }
                    Term::Var(d) => def_bits.get(d.index()).cloned().unwrap_or_default(),
                };
                memo.insert(t, a);
            }
        }
    }
    memo[&root].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alphabet, Process};

    fn setup() -> (Alphabet, TermArena, Definitions) {
        (Alphabet::new(), TermArena::new(), Definitions::new())
    }

    #[test]
    fn recursive_definition_reaches_a_fixpoint() {
        let (mut al, mut arena, mut defs) = setup();
        let a = al.intern("a");
        let b = al.intern("b");
        // P = a -> Q, Q = b -> P
        let p = defs.declare("P");
        let q = defs.declare("Q");
        defs.define(p, Process::prefix(a, Process::var(q)));
        defs.define(q, Process::prefix(b, Process::var(p)));

        let inf = AlphabetInference::infer(&mut arena, &defs);
        let expect = EventSet::from_iter_dedup([a, b]);
        assert_eq!(inf.def_alphabet(p), expect);
        assert_eq!(inf.def_alphabet(q), expect);
        assert!(inf.rounds() >= 2);
    }

    #[test]
    fn a_ring_of_definitions_converges_in_three_rounds() {
        // P(i) = a.i -> P((i+1) % n): each alphabet is the whole ring's, a
        // chain n links long that a `DefId`-order pass climbs one link per
        // round.
        let n = 1_000;
        let (mut al, mut arena, mut defs) = setup();
        let events: Vec<EventId> = (0..n).map(|i| al.intern(&format!("a.{i}"))).collect();
        let ids: Vec<DefId> = (0..n).map(|i| defs.declare(&format!("P.{i}"))).collect();
        for i in 0..n {
            defs.define(
                ids[i],
                Process::prefix(events[i], Process::var(ids[(i + 1) % n])),
            );
        }
        let inf = AlphabetInference::infer(&mut arena, &defs);
        assert!(inf.rounds() <= 3, "{} rounds", inf.rounds());
        let ring = EventSet::from_iter_dedup(events);
        assert!(ids.iter().all(|&d| inf.def_alphabet(d) == ring));
    }

    #[test]
    fn bitsets_span_words_and_compare_by_contents() {
        let events = [0, 63, 64, 130].map(EventId::from_index);
        let mut bits = Bits::default();
        for e in events {
            bits.insert(e);
        }
        assert_eq!(bits.iter().collect::<Vec<_>>(), events);
        assert!(bits.contains(events[3]));
        assert!(!bits.contains(EventId::from_index(129)));
        // Removing the high events trims their words, so the result equals
        // a set that never held them.
        let high = EventSet::from_iter_dedup([events[2], events[3]]);
        bits.remove_unless(&high, |_| false);
        let mut low = Bits::default();
        low.insert(events[0]);
        low.insert(events[1]);
        assert_eq!(bits, low);
    }

    #[test]
    fn hide_and_rename_flow_through_the_fixpoint() {
        let (mut al, mut arena, mut defs) = setup();
        let a = al.intern("a");
        let b = al.intern("b");
        let c = al.intern("c");
        // P = ((a -> b -> P) [[ b <- c ]]) \ {a}   ⇒ α(P) = {c}
        let p = defs.declare("P");
        let body = Process::hide(
            Process::rename(
                Process::prefix(a, Process::prefix(b, Process::var(p))),
                RenameBuilder::one(b, c),
            ),
            EventSet::from_iter_dedup([a]),
        );
        defs.define(p, body);

        let inf = AlphabetInference::infer(&mut arena, &defs);
        assert_eq!(inf.def_alphabet(p), EventSet::from_iter_dedup([c]));
    }

    // Tiny helper: a single-pair rename map.
    struct RenameBuilder;
    impl RenameBuilder {
        fn one(from: EventId, to: EventId) -> crate::RenameMap {
            let mut m = crate::RenameMap::default();
            m.insert(from, to);
            m
        }
    }

    #[test]
    fn one_sided_and_dead_sync_events_are_found() {
        let (mut al, mut arena, mut defs) = setup();
        let req = al.intern("req");
        let rpt = al.intern("rpt");
        let ghost = al.intern("ghost");
        let sender = defs.declare("SENDER");
        let monitor = defs.declare("MONITOR");
        defs.define(sender, Process::prefix(req, Process::var(sender)));
        defs.define(monitor, Process::prefix(rpt, Process::var(monitor)));
        let sys = Process::parallel(
            EventSet::from_iter_dedup([req, rpt, ghost]),
            Process::var(sender),
            Process::var(monitor),
        );

        let inf = AlphabetInference::infer(&mut arena, &defs);
        let root = arena.intern(&sys);
        let findings = inf.term_findings(&arena, root);
        let kinds: Vec<_> = findings
            .iter()
            .map(|f| match *f {
                AlphaFinding::SyncOneSided {
                    event, performer, ..
                } => ("one-sided", event, Some(performer)),
                AlphaFinding::SyncDeadEvent { event, .. } => ("dead", event, None),
                AlphaFinding::HiddenNeverPerformable { event, .. } => ("hidden", event, None),
            })
            .collect();
        assert!(kinds.contains(&("one-sided", req, Some(SyncSide::Left))));
        assert!(kinds.contains(&("one-sided", rpt, Some(SyncSide::Right))));
        assert!(kinds.contains(&("dead", ghost, None)));
        assert_eq!(findings.len(), 3);
    }

    #[test]
    fn hidden_event_never_performable_is_found() {
        let (mut al, mut arena, defs) = setup();
        let a = al.intern("a");
        let b = al.intern("b");
        let p = Process::hide(
            Process::prefix(a, Process::Stop),
            EventSet::from_iter_dedup([b]),
        );
        let inf = AlphabetInference::infer(&mut arena, &defs);
        let root = arena.intern(&p);
        let findings = inf.term_findings(&arena, root);
        assert_eq!(
            findings,
            vec![AlphaFinding::HiddenNeverPerformable { at: root, event: b }]
        );
    }

    #[test]
    fn reachability_sees_through_renaming() {
        let (mut al, mut arena, mut defs) = setup();
        let a = al.intern("a");
        let b = al.intern("b");
        let p = defs.declare("P");
        let orphan = defs.declare("ORPHAN");
        defs.define(p, Process::prefix(a, Process::var(p)));
        defs.define(orphan, Process::prefix(b, Process::Stop));

        // Root renames P: reachability follows the rename, so P is
        // reached and ORPHAN is not.
        let root_p = Process::rename(Process::var(p), RenameBuilder::one(a, b));
        let inf = AlphabetInference::infer(&mut arena, &defs);
        let root = arena.intern(&root_p);
        let reached = inf.reachable_defs(&arena, &[root]);
        assert!(reached[p.index()]);
        assert!(!reached[orphan.index()]);
    }
}
