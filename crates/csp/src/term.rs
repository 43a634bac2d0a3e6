//! Hash-consed process terms: structural sharing with O(1) equality.
//!
//! A [`TermArena`] interns each distinct subterm exactly once and hands out
//! a small copyable [`TermId`], so
//!
//! * equality and hashing of terms are single word comparisons,
//! * structurally shared subterms are stored once, and
//! * the firing rules ([`TermArena::transitions`]) return successor *ids*
//!   instead of cloned trees.
//!
//! [`Lts::build_in`](crate::lts::Lts::build_in) uses the arena for the
//! *leaves* of a process — the components below its parallel spine: each
//! leaf state is a term here, fired once. Composite states are tuples of
//! leaf ids kept by the LTS, not terms of the arena.
//!
//! The firing rules here mirror [`crate::semantics::transitions`] arm for
//! arm, including the order in which successors are emitted, which is what
//! keeps an explicit LTS state-for-state identical (numbering and edge
//! lists included) to one built over raw `Process` trees. The property
//! tests in `tests/term_prop.rs` pin this down.
//!
//! An arena memoises the bodies of named definitions by [`DefId`], so one
//! arena is only meaningful for one [`Definitions`] table. Callers that
//! share an arena across many builds (e.g. `fdrlite`'s model store) must
//! keep that pairing.

use std::collections::HashMap;
use std::sync::Arc;

use crate::alphabet::{EventId, EventSet, Label, RenameMap};
use crate::error::CspError;
use crate::process::{DefId, Definitions, Process};
use crate::semantics::MAX_UNFOLD_DEPTH;

/// Handle to a hash-consed term inside a [`TermArena`].
///
/// Two ids from the same arena are equal exactly when the terms they denote
/// are structurally equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// Raw index of this term within its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to an interned [`EventSet`] inside a [`TermArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetId(u32);

impl SetId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to an interned [`RenameMap`] inside a [`TermArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MapId(u32);

impl MapId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of the hash-consed syntax tree. Children are [`TermId`]s and
/// event sets / renamings are interned by value, so equality and hashing
/// touch only a handful of words regardless of how deep the term is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// Deadlock.
    Stop,
    /// Successful termination.
    Skip,
    /// The terminated process.
    Omega,
    /// Event prefix `e -> P`.
    Prefix(EventId, TermId),
    /// External choice.
    ExternalChoice(Vec<TermId>),
    /// Internal choice.
    InternalChoice(Vec<TermId>),
    /// Sequential composition.
    Seq(TermId, TermId),
    /// Generalised parallel.
    Parallel {
        /// The synchronisation set.
        sync: SetId,
        /// Left operand.
        left: TermId,
        /// Right operand.
        right: TermId,
    },
    /// Hiding.
    Hide(TermId, SetId),
    /// Functional renaming.
    Rename(TermId, MapId),
    /// Interrupt.
    Interrupt(TermId, TermId),
    /// Timeout (sliding choice).
    Timeout(TermId, TermId),
    /// Reference to a named definition.
    Var(DefId),
}

/// An interning arena for process terms.
///
/// See the [module docs](self) for the contract; the important points are
/// that ids are only comparable within one arena and that the arena is tied
/// to the [`Definitions`] table whose bodies it has memoised.
#[derive(Debug, Default)]
pub struct TermArena {
    terms: Vec<Term>,
    term_index: HashMap<Term, TermId>,
    sets: Vec<Arc<EventSet>>,
    set_index: HashMap<Arc<EventSet>, SetId>,
    maps: Vec<Arc<RenameMap>>,
    map_index: HashMap<Arc<RenameMap>, MapId>,
    /// Memoised interning of definition bodies, indexed by `DefId`.
    def_terms: Vec<Option<TermId>>,
}

impl TermArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no terms have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The node a term id stands for.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// The event set an interned [`SetId`] stands for.
    pub fn set(&self, id: SetId) -> &EventSet {
        &self.sets[id.index()]
    }

    /// The renaming an interned [`MapId`] stands for.
    pub fn map(&self, id: MapId) -> &RenameMap {
        &self.maps[id.index()]
    }

    /// Intern a node, returning the id of the structurally equal term.
    fn mk(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.term_index.get(&t) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(t.clone());
        self.term_index.insert(t, id);
        id
    }

    fn intern_set(&mut self, s: &Arc<EventSet>) -> SetId {
        if let Some(&id) = self.set_index.get(s.as_ref()) {
            return id;
        }
        let id = SetId(self.sets.len() as u32);
        self.sets.push(Arc::clone(s));
        self.set_index.insert(Arc::clone(s), id);
        id
    }

    fn intern_map(&mut self, m: &Arc<RenameMap>) -> MapId {
        if let Some(&id) = self.map_index.get(m.as_ref()) {
            return id;
        }
        let id = MapId(self.maps.len() as u32);
        self.maps.push(Arc::clone(m));
        self.map_index.insert(Arc::clone(m), id);
        id
    }

    /// Intern a whole process tree, sharing every already-known subterm.
    pub fn intern(&mut self, p: &Process) -> TermId {
        let t = match p {
            Process::Stop => Term::Stop,
            Process::Skip => Term::Skip,
            Process::Omega => Term::Omega,
            Process::Prefix(e, rest) => Term::Prefix(*e, self.intern(rest)),
            Process::ExternalChoice(children) => {
                Term::ExternalChoice(children.iter().map(|c| self.intern(c)).collect())
            }
            Process::InternalChoice(children) => {
                Term::InternalChoice(children.iter().map(|c| self.intern(c)).collect())
            }
            Process::Seq(first, second) => Term::Seq(self.intern(first), self.intern(second)),
            Process::Parallel { sync, left, right } => {
                let sync = self.intern_set(sync);
                Term::Parallel {
                    sync,
                    left: self.intern(left),
                    right: self.intern(right),
                }
            }
            Process::Hide(inner, hidden) => {
                let hidden = self.intern_set(hidden);
                Term::Hide(self.intern(inner), hidden)
            }
            Process::Rename(inner, map) => {
                let map = self.intern_map(map);
                Term::Rename(self.intern(inner), map)
            }
            Process::Interrupt(left, right) => {
                Term::Interrupt(self.intern(left), self.intern(right))
            }
            Process::Timeout(left, right) => Term::Timeout(self.intern(left), self.intern(right)),
            Process::Var(d) => Term::Var(*d),
        };
        self.mk(t)
    }

    /// Materialise a term back into a `Process` tree.
    pub fn process_of(&self, id: TermId) -> Arc<Process> {
        let p = match self.term(id) {
            Term::Stop => Process::Stop,
            Term::Skip => Process::Skip,
            Term::Omega => Process::Omega,
            Term::Prefix(e, rest) => Process::Prefix(*e, self.process_of(*rest)),
            Term::ExternalChoice(children) => {
                Process::ExternalChoice(children.iter().map(|&c| self.process_of(c)).collect())
            }
            Term::InternalChoice(children) => {
                Process::InternalChoice(children.iter().map(|&c| self.process_of(c)).collect())
            }
            Term::Seq(first, second) => {
                Process::Seq(self.process_of(*first), self.process_of(*second))
            }
            Term::Parallel { sync, left, right } => Process::Parallel {
                sync: Arc::clone(&self.sets[sync.index()]),
                left: self.process_of(*left),
                right: self.process_of(*right),
            },
            Term::Hide(inner, hidden) => Process::Hide(
                self.process_of(*inner),
                Arc::clone(&self.sets[hidden.index()]),
            ),
            Term::Rename(inner, map) => {
                Process::Rename(self.process_of(*inner), Arc::clone(&self.maps[map.index()]))
            }
            Term::Interrupt(left, right) => {
                Process::Interrupt(self.process_of(*left), self.process_of(*right))
            }
            Term::Timeout(left, right) => {
                Process::Timeout(self.process_of(*left), self.process_of(*right))
            }
            Term::Var(d) => Process::Var(*d),
        };
        Arc::new(p)
    }

    /// The interned body of definition `d`, memoised per arena.
    pub(crate) fn def_term(&mut self, d: DefId, defs: &Definitions) -> Result<TermId, CspError> {
        let idx = d.index();
        if self.def_terms.len() <= idx {
            self.def_terms.resize(idx + 1, None);
        }
        if let Some(t) = self.def_terms[idx] {
            return Ok(t);
        }
        let body = Arc::clone(defs.body(d)?);
        let t = self.intern(&body);
        self.def_terms[idx] = Some(t);
        Ok(t)
    }

    /// Compute all single-step transitions of `id`, returning successor ids.
    ///
    /// This is [`crate::semantics::transitions`] over interned terms: the
    /// same rules, emitting successors in the same order, so an LTS built
    /// from these ids is indistinguishable from one built over raw trees.
    ///
    /// # Errors
    ///
    /// * [`CspError::UndefinedProcess`] if a referenced definition has no
    ///   body.
    /// * [`CspError::UnguardedRecursion`] if unfolding definitions never
    ///   reaches an event (e.g. `P = P`).
    pub fn transitions(
        &mut self,
        id: TermId,
        defs: &Definitions,
    ) -> Result<Vec<(Label, TermId)>, CspError> {
        self.transitions_at(id, defs, 0)
    }

    /// [`TermArena::transitions`] `depth` definition unfoldings deep.
    pub(crate) fn transitions_at(
        &mut self,
        id: TermId,
        defs: &Definitions,
        depth: usize,
    ) -> Result<Vec<(Label, TermId)>, CspError> {
        let term = self.terms[id.index()].clone();
        match term {
            Term::Stop | Term::Omega => Ok(Vec::new()),
            Term::Skip => {
                let omega = self.mk(Term::Omega);
                Ok(vec![(Label::Tick, omega)])
            }
            Term::Prefix(e, rest) => Ok(vec![(Label::Event(e), rest)]),
            Term::ExternalChoice(children) => {
                let mut out = Vec::new();
                for (i, &child) in children.iter().enumerate() {
                    for (label, succ) in self.transitions_at(child, defs, depth)? {
                        if label.is_tau() {
                            // τ does not resolve the choice.
                            let mut next = children.clone();
                            next[i] = succ;
                            let next = self.mk(Term::ExternalChoice(next));
                            out.push((Label::Tau, next));
                        } else {
                            out.push((label, succ));
                        }
                    }
                }
                Ok(out)
            }
            Term::InternalChoice(children) => {
                Ok(children.iter().map(|&c| (Label::Tau, c)).collect())
            }
            Term::Seq(first, second) => {
                let mut out = Vec::new();
                for (label, succ) in self.transitions_at(first, defs, depth)? {
                    if label.is_tick() {
                        out.push((Label::Tau, second));
                    } else {
                        let next = self.mk(Term::Seq(succ, second));
                        out.push((label, next));
                    }
                }
                Ok(out)
            }
            Term::Parallel { sync, left, right } => {
                let lt = self.transitions_at(left, defs, depth)?;
                let rt = self.transitions_at(right, defs, depth)?;
                let mut out = Vec::new();
                // Independent moves of the left side.
                for &(label, succ) in &lt {
                    let independent = match label {
                        Label::Tau => true,
                        Label::Tick => false,
                        Label::Event(e) => !self.set(sync).contains(e),
                    };
                    if independent {
                        let next = self.mk(Term::Parallel {
                            sync,
                            left: succ,
                            right,
                        });
                        out.push((label, next));
                    }
                }
                // Independent moves of the right side.
                for &(label, succ) in &rt {
                    let independent = match label {
                        Label::Tau => true,
                        Label::Tick => false,
                        Label::Event(e) => !self.set(sync).contains(e),
                    };
                    if independent {
                        let next = self.mk(Term::Parallel {
                            sync,
                            left,
                            right: succ,
                        });
                        out.push((label, next));
                    }
                }
                // Synchronised moves.
                for &(ll, ls) in &lt {
                    let Label::Event(e) = ll else { continue };
                    if !self.set(sync).contains(e) {
                        continue;
                    }
                    for &(rl, rs) in &rt {
                        if rl == ll {
                            let next = self.mk(Term::Parallel {
                                sync,
                                left: ls,
                                right: rs,
                            });
                            out.push((ll, next));
                        }
                    }
                }
                // Distributed termination: both sides must offer ✓.
                let l_tick = lt.iter().any(|(l, _)| l.is_tick());
                let r_tick = rt.iter().any(|(l, _)| l.is_tick());
                if l_tick && r_tick {
                    let omega = self.mk(Term::Omega);
                    out.push((Label::Tick, omega));
                }
                Ok(out)
            }
            Term::Hide(inner, hidden) => {
                let mut out = Vec::new();
                for (label, succ) in self.transitions_at(inner, defs, depth)? {
                    // ✓ ends the process: the residue is Ω itself, not Ω
                    // still wrapped in the hiding operator.
                    if label.is_tick() {
                        let omega = self.mk(Term::Omega);
                        out.push((Label::Tick, omega));
                        continue;
                    }
                    let new_label = match label {
                        Label::Event(e) if self.set(hidden).contains(e) => Label::Tau,
                        other => other,
                    };
                    // Collapse nested hiding so that recursion through a
                    // hiding operator (`P = (a -> P) \ A`) reaches a fixed
                    // point instead of growing a new layer per unfolding.
                    let collapsed = if let Term::Hide(grand, inner_hidden) = self.term(succ) {
                        Some((*grand, *inner_hidden))
                    } else {
                        None
                    };
                    let next = match collapsed {
                        Some((grand, inner_hidden)) => {
                            let union = Arc::new(self.set(hidden).union(self.set(inner_hidden)));
                            let union = self.intern_set(&union);
                            self.mk(Term::Hide(grand, union))
                        }
                        None => self.mk(Term::Hide(succ, hidden)),
                    };
                    out.push((new_label, next));
                }
                Ok(out)
            }
            Term::Rename(inner, map) => {
                let mut out = Vec::new();
                for (label, succ) in self.transitions_at(inner, defs, depth)? {
                    if label.is_tick() {
                        let omega = self.mk(Term::Omega);
                        out.push((Label::Tick, omega));
                        continue;
                    }
                    let new_label = match label {
                        Label::Event(e) => Label::Event(self.map(map).apply(e)),
                        other => other,
                    };
                    // Collapse nested renaming (inner first, then outer).
                    let collapsed = if let Term::Rename(grand, inner_map) = self.term(succ) {
                        Some((*grand, *inner_map))
                    } else {
                        None
                    };
                    let next = match collapsed {
                        Some((grand, inner_map)) => {
                            let composed = Arc::new(self.map(inner_map).then(self.map(map)));
                            let composed = self.intern_map(&composed);
                            self.mk(Term::Rename(grand, composed))
                        }
                        None => self.mk(Term::Rename(succ, map)),
                    };
                    out.push((new_label, next));
                }
                Ok(out)
            }
            Term::Interrupt(left, right) => {
                let mut out = Vec::new();
                for (label, succ) in self.transitions_at(left, defs, depth)? {
                    if label.is_tick() {
                        let omega = self.mk(Term::Omega);
                        out.push((Label::Tick, omega));
                    } else {
                        let next = self.mk(Term::Interrupt(succ, right));
                        out.push((label, next));
                    }
                }
                for (label, succ) in self.transitions_at(right, defs, depth)? {
                    if label.is_tau() {
                        // τ on the interrupting side does not resolve it.
                        let next = self.mk(Term::Interrupt(left, succ));
                        out.push((Label::Tau, next));
                    } else {
                        out.push((label, succ));
                    }
                }
                Ok(out)
            }
            Term::Timeout(left, right) => {
                let mut out = Vec::new();
                for (label, succ) in self.transitions_at(left, defs, depth)? {
                    match label {
                        Label::Tau => {
                            let next = self.mk(Term::Timeout(succ, right));
                            out.push((Label::Tau, next));
                        }
                        // A visible action (or ✓) of P resolves in P's favour.
                        other => out.push((other, succ)),
                    }
                }
                // The timeout itself.
                out.push((Label::Tau, right));
                Ok(out)
            }
            Term::Var(d) => {
                if depth >= MAX_UNFOLD_DEPTH {
                    return Err(CspError::UnguardedRecursion {
                        depth,
                        name: defs.name(d).to_owned(),
                    });
                }
                let body = self.def_term(d, defs)?;
                self.transitions_at(body, defs, depth + 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(n: u32) -> EventId {
        EventId::from_index(n as usize)
    }

    #[test]
    fn interning_is_structural() {
        let mut arena = TermArena::new();
        let p = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));
        let q = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));
        assert_eq!(arena.intern(&p), arena.intern(&q));
        let r = Process::prefix(e(2), Process::Stop);
        assert_ne!(arena.intern(&p), arena.intern(&r));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let mut arena = TermArena::new();
        let p = Process::parallel(
            EventSet::singleton(e(0)),
            Process::prefix(e(0), Process::Skip),
            Process::hide(
                Process::prefix(e(1), Process::Stop),
                EventSet::singleton(e(1)),
            ),
        );
        let id = arena.intern(&p);
        assert_eq!(arena.process_of(id).as_ref(), &p);
    }

    #[test]
    fn transitions_match_tree_semantics_on_a_recursive_def() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(d, Process::prefix(e(0), Process::var(d)));
        let mut arena = TermArena::new();
        let root = arena.intern(&Process::var(d));
        let got = arena.transitions(root, &defs).unwrap();
        let want = crate::semantics::transitions(&Process::var(d), &defs).unwrap();
        assert_eq!(got.len(), want.len());
        for ((gl, gs), (wl, ws)) in got.into_iter().zip(want) {
            assert_eq!(gl, wl);
            assert_eq!(arena.process_of(gs).as_ref(), &ws);
        }
    }

    #[test]
    fn unguarded_recursion_is_named() {
        let mut defs = Definitions::new();
        let d = defs.declare("SPIN");
        defs.define(d, Process::var(d));
        let mut arena = TermArena::new();
        let root = arena.intern(&Process::var(d));
        let err = arena.transitions(root, &defs).unwrap_err();
        assert!(matches!(err, CspError::UnguardedRecursion { ref name, .. } if name == "SPIN"));
    }
}
