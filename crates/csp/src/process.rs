//! The process syntax tree and named (possibly recursive) definitions.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::alphabet::{EventId, EventSet, RenameMap};
use crate::error::CspError;

/// Handle to a named process definition inside a [`Definitions`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DefId(pub(crate) u32);

impl DefId {
    /// Raw index of this definition.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An immutable CSP process term.
///
/// Children are shared through [`Arc`], so cloning a process is cheap and the
/// state-space explorer can treat process terms as values. Structural equality
/// and hashing are derived, which is what lets the LTS builder deduplicate
/// states.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Process {
    /// Deadlock: engages in no event.
    Stop,
    /// Successful termination: performs `✓` then becomes [`Process::Omega`].
    Skip,
    /// The terminated process. Not normally written by users; it is the
    /// result of `Skip` performing `✓`.
    Omega,
    /// Event prefix `e -> P`.
    Prefix(EventId, Arc<Process>),
    /// External choice `P1 [] P2 [] ...` (n-ary to support replication).
    ExternalChoice(Vec<Arc<Process>>),
    /// Internal (nondeterministic) choice `P1 |~| P2 |~| ...`.
    InternalChoice(Vec<Arc<Process>>),
    /// Sequential composition `P ; Q`.
    Seq(Arc<Process>, Arc<Process>),
    /// Generalised parallel `P [| A |] Q`: synchronise on `A` (and `✓`).
    Parallel {
        /// The synchronisation set.
        sync: Arc<EventSet>,
        /// Left operand.
        left: Arc<Process>,
        /// Right operand.
        right: Arc<Process>,
    },
    /// Hiding `P \ A`: events in `A` become `τ`.
    Hide(Arc<Process>, Arc<EventSet>),
    /// Functional renaming `P[[R]]`.
    Rename(Arc<Process>, Arc<RenameMap>),
    /// Interrupt `P /\ Q`: `P` runs, but any visible action of `Q` may take
    /// over at any moment, abandoning `P`.
    Interrupt(Arc<Process>, Arc<Process>),
    /// Timeout (sliding choice) `P [> Q`: offer `P`'s initial actions, but an
    /// internal timeout may resolve to `Q` at any moment.
    Timeout(Arc<Process>, Arc<Process>),
    /// Reference to a named definition; the recursion knot.
    Var(DefId),
}

impl Process {
    /// `e -> p`
    pub fn prefix(e: EventId, p: Process) -> Process {
        Process::Prefix(e, Arc::new(p))
    }

    /// A chain of prefixes ending in `last`: `es[0] -> es[1] -> ... -> last`.
    pub fn prefix_chain<I: IntoIterator<Item = EventId>>(es: I, last: Process) -> Process {
        let events: Vec<EventId> = es.into_iter().collect();
        events
            .into_iter()
            .rev()
            .fold(last, |acc, e| Process::prefix(e, acc))
    }

    /// Binary external choice `p [] q`.
    pub fn external_choice(p: Process, q: Process) -> Process {
        Process::external_choice_all(vec![p, q])
    }

    /// N-ary external choice. Flattens nested choices; an empty list is `Stop`.
    pub fn external_choice_all(ps: Vec<Process>) -> Process {
        let mut flat: Vec<Arc<Process>> = Vec::with_capacity(ps.len());
        for p in ps {
            match p {
                Process::ExternalChoice(children) => flat.extend(children),
                other => flat.push(Arc::new(other)),
            }
        }
        match flat.len() {
            0 => Process::Stop,
            1 => (*flat.pop().expect("len checked")).clone(),
            _ => Process::ExternalChoice(flat),
        }
    }

    /// Binary internal choice `p |~| q`.
    pub fn internal_choice(p: Process, q: Process) -> Process {
        Process::internal_choice_all(vec![p, q])
    }

    /// N-ary internal choice. An empty list is `Stop`; a singleton is itself.
    pub fn internal_choice_all(ps: Vec<Process>) -> Process {
        let mut flat: Vec<Arc<Process>> = Vec::with_capacity(ps.len());
        for p in ps {
            match p {
                Process::InternalChoice(children) => flat.extend(children),
                other => flat.push(Arc::new(other)),
            }
        }
        match flat.len() {
            0 => Process::Stop,
            1 => (*flat.pop().expect("len checked")).clone(),
            _ => Process::InternalChoice(flat),
        }
    }

    /// Sequential composition `p ; q`.
    pub fn seq(p: Process, q: Process) -> Process {
        Process::Seq(Arc::new(p), Arc::new(q))
    }

    /// Generalised parallel `p [| sync |] q`.
    pub fn parallel(sync: EventSet, p: Process, q: Process) -> Process {
        Process::Parallel {
            sync: Arc::new(sync),
            left: Arc::new(p),
            right: Arc::new(q),
        }
    }

    /// Interleaving `p ||| q` — parallel with an empty synchronisation set.
    pub fn interleave(p: Process, q: Process) -> Process {
        Process::parallel(EventSet::empty(), p, q)
    }

    /// N-ary interleaving, right-associated. Empty input is `Skip`
    /// (the unit of `|||`).
    pub fn interleave_all(ps: Vec<Process>) -> Process {
        let mut iter = ps.into_iter().rev();
        match iter.next() {
            None => Process::Skip,
            Some(last) => iter.fold(last, |acc, p| Process::interleave(p, acc)),
        }
    }

    /// Hiding `p \ hidden`.
    pub fn hide(p: Process, hidden: EventSet) -> Process {
        Process::Hide(Arc::new(p), Arc::new(hidden))
    }

    /// Renaming `p[[map]]`.
    pub fn rename(p: Process, map: RenameMap) -> Process {
        Process::Rename(Arc::new(p), Arc::new(map))
    }

    /// Interrupt `p /\ q`.
    pub fn interrupt(p: Process, q: Process) -> Process {
        Process::Interrupt(Arc::new(p), Arc::new(q))
    }

    /// Timeout (sliding choice) `p [> q`.
    pub fn timeout(p: Process, q: Process) -> Process {
        Process::Timeout(Arc::new(p), Arc::new(q))
    }

    /// A reference to the named definition `d`.
    pub fn var(d: DefId) -> Process {
        Process::Var(d)
    }

    /// Guard: `p` if `cond` holds, otherwise `Stop`.
    pub fn guard(cond: bool, p: Process) -> Process {
        if cond {
            p
        } else {
            Process::Stop
        }
    }
}

impl fmt::Display for Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Process::Stop => write!(f, "STOP"),
            Process::Skip => write!(f, "SKIP"),
            Process::Omega => write!(f, "Ω"),
            Process::Prefix(e, p) => write!(f, "{} -> {}", e.0, p),
            Process::ExternalChoice(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " [] ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Process::InternalChoice(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " |~| ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Process::Seq(p, q) => write!(f, "({p} ; {q})"),
            Process::Parallel { sync, left, right } => {
                if sync.is_empty() {
                    write!(f, "({left} ||| {right})")
                } else {
                    write!(f, "({left} [|{sync}|] {right})")
                }
            }
            Process::Hide(p, a) => write!(f, "({p} \\ {a})"),
            Process::Interrupt(p, q) => write!(f, "({p} /\\ {q})"),
            Process::Timeout(p, q) => write!(f, "({p} [> {q})"),
            Process::Rename(p, _) => write!(f, "({p}[[..]])"),
            Process::Var(d) => write!(f, "X{}", d.0),
        }
    }
}

/// A table of named, possibly mutually recursive, process definitions.
///
/// Definitions are used in two phases: [`Definitions::declare`] reserves a
/// name (so recursive references can be built), then [`Definitions::define`]
/// supplies the body.
#[derive(Clone)]
pub struct Definitions {
    names: Vec<String>,
    bodies: Vec<Option<Arc<Process>>>,
    stamp: u64,
}

/// The next [`Definitions::stamp`], process-wide.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(0);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

impl Default for Definitions {
    fn default() -> Self {
        Definitions {
            names: Vec::new(),
            bodies: Vec::new(),
            stamp: fresh_stamp(),
        }
    }
}

impl fmt::Debug for Definitions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Definitions")
            .field("names", &self.names)
            .field("bodies", &self.bodies)
            .finish()
    }
}

impl Definitions {
    /// An empty definition table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table's version stamp: two tables with equal stamps have equal
    /// contents. A new table draws a fresh stamp from a process-wide
    /// counter, every edit draws another, and a clone keeps its original's,
    /// so a cache may remember what it derived from a table by its stamp.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Reserve a definition slot named `name` and return its handle.
    pub fn declare(&mut self, name: &str) -> DefId {
        let id = DefId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.bodies.push(None);
        self.stamp = fresh_stamp();
        id
    }

    /// Supply (or replace) the body for `id`.
    pub fn define(&mut self, id: DefId, body: Process) {
        self.bodies[id.index()] = Some(Arc::new(body));
        self.stamp = fresh_stamp();
    }

    /// Declare and define in one step.
    pub fn add(&mut self, name: &str, body: Process) -> DefId {
        let id = self.declare(name);
        self.define(id, body);
        id
    }

    /// The body of definition `id`.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::UndefinedProcess`] if the definition was declared
    /// but never given a body.
    pub fn body(&self, id: DefId) -> Result<&Arc<Process>, CspError> {
        self.bodies[id.index()]
            .as_ref()
            .ok_or_else(|| CspError::UndefinedProcess {
                name: self.names[id.index()].clone(),
            })
    }

    /// The name a definition was declared under.
    pub fn name(&self, id: DefId) -> &str {
        &self.names[id.index()]
    }

    /// Find a definition by name.
    pub fn lookup(&self, name: &str) -> Option<DefId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| DefId(i as u32))
    }

    /// Number of declared definitions.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Iterate over all declared definition handles, in declaration order.
    pub fn ids(&self) -> impl Iterator<Item = DefId> {
        (0..self.names.len() as u32).map(DefId)
    }

    /// Whether any definitions exist.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    #[test]
    fn external_choice_flattens_and_normalises() {
        let p = Process::prefix(e(0), Process::Stop);
        let q = Process::prefix(e(1), Process::Stop);
        let r = Process::prefix(e(2), Process::Stop);
        let nested = Process::external_choice(p.clone(), Process::external_choice(q, r));
        match nested {
            Process::ExternalChoice(children) => assert_eq!(children.len(), 3),
            other => panic!("expected flattened choice, got {other}"),
        }
        assert_eq!(Process::external_choice_all(vec![]), Process::Stop);
        assert_eq!(Process::external_choice_all(vec![p.clone()]), p);
    }

    #[test]
    fn interleave_all_unit_is_skip() {
        assert_eq!(Process::interleave_all(vec![]), Process::Skip);
    }

    #[test]
    fn prefix_chain_builds_in_order() {
        let p = Process::prefix_chain([e(0), e(1)], Process::Skip);
        match p {
            Process::Prefix(first, rest) => {
                assert_eq!(first, e(0));
                match rest.as_ref() {
                    Process::Prefix(second, _) => assert_eq!(*second, e(1)),
                    other => panic!("unexpected {other}"),
                }
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn every_table_and_edit_draws_a_fresh_stamp_and_a_clone_keeps_it() {
        let (a, b) = (Definitions::new(), Definitions::default());
        assert_ne!(a.stamp(), b.stamp());
        let mut c = a.clone();
        assert_eq!(c.stamp(), a.stamp());
        let mut stamps = vec![a.stamp(), b.stamp()];
        let id = c.declare("P");
        stamps.push(c.stamp());
        c.define(id, Process::Stop);
        stamps.push(c.stamp());
        c.add("Q", Process::Skip);
        stamps.push(c.stamp());
        let distinct: std::collections::HashSet<u64> = stamps.iter().copied().collect();
        assert_eq!(distinct.len(), stamps.len(), "{stamps:?}");
        // Debug output is about contents only.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{a:?}"), "Definitions { names: [], bodies: [] }");
    }

    #[test]
    fn definitions_two_phase() {
        let mut defs = Definitions::new();
        let id = defs.declare("P");
        assert!(defs.body(id).is_err());
        defs.define(id, Process::Stop);
        assert_eq!(defs.body(id).unwrap().as_ref(), &Process::Stop);
        assert_eq!(defs.name(id), "P");
        assert_eq!(defs.lookup("P"), Some(id));
        assert_eq!(defs.lookup("Q"), None);
    }

    #[test]
    fn guard_selects_stop() {
        let p = Process::prefix(e(0), Process::Stop);
        assert_eq!(Process::guard(false, p.clone()), Process::Stop);
        assert_eq!(Process::guard(true, p.clone()), p);
    }
}
