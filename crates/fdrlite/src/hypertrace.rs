//! Hypertrace conformance: many traces, one normal-form walk.
//!
//! Checking `SPEC ⊑T ⟨e₁ … eₙ⟩ → STOP` for thousands of observed traces one
//! at a time re-explores every shared prefix once per trace. Merging the
//! corpus into a **prefix trie** first turns those N linear product walks
//! into a single walk of a DAG: each trie node is visited exactly once,
//! paired with the unique normal-form node the specification reaches after
//! the node's path (the spec side is deterministic by construction, so there
//! is nothing to search — conformance of a linear trace is a lookup chain
//! through [`NormalisedLts::after`]).
//!
//! Per-trace verdicts are recovered from the trie: every ingested trace
//! tags the node its last event reaches, and the node's walk state — still
//! inside the spec, or refuted at some ancestor edge — *is* the verdict.
//! A refuted trace's counterexample is the refusing edge's path prefix plus
//! the refused event, exactly what the product engine reports for the
//! equivalent `⟨trace⟩ → STOP` check (the linear implementation has a
//! unique path, so the engine's shortest witness is that prefix).
//!
//! The walk parallelises by sharding disjoint subtrees over a pool of
//! workers: a short breadth-first prefix walk fans the trie out into
//! independent `(trie node, walk state)` tasks, each worker claims the next
//! unclaimed one, and because a node's verdict is a pure function of the
//! trie and the normal form, the merged result is bit-identical at every
//! thread count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use csp::{EventId, Trace};

use crate::counterexample::{Counterexample, FailureKind, Verdict};
use crate::normalise::{NormNodeId, NormalisedLts};

/// A prefix trie over event sequences: the *hypertrace* of an ingested
/// corpus. Traces sharing a prefix share the trie path for it, so the
/// number of edges is the number of **distinct** prefixes, not the sum of
/// trace lengths.
///
/// Each ingested trace carries a caller-chosen `u32` tag (typically its
/// ingest index); [`check`] reports verdicts keyed by tag.
#[derive(Debug, Default)]
pub struct TraceTrie {
    nodes: Vec<TrieNode>,
    traces: u64,
    total_events: u64,
}

#[derive(Debug)]
struct TrieNode {
    /// Parent node and the event labelling the edge from it; `None` for
    /// the root.
    parent: Option<(u32, EventId)>,
    children: BTreeMap<EventId, u32>,
    /// Tags of the ingested traces whose last event reaches this node.
    terminals: Vec<u32>,
}

impl TrieNode {
    fn new(parent: Option<(u32, EventId)>) -> TrieNode {
        TrieNode {
            parent,
            children: BTreeMap::new(),
            terminals: Vec::new(),
        }
    }
}

impl TraceTrie {
    /// An empty trie (a lone root).
    pub fn new() -> TraceTrie {
        TraceTrie {
            nodes: vec![TrieNode::new(None)],
            traces: 0,
            total_events: 0,
        }
    }

    /// Ingest one trace under `tag`. Tags are opaque to the trie but should
    /// be unique per trace so [`check`] verdicts can be told apart.
    pub fn insert(&mut self, events: &[EventId], tag: u32) {
        let mut node = 0u32;
        for &e in events {
            node = match self.nodes[node as usize].children.get(&e) {
                Some(&child) => child,
                None => {
                    let child = self.nodes.len() as u32;
                    self.nodes.push(TrieNode::new(Some((node, e))));
                    self.nodes[node as usize].children.insert(e, child);
                    child
                }
            };
        }
        self.nodes[node as usize].terminals.push(tag);
        self.traces += 1;
        self.total_events += events.len() as u64;
    }

    /// Number of ingested traces.
    pub fn traces(&self) -> u64 {
        self.traces
    }

    /// Sum of the lengths of all ingested traces.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Number of trie nodes, including the root. `node_count() - 1` is the
    /// number of distinct prefixes actually walked.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Prefix-sharing factor: ingested events per distinct trie edge.
    /// `1.0` means no two traces share a prefix; `k` means the walk visits
    /// each distinct prefix once where the per-trace loop would visit it
    /// `k` times on average. `1.0` by convention for an event-free corpus.
    pub fn dedup_ratio(&self) -> f64 {
        let edges = (self.nodes.len() - 1) as f64;
        if edges == 0.0 {
            1.0
        } else {
            self.total_events as f64 / edges
        }
    }

    /// The event path from the root to `node`.
    fn path(&self, mut node: u32) -> Vec<EventId> {
        let mut events = Vec::new();
        while let Some((parent, e)) = self.nodes[node as usize].parent {
            events.push(e);
            node = parent;
        }
        events.reverse();
        events
    }
}

/// The walk state a trie node inherits from its path: either the spec's
/// normal-form node after the path, or the first refusal along it.
#[derive(Clone, Copy)]
enum WalkState {
    /// The spec allows the whole path and sits at this normal-form node.
    Inside(NormNodeId),
    /// The spec refused `event` at the end of `prefix`'s path; every
    /// descendant inherits this first violation.
    Refused { prefix: u32, event: EventId },
}

/// Check every ingested trace of `trie` against `norm` in one DAG walk.
///
/// Returns `(tag, verdict)` pairs sorted by tag: [`Verdict::Pass`] when the
/// trace is a trace of the specification, [`Verdict::Fail`] with a
/// [`FailureKind::TraceViolation`] counterexample otherwise (the witness
/// trace is the accepted prefix, the offending event the first one the
/// spec refuses). The walk is bounded by the trie, so no verdict is ever
/// [`Verdict::Inconclusive`].
///
/// With `threads > 1` disjoint subtrees are sharded over a pool of
/// workers; verdicts are bit-identical to the serial walk for any thread
/// count.
pub fn check(norm: &NormalisedLts, trie: &TraceTrie, threads: usize) -> Vec<(u32, Verdict)> {
    let mut verdicts: Vec<(u32, Verdict)> = Vec::with_capacity(trie.traces as usize);

    // Breadth-first prefix walk: resolve verdicts near the root serially
    // while fanning the frontier out into enough independent subtree tasks
    // to keep every worker busy.
    let fanout_target = if threads > 1 { threads * 8 } else { usize::MAX };
    let mut frontier: Vec<(u32, WalkState)> = vec![(0, WalkState::Inside(norm.initial()))];
    let mut next: Vec<(u32, WalkState)> = Vec::new();
    while !frontier.is_empty() && frontier.len() < fanout_target {
        for &(node, state) in &frontier {
            resolve_terminals(trie, node, state, &mut verdicts);
            expand_children(norm, trie, node, state, &mut next);
        }
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }

    if threads > 1 && !frontier.is_empty() {
        let next_task = AtomicUsize::new(0);
        let worker_verdicts = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let (frontier, next_task) = (&frontier, &next_task);
                    scope.spawn(move || {
                        let mut local: Vec<(u32, Verdict)> = Vec::new();
                        let mut stack: Vec<(u32, WalkState)> = Vec::new();
                        while let Some(&task) =
                            frontier.get(next_task.fetch_add(1, Ordering::Relaxed))
                        {
                            stack.push(task);
                            while let Some((node, state)) = stack.pop() {
                                resolve_terminals(trie, node, state, &mut local);
                                expand_children(norm, trie, node, state, &mut stack);
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("hypertrace worker panicked"))
                .collect::<Vec<_>>()
        });
        for local in worker_verdicts {
            verdicts.extend(local);
        }
    } else {
        // Serial tail: `frontier` is empty unless `threads == 1` stopped
        // the loop above before fan-out (fanout_target == usize::MAX keeps
        // looping until the frontier drains, so this is a no-op there).
        let mut stack = frontier;
        while let Some((node, state)) = stack.pop() {
            resolve_terminals(trie, node, state, &mut verdicts);
            expand_children(norm, trie, node, state, &mut stack);
        }
    }

    // A trace's verdict is a pure function of the trie and the normal form,
    // so sorting by tag makes the merged output independent of scheduling.
    verdicts.sort_unstable_by_key(|&(tag, _)| tag);
    verdicts
}

/// Emit the verdicts of the traces ending at `node`.
fn resolve_terminals(trie: &TraceTrie, node: u32, state: WalkState, out: &mut Vec<(u32, Verdict)>) {
    let terminals = &trie.nodes[node as usize].terminals;
    if terminals.is_empty() {
        return;
    }
    let verdict = match state {
        WalkState::Inside(_) => Verdict::Pass,
        WalkState::Refused { prefix, event } => Verdict::Fail(Counterexample::new(
            Trace::from_events(trie.path(prefix)),
            FailureKind::TraceViolation { event: Some(event) },
        )),
    };
    for &tag in terminals {
        out.push((tag, verdict.clone()));
    }
}

/// Push `node`'s children with their inherited walk states.
fn expand_children(
    norm: &NormalisedLts,
    trie: &TraceTrie,
    node: u32,
    state: WalkState,
    out: &mut Vec<(u32, WalkState)>,
) {
    for (&event, &child) in &trie.nodes[node as usize].children {
        let child_state = match state {
            WalkState::Inside(at) => match norm.after(at, event) {
                Some(next) => WalkState::Inside(next),
                None => WalkState::Refused {
                    prefix: node,
                    event,
                },
            },
            refused @ WalkState::Refused { .. } => refused,
        };
        out.push((child, child_state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp::{Alphabet, Lts, Process};

    /// `SPEC = a -> b -> SPEC`, normalised.
    fn spec() -> (NormalisedLts, EventId, EventId) {
        let mut alphabet = Alphabet::new();
        let a = alphabet.intern("a");
        let b = alphabet.intern("b");
        let defs = csp::Definitions::new();
        let p = Process::prefix_chain(vec![a, b], Process::Stop);
        // A finite chain suffices for the unit tests: a -> b -> STOP.
        let lts = Lts::build(p, &defs, 100).unwrap();
        let norm = NormalisedLts::build(&lts, 100).unwrap();
        (norm, a, b)
    }

    #[test]
    fn empty_trace_passes_and_shares_nothing() {
        let (norm, _, _) = spec();
        let mut trie = TraceTrie::new();
        trie.insert(&[], 0);
        assert_eq!(trie.dedup_ratio(), 1.0);
        let verdicts = check(&norm, &trie, 1);
        assert_eq!(verdicts, vec![(0, Verdict::Pass)]);
    }

    #[test]
    fn shared_prefixes_collapse_and_verdicts_split() {
        let (norm, a, b) = spec();
        let mut trie = TraceTrie::new();
        trie.insert(&[a], 0); // conformant prefix
        trie.insert(&[a, b], 1); // conformant
        trie.insert(&[a, a], 2); // refused: after ⟨a⟩ only b is allowed
        trie.insert(&[b], 3); // refused immediately
        assert_eq!(trie.traces(), 4);
        assert_eq!(trie.total_events(), 6);
        // Distinct prefixes: a, ab, aa, b — 4 edges for 6 ingested events.
        assert_eq!(trie.node_count(), 5);
        assert!((trie.dedup_ratio() - 1.5).abs() < 1e-9);

        let verdicts = check(&norm, &trie, 1);
        assert_eq!(verdicts.len(), 4);
        assert_eq!(verdicts[0].1, Verdict::Pass);
        assert_eq!(verdicts[1].1, Verdict::Pass);
        match &verdicts[2].1 {
            Verdict::Fail(cex) => {
                assert_eq!(cex.trace().len(), 1, "accepted prefix is ⟨a⟩");
                assert_eq!(cex.kind(), &FailureKind::TraceViolation { event: Some(a) });
            }
            other => panic!("expected refusal, got {other:?}"),
        }
        match &verdicts[3].1 {
            Verdict::Fail(cex) => {
                assert!(cex.trace().is_empty(), "refused at the very first event");
                assert_eq!(cex.kind(), &FailureKind::TraceViolation { event: Some(b) });
            }
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn descendants_inherit_the_first_refusal() {
        let (norm, a, b) = spec();
        let mut trie = TraceTrie::new();
        // Refused at index 1 (a after a); the longer trace must report the
        // same first violation, not a later one.
        trie.insert(&[a, a, b, b], 7);
        let verdicts = check(&norm, &trie, 1);
        match &verdicts[0].1 {
            Verdict::Fail(cex) => {
                assert_eq!(cex.trace().len(), 1);
                assert_eq!(cex.kind(), &FailureKind::TraceViolation { event: Some(a) });
            }
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn parallel_walk_is_bit_identical_to_serial() {
        let (norm, a, b) = spec();
        let mut trie = TraceTrie::new();
        let mut tag = 0u32;
        // Enough distinct subtrees to actually fan out at 8 threads.
        for first in [a, b] {
            for second in [a, b] {
                for third in [a, b] {
                    for len in 0..4usize {
                        let events = [first, second, third];
                        trie.insert(&events[..len.min(3)], tag);
                        tag += 1;
                    }
                }
            }
        }
        let serial = check(&norm, &trie, 1);
        for threads in [2, 4, 8] {
            assert_eq!(serial, check(&norm, &trie, threads), "threads={threads}");
        }
    }
}
