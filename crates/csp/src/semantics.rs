//! Structural operational semantics: the single-step firing rules.
//!
//! [`transitions`] computes every `(label, successor)` pair a process term can
//! perform, following the rules in Roscoe, *Understanding Concurrent Systems*:
//!
//! * `SKIP --✓--> Ω`
//! * `(e -> P) --e--> P`
//! * external choice: `τ` moves are promoted without resolving the choice,
//!   visible events and `✓` resolve it;
//! * internal choice: one `τ` per operand;
//! * `P ; Q`: `P`'s `✓` becomes a `τ` into `Q`;
//! * `P [|A|] Q`: events in `A` synchronise, others interleave, `✓` is
//!   distributed (both sides must be able to terminate);
//! * `P \ A`: events in `A` become `τ`;
//! * `P[[R]]`: visible events are renamed;
//! * `P /\ Q` (interrupt): `P` proceeds, any visible action of `Q` takes
//!   over; `P`'s `✓` ends the whole process;
//! * `P [> Q` (timeout): a `τ` into `Q` is always available, `P`'s visible
//!   actions resolve the choice in `P`'s favour.

use crate::alphabet::Label;
use crate::analysis::decide;
use crate::error::CspError;
use crate::process::{DefId, Definitions, Process};
use std::sync::Arc;

/// How many definitions firing may unfold inside one another through
/// operators, each at a cost in native frames, before an event. A bare
/// reference (`P = Q`) unfolds in a loop and does not count.
pub(crate) const MAX_UNFOLD_DEPTH: usize = 128;

/// Compute all single-step transitions of `p`.
///
/// # Errors
///
/// * [`CspError::UndefinedProcess`] if a referenced definition has no body.
/// * [`CspError::UnguardedRecursion`] if firing `p` unfolds some definition
///   inside itself before any event (e.g. `P = P [] a -> STOP`).
/// * [`CspError::UnfoldingTooDeep`] if firing `p` nests more than
///   128 definitions through operators, none recurring.
pub fn transitions(p: &Process, defs: &Definitions) -> Result<Vec<(Label, Process)>, CspError> {
    transitions_at(p, defs, 0).map_err(|e| decide(e, defs, || Arc::new(p.clone())))
}

/// Follow a chain of bare references (`P = Q`) in a loop to the first
/// definition whose body is none, and that body. A chain longer than the
/// table repeats a definition: [`CspError::UnguardedRecursion`].
pub(crate) fn unfold(mut d: DefId, defs: &Definitions) -> Result<(DefId, &Arc<Process>), CspError> {
    for _ in 0..defs.len() {
        let body = defs.body(d)?;
        match **body {
            Process::Var(next) => d = next,
            _ => return Ok((d, body)),
        }
    }
    Err(CspError::UnguardedRecursion {
        name: defs.name(d).to_owned(),
    })
}

/// Push onto `out`, left to right, every definition `p` refers to before
/// any prefix, and return whether `p` can terminate without an event.
///
/// Without `silent`, these are the references the firing rules unfold:
/// in every `[]` operand, the first operand of `;` and `[>`, both operands
/// of `[| |]` and `/\`, and the operand of `\` and `[[ ]]`. With `silent`,
/// also those behind a silent step: in every `|~|` operand, the second
/// operand of `[>`, and the second operand of `;` when the first can
/// terminate without an event (`SKIP`, a `;` of two such, or a choice or
/// timeout with one; a reference counts as not terminating). References
/// are not followed, so the walk recurses only as deep as `p` nests.
pub(crate) fn unguarded_refs(p: &Process, silent: bool, out: &mut Vec<DefId>) -> bool {
    let mut refs = |q: &Process| unguarded_refs(q, silent, out);
    match p {
        Process::Skip => true,
        Process::Var(d) => {
            out.push(*d);
            false
        }
        Process::InternalChoice(_) if !silent => false,
        Process::ExternalChoice(xs) | Process::InternalChoice(xs) => {
            xs.iter().fold(false, |any, x| refs(x) | any)
        }
        Process::Seq(first, second) => refs(first) && silent && refs(second),
        Process::Timeout(first, second) => {
            let first = refs(first);
            silent && (refs(second) | first)
        }
        Process::Hide(inner, _) | Process::Rename(inner, _) => {
            refs(inner);
            false
        }
        Process::Parallel { left, right, .. } | Process::Interrupt(left, right) => {
            refs(left);
            refs(right);
            false
        }
        Process::Stop | Process::Omega | Process::Prefix(..) => false,
    }
}

fn transitions_at(
    p: &Process,
    defs: &Definitions,
    depth: usize,
) -> Result<Vec<(Label, Process)>, CspError> {
    match p {
        Process::Stop | Process::Omega => Ok(Vec::new()),
        Process::Skip => Ok(vec![(Label::Tick, Process::Omega)]),
        Process::Prefix(e, rest) => Ok(vec![(Label::Event(*e), rest.as_ref().clone())]),
        Process::ExternalChoice(children) => {
            let mut out = Vec::new();
            for (i, child) in children.iter().enumerate() {
                for (label, succ) in transitions_at(child, defs, depth)? {
                    if label.is_tau() {
                        // τ does not resolve the choice.
                        let mut next = children.clone();
                        next[i] = Arc::new(succ);
                        out.push((Label::Tau, Process::ExternalChoice(next)));
                    } else {
                        out.push((label, succ));
                    }
                }
            }
            Ok(out)
        }
        Process::InternalChoice(children) => Ok(children
            .iter()
            .map(|c| (Label::Tau, c.as_ref().clone()))
            .collect()),
        Process::Seq(first, second) => {
            let mut out = Vec::new();
            for (label, succ) in transitions_at(first, defs, depth)? {
                if label.is_tick() {
                    out.push((Label::Tau, second.as_ref().clone()));
                } else {
                    out.push((label, Process::Seq(Arc::new(succ), second.clone())));
                }
            }
            Ok(out)
        }
        Process::Parallel { sync, left, right } => {
            let lt = transitions_at(left, defs, depth)?;
            let rt = transitions_at(right, defs, depth)?;
            let mut out = Vec::new();
            // Independent moves of the left side.
            for (label, succ) in &lt {
                let independent = match label {
                    Label::Tau => true,
                    Label::Tick => false,
                    Label::Event(e) => !sync.contains(*e),
                };
                if independent {
                    out.push((
                        *label,
                        Process::Parallel {
                            sync: sync.clone(),
                            left: Arc::new(succ.clone()),
                            right: right.clone(),
                        },
                    ));
                }
            }
            // Independent moves of the right side.
            for (label, succ) in &rt {
                let independent = match label {
                    Label::Tau => true,
                    Label::Tick => false,
                    Label::Event(e) => !sync.contains(*e),
                };
                if independent {
                    out.push((
                        *label,
                        Process::Parallel {
                            sync: sync.clone(),
                            left: left.clone(),
                            right: Arc::new(succ.clone()),
                        },
                    ));
                }
            }
            // Synchronised moves.
            for (ll, ls) in &lt {
                let Label::Event(e) = ll else { continue };
                if !sync.contains(*e) {
                    continue;
                }
                for (rl, rs) in &rt {
                    if rl == ll {
                        out.push((
                            *ll,
                            Process::Parallel {
                                sync: sync.clone(),
                                left: Arc::new(ls.clone()),
                                right: Arc::new(rs.clone()),
                            },
                        ));
                    }
                }
            }
            // Distributed termination: both sides must offer ✓.
            let l_tick = lt.iter().any(|(l, _)| l.is_tick());
            let r_tick = rt.iter().any(|(l, _)| l.is_tick());
            if l_tick && r_tick {
                out.push((Label::Tick, Process::Omega));
            }
            Ok(out)
        }
        Process::Hide(inner, hidden) => {
            let mut out = Vec::new();
            for (label, succ) in transitions_at(inner, defs, depth)? {
                // ✓ ends the process: the residue is Ω itself, not Ω still
                // wrapped in the hiding operator.
                if label.is_tick() {
                    out.push((Label::Tick, Process::Omega));
                    continue;
                }
                let new_label = match label {
                    Label::Event(e) if hidden.contains(e) => Label::Tau,
                    other => other,
                };
                // Collapse nested hiding so that recursion through a hiding
                // operator (`P = (a -> P) \ A`) reaches a fixed point
                // instead of growing a new layer per unfolding.
                let next = match succ {
                    Process::Hide(inner, inner_hidden) => {
                        Process::Hide(inner, Arc::new(hidden.union(&inner_hidden)))
                    }
                    other => Process::Hide(Arc::new(other), hidden.clone()),
                };
                out.push((new_label, next));
            }
            Ok(out)
        }
        Process::Rename(inner, map) => {
            let mut out = Vec::new();
            for (label, succ) in transitions_at(inner, defs, depth)? {
                if label.is_tick() {
                    out.push((Label::Tick, Process::Omega));
                    continue;
                }
                let new_label = match label {
                    Label::Event(e) => Label::Event(map.apply(e)),
                    other => other,
                };
                // Collapse nested renaming (inner first, then outer).
                let next = match succ {
                    Process::Rename(inner, inner_map) => {
                        Process::Rename(inner, Arc::new(inner_map.then(map)))
                    }
                    other => Process::Rename(Arc::new(other), map.clone()),
                };
                out.push((new_label, next));
            }
            Ok(out)
        }
        Process::Interrupt(left, right) => {
            let mut out = Vec::new();
            for (label, succ) in transitions_at(left, defs, depth)? {
                if label.is_tick() {
                    out.push((Label::Tick, Process::Omega));
                } else {
                    out.push((label, Process::Interrupt(Arc::new(succ), right.clone())));
                }
            }
            for (label, succ) in transitions_at(right, defs, depth)? {
                if label.is_tau() {
                    // τ on the interrupting side does not resolve it.
                    out.push((Label::Tau, Process::Interrupt(left.clone(), Arc::new(succ))));
                } else {
                    out.push((label, succ));
                }
            }
            Ok(out)
        }
        Process::Timeout(left, right) => {
            let mut out = Vec::new();
            for (label, succ) in transitions_at(left, defs, depth)? {
                match label {
                    Label::Tau => {
                        out.push((Label::Tau, Process::Timeout(Arc::new(succ), right.clone())));
                    }
                    // A visible action (or ✓) of P resolves in P's favour.
                    other => out.push((other, succ)),
                }
            }
            // The timeout itself.
            out.push((Label::Tau, right.as_ref().clone()));
            Ok(out)
        }
        Process::Var(d) => {
            let (d, body) = unfold(*d, defs)?;
            if depth >= MAX_UNFOLD_DEPTH {
                return Err(CspError::UnfoldingTooDeep {
                    name: defs.name(d).to_owned(),
                    limit: MAX_UNFOLD_DEPTH,
                });
            }
            transitions_at(body, defs, depth + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{EventId, EventSet, RenameMap};

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    fn labels(p: &Process, defs: &Definitions) -> Vec<Label> {
        transitions(p, defs)
            .unwrap()
            .into_iter()
            .map(|(l, _)| l)
            .collect()
    }

    #[test]
    fn stop_has_no_transitions() {
        assert!(labels(&Process::Stop, &Definitions::new()).is_empty());
    }

    #[test]
    fn skip_ticks_to_omega() {
        let ts = transitions(&Process::Skip, &Definitions::new()).unwrap();
        assert_eq!(ts, vec![(Label::Tick, Process::Omega)]);
    }

    #[test]
    fn prefix_fires_its_event() {
        let p = Process::prefix(e(0), Process::Stop);
        let ts = transitions(&p, &Definitions::new()).unwrap();
        assert_eq!(ts, vec![(Label::Event(e(0)), Process::Stop)]);
    }

    #[test]
    fn external_choice_offers_both() {
        let p = Process::external_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let ls = labels(&p, &Definitions::new());
        assert!(ls.contains(&Label::Event(e(0))));
        assert!(ls.contains(&Label::Event(e(1))));
        assert_eq!(ls.len(), 2);
    }

    #[test]
    fn external_choice_tau_does_not_resolve() {
        // (a -> STOP |~| b -> STOP) [] c -> STOP:
        // the τ from the internal choice must keep the external choice intact.
        let inner = Process::internal_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let p = Process::external_choice(inner, Process::prefix(e(2), Process::Stop));
        let ts = transitions(&p, &Definitions::new()).unwrap();
        let tau_succs: Vec<&Process> = ts
            .iter()
            .filter(|(l, _)| l.is_tau())
            .map(|(_, s)| s)
            .collect();
        assert_eq!(tau_succs.len(), 2);
        for succ in tau_succs {
            // Each τ successor must still offer c.
            let ls = labels(succ, &Definitions::new());
            assert!(ls.contains(&Label::Event(e(2))), "choice was resolved by τ");
        }
    }

    #[test]
    fn internal_choice_is_all_taus() {
        let p = Process::internal_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let ls = labels(&p, &Definitions::new());
        assert_eq!(ls, vec![Label::Tau, Label::Tau]);
    }

    #[test]
    fn seq_converts_tick_to_tau() {
        let p = Process::seq(Process::Skip, Process::prefix(e(0), Process::Stop));
        let ts = transitions(&p, &Definitions::new()).unwrap();
        assert_eq!(ts.len(), 1);
        assert!(ts[0].0.is_tau());
        assert_eq!(ts[0].1, Process::prefix(e(0), Process::Stop));
    }

    #[test]
    fn parallel_synchronises_on_shared_event() {
        let sync = EventSet::singleton(e(0));
        let p = Process::parallel(
            sync,
            Process::prefix(e(0), Process::Skip),
            Process::prefix(e(0), Process::Skip),
        );
        let ls = labels(&p, &Definitions::new());
        assert_eq!(ls, vec![Label::Event(e(0))]);
    }

    #[test]
    fn parallel_blocks_unmatched_sync_event() {
        let sync = EventSet::singleton(e(0));
        let p = Process::parallel(
            sync,
            Process::prefix(e(0), Process::Skip),
            Process::prefix(e(1), Process::Skip),
        );
        let ls = labels(&p, &Definitions::new());
        // Only the right side's independent event may fire.
        assert_eq!(ls, vec![Label::Event(e(1))]);
    }

    #[test]
    fn interleave_allows_both_orders() {
        let p = Process::interleave(
            Process::prefix(e(0), Process::Skip),
            Process::prefix(e(1), Process::Skip),
        );
        let ls = labels(&p, &Definitions::new());
        assert!(ls.contains(&Label::Event(e(0))));
        assert!(ls.contains(&Label::Event(e(1))));
    }

    #[test]
    fn parallel_termination_is_distributed() {
        // SKIP ||| (a -> SKIP): may not tick until the right side is done.
        let p = Process::interleave(Process::Skip, Process::prefix(e(0), Process::Skip));
        let defs = Definitions::new();
        let ts = transitions(&p, &defs).unwrap();
        assert!(ts.iter().all(|(l, _)| !l.is_tick()));
        let (_, after_a) = ts
            .iter()
            .find(|(l, _)| *l == Label::Event(e(0)))
            .expect("a should be available");
        let ts2 = transitions(after_a, &defs).unwrap();
        assert!(ts2.iter().any(|(l, _)| l.is_tick()));
    }

    #[test]
    fn hide_turns_events_into_tau() {
        let p = Process::hide(
            Process::prefix(e(0), Process::prefix(e(1), Process::Stop)),
            EventSet::singleton(e(0)),
        );
        let ts = transitions(&p, &Definitions::new()).unwrap();
        assert_eq!(ts.len(), 1);
        assert!(ts[0].0.is_tau());
    }

    #[test]
    fn rename_maps_visible_events() {
        let mut map = RenameMap::new();
        map.insert(e(0), e(7));
        let p = Process::rename(Process::prefix(e(0), Process::Stop), map);
        let ls = labels(&p, &Definitions::new());
        assert_eq!(ls, vec![Label::Event(e(7))]);
    }

    #[test]
    fn var_unfolds_definition() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(d, Process::prefix(e(0), Process::var(d)));
        let ts = transitions(&Process::var(d), &defs).unwrap();
        assert_eq!(ts, vec![(Label::Event(e(0)), Process::var(d))]);
    }

    #[test]
    fn unguarded_recursion_is_detected() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(d, Process::var(d));
        let err = transitions(&Process::var(d), &defs).unwrap_err();
        assert!(matches!(err, CspError::UnguardedRecursion { .. }));
    }

    #[test]
    fn unguarded_recursion_names_the_definition() {
        // Mutual recursion `LOOP = BACK`, `BACK = LOOP`: the error names a
        // definition on the cycle, and the rendered diagnostic carries it.
        let mut defs = Definitions::new();
        let a = defs.declare("LOOP");
        let b = defs.declare("BACK");
        defs.define(a, Process::var(b));
        defs.define(b, Process::var(a));
        let err = transitions(&Process::var(a), &defs).unwrap_err();
        let CspError::UnguardedRecursion { name } = &err else {
            panic!("expected UnguardedRecursion, got {err:?}");
        };
        assert!(name == "LOOP" || name == "BACK", "unexpected name {name}");
        let rendered = err.to_string();
        assert!(rendered.contains(name.as_str()), "{rendered}");
    }

    /// `P0 = P1 <op> …`, …, `P(n-1) = a -> STOP`, where `<op>` wraps the
    /// next reference: `P(i) = wrap(P(i+1))`.
    fn chain(n: usize, wrap: impl Fn(Process) -> Process) -> (Definitions, Process) {
        let mut defs = Definitions::new();
        let ids: Vec<DefId> = (0..n).map(|i| defs.declare(&format!("P{i}"))).collect();
        for pair in ids.windows(2) {
            defs.define(pair[0], wrap(Process::var(pair[1])));
        }
        defs.define(ids[n - 1], Process::prefix(e(0), Process::Stop));
        (defs, Process::var(ids[0]))
    }

    #[test]
    fn a_chain_of_bare_references_costs_no_depth() {
        let (defs, root) = chain(1_000, |p| p);
        assert_eq!(labels(&root, &defs), vec![Label::Event(e(0))]);
    }

    #[test]
    fn a_finite_unfolding_past_the_bound_is_too_deep_not_recursive() {
        let stop = || Process::prefix(e(1), Process::Stop);
        let (defs, root) = chain(200, |p| Process::external_choice(p, stop()));
        let err = transitions(&root, &defs).unwrap_err();
        assert!(
            matches!(err, CspError::UnfoldingTooDeep { limit: 128, .. }),
            "{err:?}"
        );
        assert!(!err.to_string().contains("recursion"), "{err}");
        // Nested through 127 definitions, it fires.
        let (defs, root) = chain(128, |p| Process::external_choice(p, stop()));
        assert_eq!(transitions(&root, &defs).unwrap().len(), 128);
    }

    #[test]
    fn a_cycle_behind_a_deep_branch_is_still_recursion() {
        // The deep chain fills the bound first; the cycle in the second
        // operand decides the verdict.
        let stop = || Process::prefix(e(1), Process::Stop);
        let (mut defs, deep) = chain(200, |p| Process::external_choice(p, stop()));
        let spin = defs.declare("SPIN");
        defs.define(spin, Process::external_choice(Process::var(spin), stop()));
        let root = Process::external_choice(deep, Process::var(spin));
        let err = transitions(&root, &defs).unwrap_err();
        assert_eq!(
            err,
            CspError::UnguardedRecursion {
                name: "SPIN".to_owned()
            }
        );
    }

    #[test]
    fn undefined_process_is_an_error() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        let err = transitions(&Process::var(d), &defs).unwrap_err();
        assert!(matches!(err, CspError::UndefinedProcess { .. }));
    }
}

#[cfg(test)]
mod interrupt_timeout_tests {
    use super::*;
    use crate::alphabet::EventId;
    use crate::laws::bounded_traces;
    use crate::traces::Trace;

    fn e(n: u32) -> EventId {
        EventId::from_index(n as usize)
    }

    #[test]
    fn interrupt_allows_takeover_at_any_point() {
        // (a -> b -> STOP) /\ (k -> STOP): k may fire before a, between a
        // and b, or after b.
        let defs = Definitions::new();
        let p = Process::interrupt(
            Process::prefix_chain([e(0), e(1)], Process::Stop),
            Process::prefix(e(9), Process::Stop),
        );
        let ts = bounded_traces(&p, &defs, 6, 10_000).unwrap();
        assert!(ts.contains(&Trace::from_events([e(9)])));
        assert!(ts.contains(&Trace::from_events([e(0), e(9)])));
        assert!(ts.contains(&Trace::from_events([e(0), e(1), e(9)])));
        assert!(ts.contains(&Trace::from_events([e(0), e(1)])));
        // After the takeover, P is abandoned.
        assert!(!ts.contains(&Trace::from_events([e(9), e(0)])));
    }

    #[test]
    fn interrupt_tick_ends_everything() {
        let defs = Definitions::new();
        let p = Process::interrupt(Process::Skip, Process::prefix(e(9), Process::Stop));
        let lts = crate::lts::Lts::build(p, &defs, 100).unwrap();
        // Tick leads to Ω with no interrupt wrapper left.
        let tick_target = lts
            .edges(lts.initial())
            .iter()
            .find(|(l, _)| l.is_tick())
            .map(|&(_, t)| t)
            .expect("tick available");
        assert!(lts.is_omega(tick_target));
    }

    #[test]
    fn timeout_traces_are_the_union() {
        // traces(P [> Q) = traces(P) ∪ traces(Q)
        let defs = Definitions::new();
        let p = Process::prefix(e(0), Process::Stop);
        let q = Process::prefix(e(1), Process::Stop);
        let t = Process::timeout(p.clone(), q.clone());
        let tp = bounded_traces(&p, &defs, 6, 10_000).unwrap();
        let tq = bounded_traces(&q, &defs, 6, 10_000).unwrap();
        let tt = bounded_traces(&t, &defs, 6, 10_000).unwrap();
        let union: std::collections::BTreeSet<_> = tp.union(&tq).cloned().collect();
        assert_eq!(tt, union);
    }

    #[test]
    fn timeout_may_refuse_p_after_the_timeout() {
        // In the failures model P [> Q may refuse P's initials (after the
        // internal timeout): its normal form has an acceptance without e0.
        let defs = Definitions::new();
        let p = Process::prefix(e(0), Process::Stop);
        let q = Process::prefix(e(1), Process::Stop);
        let t = Process::timeout(p, q);
        let lts = crate::lts::Lts::build(t, &defs, 100).unwrap();
        // At least one stable state refuses e0 (the post-timeout state).
        let stable_refusing_e0 = lts.state_ids().any(|s| {
            let edges = lts.edges(s);
            !edges.is_empty()
                && edges.iter().all(|(l, _)| !l.is_tau())
                && edges.iter().all(|(l, _)| l.event() != Some(e(0)))
        });
        assert!(stable_refusing_e0);
    }
}
