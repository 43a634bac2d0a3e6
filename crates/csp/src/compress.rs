//! Strong-bisimulation compression of labelled transition systems.
//!
//! FDR applies compression functions (`sbisim`, `normal`, …) to component
//! processes before composing them, which is how it scales to industrial
//! models. This module implements the strong-bisimulation quotient by
//! signature-based partition refinement: states are repeatedly split by the
//! multiset of `(label, target-block)` pairs they can reach until the
//! partition stabilises, then one representative per block is kept.
//!
//! Strong bisimilarity preserves every property this workspace checks
//! (traces, stable failures, deadlock, divergence, determinism), so a
//! compressed LTS can be used anywhere the original could.

use std::collections::{BTreeSet, HashMap};

use crate::alphabet::Label;
use crate::lts::{close_row, Lts, StateId};

/// The result of compressing an [`Lts`]: the quotient system plus the
/// block index of every original state.
#[derive(Debug, Clone)]
pub struct Compressed {
    /// The quotient LTS (one state per bisimulation class).
    pub lts: Lts,
    /// For each original state, the quotient state it maps to.
    pub class_of: Vec<StateId>,
}

/// Compute the strong-bisimulation quotient of `lts`.
///
/// The returned LTS has one state per equivalence class; its initial state
/// is the class of the original initial state.
pub fn quotient_bisim(lts: &Lts) -> Compressed {
    // Re-blocking key: (old block, signature).
    type SigKey<'a> = (usize, &'a BTreeSet<(Label, usize)>);

    let n = lts.state_count();
    // Start from the Ω bit: Ω and a deadlocked state both have no edges,
    // but only one of them has terminated.
    let mut block_of: Vec<usize> = lts
        .state_ids()
        .map(|s| usize::from(lts.is_omega(s)))
        .collect();
    let mut block_count = 1 + usize::from(block_of.iter().any(|&b| b != block_of[0]));

    loop {
        // Signature of a state: the set of (label, target block) pairs.
        let mut signatures: Vec<BTreeSet<(Label, usize)>> = Vec::with_capacity(n);
        for s in lts.state_ids() {
            let sig: BTreeSet<(Label, usize)> = lts
                .edges(s)
                .iter()
                .map(|&(label, target)| (label, block_of[target.index()]))
                .collect();
            signatures.push(sig);
        }
        // Re-block by (old block, signature).
        let mut index: HashMap<SigKey<'_>, usize> = HashMap::new();
        let mut next_block_of = vec![0usize; n];
        let mut next_count = 0usize;
        for i in 0..n {
            let key = (block_of[i], &signatures[i]);
            let block = *index.entry(key).or_insert_with(|| {
                let b = next_count;
                next_count += 1;
                b
            });
            next_block_of[i] = block;
        }
        let stable = next_count == block_count;
        block_of = next_block_of;
        block_count = next_count;
        if stable {
            break;
        }
    }

    // Quotient blocks must be renumbered so the initial class is state 0;
    // the rest keep their order.
    let init_block = block_of[lts.initial().index()];
    let renumber: Vec<usize> = (0..block_count)
        .map(|b| match b.cmp(&init_block) {
            std::cmp::Ordering::Less => b + 1,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => b,
        })
        .collect();
    // One representative per quotient state: its block's first member.
    let mut representative: Vec<Option<StateId>> = vec![None; block_count];
    for s in lts.state_ids() {
        representative[renumber[block_of[s.index()]]].get_or_insert(s);
    }

    let mut omega = Vec::with_capacity(block_count);
    let mut offsets = vec![0u32];
    let mut edges = Vec::new();
    for rep in representative {
        let rep = rep.expect("every block has a member");
        omega.push(lts.is_omega(rep));
        let row = edges.len();
        edges.extend(lts.edges(rep).iter().map(|&(label, target)| {
            let tb = renumber[block_of[target.index()]];
            (label, StateId::from_index(tb))
        }));
        close_row(&mut edges, row);
        offsets.push(edges.len() as u32);
    }

    let class_of = block_of
        .iter()
        .map(|&b| StateId::from_index(renumber[b]))
        .collect();

    Compressed {
        lts: Lts::from_parts(&omega, offsets, edges),
        class_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::EventId;
    use crate::process::{Definitions, Process};
    use crate::traces::traces_upto;

    fn e(n: u32) -> EventId {
        EventId::from_index(n as usize)
    }

    fn lts_of(p: Process) -> Lts {
        Lts::build(p, &Definitions::new(), 100_000).unwrap()
    }

    #[test]
    fn structurally_distinct_but_bisimilar_states_collapse() {
        // After `a`, the two residues are `b -> STOP` and
        // `(b -> STOP) [] STOP` — different terms (so the LTS keeps both),
        // but strongly bisimilar.
        use std::sync::Arc;
        let residue_plain = Process::prefix(e(1), Process::Stop);
        let residue_padded = Process::ExternalChoice(vec![
            Arc::new(Process::prefix(e(1), Process::Stop)),
            Arc::new(Process::Stop),
        ]);
        let p = Process::external_choice(
            Process::prefix(e(0), residue_plain),
            Process::prefix(e(2), residue_padded),
        );
        let lts = lts_of(p);
        let compressed = quotient_bisim(&lts);
        assert!(
            compressed.lts.state_count() < lts.state_count(),
            "{} vs {}",
            compressed.lts.state_count(),
            lts.state_count()
        );
        assert_eq!(
            traces_upto(&lts, 6),
            traces_upto(&compressed.lts, 6),
            "compression must preserve traces"
        );
    }

    #[test]
    fn interleaving_diamond_compresses() {
        // (a -> STOP) ||| (a -> STOP): the two mid states (done-left,
        // done-right) are bisimilar.
        let p = Process::interleave(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(0), Process::Stop),
        );
        let lts = lts_of(p);
        assert_eq!(lts.state_count(), 4);
        let compressed = quotient_bisim(&lts);
        assert_eq!(compressed.lts.state_count(), 3);
        assert_eq!(traces_upto(&lts, 6), traces_upto(&compressed.lts, 6));
    }

    #[test]
    fn deterministic_chain_is_already_minimal() {
        let p = Process::prefix_chain([e(0), e(1), e(2)], Process::Stop);
        let lts = lts_of(p);
        let compressed = quotient_bisim(&lts);
        assert_eq!(compressed.lts.state_count(), lts.state_count());
    }

    #[test]
    fn class_map_is_consistent_with_edges() {
        let p = Process::interleave(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(0), Process::Stop),
        );
        let lts = lts_of(p);
        let compressed = quotient_bisim(&lts);
        assert_eq!(compressed.class_of.len(), lts.state_count());
        // The initial state maps to the quotient initial state.
        assert_eq!(
            compressed.class_of[lts.initial().index()],
            compressed.lts.initial()
        );
        // Every original edge exists between the mapped classes.
        for s in lts.state_ids() {
            for &(label, target) in lts.edges(s) {
                let qs = compressed.class_of[s.index()];
                let qt = compressed.class_of[target.index()];
                assert!(
                    compressed.lts.edges(qs).contains(&(label, qt)),
                    "missing quotient edge for {label:?}"
                );
            }
        }
    }

    #[test]
    fn distinguishable_states_stay_apart() {
        // a -> b -> STOP vs a -> c -> STOP: the post-a states differ.
        let p = Process::external_choice(
            Process::prefix(e(0), Process::prefix(e(1), Process::Stop)),
            Process::prefix(e(0), Process::prefix(e(2), Process::Stop)),
        );
        let lts = lts_of(p);
        let compressed = quotient_bisim(&lts);
        assert_eq!(traces_upto(&lts, 6), traces_upto(&compressed.lts, 6));
    }

    #[test]
    fn termination_and_deadlock_stay_apart() {
        // b -> STOP [] a -> SKIP: STOP and Ω both have no edges, but only
        // Ω has terminated, so the quotient keeps both.
        let p = Process::external_choice(
            Process::prefix(e(1), Process::Stop),
            Process::prefix(e(0), Process::Skip),
        );
        let lts = lts_of(p);
        let compressed = quotient_bisim(&lts);
        assert_eq!(compressed.lts.state_count(), lts.state_count());
        let omega: Vec<StateId> = compressed
            .lts
            .state_ids()
            .filter(|&s| compressed.lts.is_omega(s))
            .collect();
        assert_eq!(omega.len(), 1);
        assert!(compressed.lts.is_terminal(omega[0]));
    }

    #[test]
    fn tau_structure_is_respected() {
        // Strong bisimulation does not erase τ: an internal choice stays
        // distinguishable from its resolved branches.
        let p = Process::internal_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let lts = lts_of(p);
        let compressed = quotient_bisim(&lts);
        assert_eq!(traces_upto(&lts, 6), traces_upto(&compressed.lts, 6));
        // initial (unstable) + two resolved + STOP-class
        assert_eq!(compressed.lts.state_count(), 4);
    }
}
