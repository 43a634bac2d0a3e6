//! Semantic static analysis over the arena and compiled layers.
//!
//! Everything in this module is a *pre-check*: sound, conservative
//! information extracted without running a refinement, powering the
//! `ANA3xx` diagnostic family and the `autocsp analyze` subcommand.
//!
//! Three passes, layered on what already exists:
//!
//! * [`AlphabetInference`] — interprocedural *may-alphabet* inference over
//!   a [`TermArena`](crate::TermArena): a fixpoint over definition bodies
//!   that pushes event sets through renaming, hiding and synchronised
//!   parallel. The result over-approximates the events a process can ever
//!   perform, so "event `e` is *not* in the alphabet" is a proof that `e`
//!   never happens — the soundness direction the semantic lints need
//!   (one-sided synchronisation, dead hides, unreachable definitions).
//! * [`GraphAnalysis`] — a Tarjan SCC pass over a compiled
//!   [`Lts`](crate::lts::Lts)'s edge table that classifies τ-cycles, decides
//!   divergence-freedom (a state diverges iff it can τ-reach a τ-cycle)
//!   and flags guaranteed-deadlock sink states. The divergent-state set is
//!   definitionally the same one the `[FD=` checker computes, so a cached
//!   `GraphAnalysis` can stand in for that phase verbatim. The same pass
//!   finds unguarded recursion ([`unguarded_definitions`], `CSP202`).
//! * [`StateEstimate`] — a state-space predictor: compile the *components*
//!   of a composition (cheap), then bound the product through the proved
//!   inequalities `|P ⟦A⟧ Q| ≤ |P|·|Q| + 1` and
//!   `|P \ A| ≤ |P| + 2` (likewise renaming). The predicted bound is
//!   always ≥ the real reachable-state count when every component compiled
//!   exactly, which lets budgets reject a check *before* paying for it.

mod alpha;
mod estimate;
mod graph;

pub use alpha::{AlphaFinding, AlphabetInference, SyncSide};
pub use estimate::{estimate, ComponentEstimate, StateEstimate};
pub(crate) use graph::decide;
pub use graph::{tau_divergence, unguarded_definitions, GraphAnalysis, TauDivergence};
