//! `fdrlite` — a refinement checker for CSP processes.
//!
//! This crate stands in for the FDR tool used by the paper (§IV-D). It offers
//! the checks the paper relies on, over the [`csp`] core:
//!
//! * **Trace refinement** (`SPEC ⊑T IMPL`): [`Checker::trace_refinement`],
//!   the check used for the paper's security properties (e.g. `SP02`).
//! * **Stable-failures refinement** (`SPEC ⊑F IMPL`):
//!   [`Checker::failures_refinement`], FDR's next semantic model, needed to
//!   detect a system that avoids insecure traces only by refusing to respond.
//! * **Failures-divergences refinement** (`SPEC ⊑FD IMPL`):
//!   [`Checker::failures_divergences_refinement`].
//! * **Deadlock freedom**: [`Checker::deadlock_free`].
//! * **Divergence freedom** (livelock): [`Checker::divergence_free`].
//! * **Determinism**: [`Checker::deterministic`] (nondeterminism is how
//!   information can leak in the CSP security literature).
//!
//! Failed checks come back as a [`Verdict::Fail`] carrying a
//! [`Counterexample`] — the message-sequence witness the paper feeds back to
//! software designers (Fig. 1).
//!
//! The `Checker` methods compile, normalise and walk the product serially,
//! with no cache and no budget. The rest of the stack asks its refinement
//! questions through [`ModelStore::check`] instead: it compiles through a
//! shared cache, starts every walk on the serial engine and, given more
//! than one thread, moves one that outgrows a measured size to an
//! owner-partitioned parallel engine. It honours [`CheckOptions`] budgets
//! and, with a [`PersistConfig`], checkpoints and resumes long walks. Its
//! verdicts and counterexamples equal the `Checker`'s at every thread count.
//!
//! # Example
//!
//! Check the paper's §V-B integrity property against a faulty ECU that sends
//! a second, unsolicited report:
//!
//! ```
//! use csp::{Alphabet, Definitions, Process};
//! use fdrlite::{Checker, Verdict};
//!
//! let mut ab = Alphabet::new();
//! let req = ab.intern("rec.reqSw");
//! let rpt = ab.intern("send.rptSw");
//!
//! let mut defs = Definitions::new();
//! let sp02 = defs.declare("SP02");
//! defs.define(sp02, Process::prefix(req, Process::prefix(rpt, Process::var(sp02))));
//! let faulty = Process::prefix_chain([req, rpt, rpt], Process::Stop);
//!
//! let checker = Checker::new();
//! let verdict = checker.trace_refinement(&Process::var(sp02), &faulty, &defs)?;
//! match verdict {
//!     Verdict::Fail(cex) => {
//!         assert_eq!(cex.trace().display(&ab).to_string(), "⟨rec.reqSw, send.rptSw⟩");
//!     }
//!     other => panic!("the unsolicited report must be caught, got {other:?}"),
//! }
//! # Ok::<(), fdrlite::CheckError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod counterexample;
mod error;
mod interrupt;
mod normalise;
mod pairs;
mod parallel;
mod stats;
mod store;

pub mod hypertrace;
pub mod persist;
pub mod properties;
pub mod supervisor;

pub use checker::{CheckOptions, Checker, RefinementModel};
pub use counterexample::{BudgetReason, Counterexample, FailureKind, Inconclusive, Verdict};
pub use error::CheckError;
pub use interrupt::{clear_interrupt, interrupt_requested, request_interrupt};
pub use normalise::{Acceptance, AcceptanceId, AcceptanceView, NormNodeId, NormalisedLts};
pub use persist::{CheckId, PersistConfig, PersistentCache, ResumePolicy, StorageFaultHook};
pub use stats::CheckStats;
pub use store::{CheckRequest, CompiledModel, ModelStore};
