//! Core CSP (Communicating Sequential Processes) process algebra.
//!
//! This crate implements the subset of CSP used by the DSN-W 2019 paper
//! *Enabling Security Checking of Automotive ECUs with Formal CSP Models*:
//! the operators `Stop`, `Skip`, event prefix, external and internal choice,
//! sequential composition, generalised (alphabetised) parallel, interleaving,
//! hiding and renaming, together with recursion through named definitions.
//!
//! Three layers are provided:
//!
//! * **Syntax** — [`Process`] is an immutable, `Arc`-shared process tree built
//!   through its constructors. Events are interned in an [`Alphabet`] and
//!   referenced by the copyable [`EventId`].
//! * **Operational semantics** — [`semantics::transitions`] computes the
//!   single-step firing rules (including the silent `τ` and termination `✓`
//!   labels) following Roscoe's *Understanding Concurrent Systems*.
//! * **Denotational checks** — [`Lts`] explores the reachable state space,
//!   and [`traces`] extracts the finite-traces model used for the trace-law
//!   tests (Table I of the paper) and by the `fdrlite` refinement checker.
//!
//! # Example
//!
//! Build `SP02 = rec.reqSw -> send.rptSw -> SP02`, the integrity property from
//! §V-B of the paper, and list its traces up to length 4:
//!
//! ```
//! use csp::{Alphabet, Definitions, Process};
//!
//! let mut ab = Alphabet::new();
//! let req = ab.intern("rec.reqSw");
//! let rpt = ab.intern("send.rptSw");
//!
//! let mut defs = Definitions::new();
//! let sp02 = defs.declare("SP02");
//! defs.define(sp02, Process::prefix(req, Process::prefix(rpt, Process::var(sp02))));
//!
//! let lts = csp::Lts::build(Process::var(sp02), &defs, 1_000)?;
//! let traces = csp::traces::traces_upto(&lts, 4);
//! assert!(traces.iter().any(|t| t.events().len() == 4));
//! # Ok::<(), csp::CspError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod error;
mod process;

pub mod analysis;
pub mod laws;
pub mod lts;
pub mod semantics;
pub mod term;
pub mod traces;

pub use alphabet::{Alphabet, EventId, EventSet, Label, RenameMap};
pub use error::CspError;
pub use lts::{Lts, StateId};
pub use process::{DefId, Definitions, Process};
pub use term::{Term, TermArena, TermId};
pub use traces::{Trace, TraceEvent};
