//! `faults` — deterministic CAN fault injection with model conformance.
//!
//! The paper validates its CSP models against implementations running in
//! CANoe (§IV-B) and derives attacker capabilities from the Dolev-Yao
//! intruder (§IV-E). This crate closes the remaining loop: it *executes*
//! those attacker capabilities — and ordinary channel faults — against the
//! [`canoe_sim`] bus, deterministically, and then checks that the observed
//! simulation trace is still a trace of the formal model.
//!
//! * [`FaultPlan`] — a declarative, plain-text fault plan (`[plan]`,
//!   `[[fault]]`, `[conformance]`, `[[map]]` sections) read by
//!   [`diag::toml`], with `SIM3xx` diagnostics;
//! * [`FaultEngine`] — a seeded [`canoe_sim::Interceptor`] composing drop,
//!   corruption, delay/jitter, duplication, replay, spoofing and bus-off
//!   faults; same plan + same seed ⇒ byte-identical trace;
//! * [`apply_plan`] — installs the engine on a [`canoe_sim::Simulation`]
//!   and schedules any `node_crash` outages;
//! * [`conformance`] — lifts the simulated trace to CSP events via the
//!   plan's `[[map]]` rules and checks `SPEC ⊑T ⟨trace⟩` with [`fdrlite`];
//! * [`batch`] — the high-throughput batch mode of the same check: merges
//!   a whole corpus of lifted traces into a hypertrace prefix trie and
//!   checks it in one walk of the spec's normal form, with per-trace
//!   verdicts verbatim-identical to the per-trace loop;
//! * [`replay`] — serialises an [`fdrlite`] counterexample to JSON and
//!   re-drives it through the simulator to reproduce the violation;
//! * [`storage`] — seeded storage faults ([`StorageFaultEngine`]: torn
//!   writes, truncation, bit flips, stale versions, dropped writes)
//!   against the persistent model store's write path, validating that
//!   corruption degrades to a recompile, never a wrong verdict.
//!
//! # Example
//!
//! ```
//! use faults::{FaultEngine, FaultPlan};
//!
//! let plan = FaultPlan::parse(
//!     r#"
//! [plan]
//! name = "drop-every-second-report"
//! seed = 7
//!
//! [[fault]]
//! name = "lossy-link"
//! kind = "drop"
//! match_id = 512
//! every_nth = 2
//! "#,
//! )
//! .expect("plan parses");
//! assert_eq!(plan.faults.len(), 1);
//! let _engine = FaultEngine::from_plan(&plan);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod codes;
pub mod conformance;
mod engine;
mod plan;
pub mod replay;
pub mod storage;

pub use engine::{apply_plan, FaultEngine};
pub use plan::{
    lint_plan, ConformanceSpec, FaultKind, FaultPlan, FaultSpec, MapOn, MapRule, Trigger,
};
pub use storage::{apply_storage_fault, StorageFaultEngine, StorageFaultKind, ALL_STORAGE_FAULTS};
