//! Top-level script API: parse, load, and run assertions.

use std::collections::BTreeMap;

use csp::{Alphabet, Definitions, Process};
use fdrlite::{CheckRequest, CheckStats, Checker, ModelStore, RefinementModel, Verdict};

use crate::ast::{Assertion, Decl, Module, PropKind, RefModel};
use crate::error::CspmError;
use crate::eval::{load_module, Value};
use crate::pretty;

/// A parsed (but not yet evaluated) CSPm script.
#[derive(Debug, Clone)]
pub struct Script {
    module: Module,
}

impl Script {
    /// Parse CSPm source text.
    ///
    /// # Errors
    ///
    /// Lexical or syntax errors, with positions.
    pub fn parse(source: &str) -> Result<Script, CspmError> {
        Ok(Script {
            module: crate::parse(source)?,
        })
    }

    /// The underlying AST.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Evaluate the script: elaborate every zero-parameter definition and
    /// resolve every assertion.
    ///
    /// # Errors
    ///
    /// Evaluation errors (unknown names, type mismatches, arity errors, …).
    pub fn load(&self) -> Result<LoadedScript, CspmError> {
        let (mut ev, named) = load_module(&self.module)?;

        let mut named_processes = BTreeMap::new();
        let mut named_values = BTreeMap::new();
        for (name, value) in named {
            match value {
                Value::Process(p) => {
                    named_processes.insert(name, p);
                }
                other => {
                    named_values.insert(name, other);
                }
            }
        }

        let mut assertions = Vec::new();
        for decl in &self.module.decls {
            let Decl::Assert(a) = decl else { continue };
            let description = pretty::assertion(a);
            let kind = match a {
                Assertion::Refinement { spec, impl_, model } => {
                    let spec = ev.eval(spec, &mut Vec::new())?.into_process()?;
                    let impl_ = ev.eval(impl_, &mut Vec::new())?.into_process()?;
                    ev.drain_pending()?;
                    ResolvedCheck::Refinement {
                        model: *model,
                        spec,
                        impl_,
                    }
                }
                Assertion::Property { process, property } => {
                    let p = ev.eval(process, &mut Vec::new())?.into_process()?;
                    ev.drain_pending()?;
                    ResolvedCheck::Property {
                        process: p,
                        property: *property,
                    }
                }
            };
            assertions.push(ResolvedAssertion { description, kind });
        }

        let uncalled = self
            .module
            .decls
            .iter()
            .filter_map(|decl| match decl {
                Decl::Definition { name, params, .. } if !params.is_empty() && !ev.called(name) => {
                    Some(name.clone())
                }
                _ => None,
            })
            .collect();

        Ok(LoadedScript {
            alphabet: ev.alphabet,
            defs: ev.defs,
            named_processes,
            named_values,
            assertions,
            uncalled,
        })
    }
}

/// A fully evaluated script: interned alphabet, process definitions, named
/// top-level processes/values and resolved assertions.
#[derive(Debug, Clone)]
pub struct LoadedScript {
    alphabet: Alphabet,
    defs: Definitions,
    named_processes: BTreeMap<String, Process>,
    named_values: BTreeMap<String, Value>,
    assertions: Vec<ResolvedAssertion>,
    uncalled: Vec<String>,
}

/// An assertion with its operand processes already elaborated.
#[derive(Debug, Clone)]
pub struct ResolvedAssertion {
    /// Human-readable rendering of the assertion.
    pub description: String,
    /// What to check.
    pub kind: ResolvedCheck,
}

/// The resolved operands of an assertion.
#[derive(Debug, Clone)]
pub enum ResolvedCheck {
    /// A refinement check.
    Refinement {
        /// Semantic model.
        model: RefModel,
        /// Specification process.
        spec: Process,
        /// Implementation process.
        impl_: Process,
    },
    /// A single-process property check.
    Property {
        /// The process under test.
        process: Process,
        /// The property.
        property: PropKind,
    },
}

/// The outcome of one assertion.
#[derive(Debug, Clone)]
pub struct AssertionResult {
    /// Human-readable rendering of the assertion.
    pub description: String,
    /// Pass, or fail with counterexample.
    pub verdict: Verdict,
    /// Exploration statistics, when requested via
    /// [`CheckOptions::collect_stats`]. Every refinement assertion (`[T=`,
    /// `[F=`, `[FD=`) produces stats, including the compile/explore wall
    /// split and model-store hit/miss counters; property assertions
    /// (`deadlock free`, …) leave this `None`.
    pub stats: Option<CheckStats>,
}

/// Options controlling how [`LoadedScript::check_with`] runs assertions.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Worker threads for refinement assertions (`[T=`, `[F=` and `[FD=`
    /// alike), passed to [`ModelStore::check`]. Every walk starts on the
    /// serial engine; with more than `1` (the default), one that grows past
    /// a measured size moves to the owner-partitioned engine. Verdicts and
    /// counterexamples are identical either way — the partitioned engine's
    /// witness recovery is canonical — *except* when a budget below is
    /// exhausted mid-run (see [`fdrlite::CheckOptions`]).
    pub threads: usize,
    /// Collect [`CheckStats`] for assertions that support it.
    pub collect_stats: bool,
    /// Stop a refinement assertion after exploring this many product
    /// states, yielding [`Verdict::Inconclusive`]. `None` (default) is
    /// unbounded. Property assertions (`deadlock free`, …) are not
    /// budgeted — they are linear in the implementation LTS.
    pub max_states: Option<u64>,
    /// Stop a refinement assertion after roughly this much wall-clock
    /// time (milliseconds), yielding [`Verdict::Inconclusive`].
    pub max_wall_ms: Option<u64>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            threads: 1,
            collect_stats: false,
            max_states: None,
            max_wall_ms: None,
        }
    }
}

impl CheckOptions {
    /// The fdrlite-level budget equivalent of these options.
    fn budget(&self) -> fdrlite::CheckOptions {
        fdrlite::CheckOptions {
            max_states: self.max_states,
            max_wall_ms: self.max_wall_ms,
        }
    }
}

impl LoadedScript {
    /// The interned event alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The elaborated recursive definitions (needed to explore processes).
    pub fn definitions(&self) -> &Definitions {
        &self.defs
    }

    /// A zero-parameter process definition by name.
    pub fn process(&self, name: &str) -> Option<&Process> {
        self.named_processes.get(name)
    }

    /// Intern a sequence of event names against the script's alphabet.
    ///
    /// Stops at the **first** name the alphabet does not contain and returns
    /// its position and name — the conformance pipeline treats a trace
    /// performing an event the model cannot even express as the strongest
    /// possible nonconformance, before any checking is spent.
    ///
    /// # Errors
    ///
    /// `(index, name)` of the first unknown event name.
    pub fn event_ids<'e, I>(&self, events: I) -> Result<Vec<csp::EventId>, (usize, &'e str)>
    where
        I: IntoIterator<Item = &'e str>,
    {
        let events = events.into_iter();
        let mut ids = Vec::with_capacity(events.size_hint().0);
        for (index, event) in events.enumerate() {
            match self.alphabet.lookup(event) {
                Some(id) => ids.push(id),
                None => return Err((index, event)),
            }
        }
        Ok(ids)
    }

    /// A zero-parameter non-process value by name.
    pub fn value(&self, name: &str) -> Option<&Value> {
        self.named_values.get(name)
    }

    /// The script's assertions, resolved.
    pub fn assertions(&self) -> &[ResolvedAssertion] {
        &self.assertions
    }

    /// The parameterised definitions that elaboration never called, in
    /// declaration order: no process, value or assertion of the script uses
    /// them.
    pub fn uncalled_definitions(&self) -> &[String] {
        &self.uncalled
    }

    /// Run every assertion through `checker`, in script order, with the
    /// default [`CheckOptions`] (serial, no stats).
    ///
    /// # Errors
    ///
    /// [`CspmError::Check`] when the checker hits a state-space bound.
    pub fn check(&self, checker: &Checker) -> Result<Vec<AssertionResult>, CspmError> {
        self.check_with(checker, &CheckOptions::default())
    }

    /// Run every assertion through `checker` with explicit [`CheckOptions`]
    /// (thread count, stats collection), in script order.
    ///
    /// Compiled models are shared across the assertions through a private
    /// [`ModelStore`], so a process named by several assertions compiles
    /// once. Use [`LoadedScript::check_with_store`] to share the store
    /// across calls too (e.g. between a check run and conformance checks
    /// over the same script).
    ///
    /// # Errors
    ///
    /// [`CspmError::Check`] when the checker hits a state-space bound or a
    /// parallel worker fails.
    pub fn check_with(
        &self,
        checker: &Checker,
        options: &CheckOptions,
    ) -> Result<Vec<AssertionResult>, CspmError> {
        self.check_with_store(checker, options, &ModelStore::new())
    }

    /// Like [`LoadedScript::check_with`], compiling every process through
    /// `store`. The store must be dedicated to this script's definitions
    /// table (see [`ModelStore`]'s caching contract); pass a store that has
    /// already seen this script's processes and the run skips their
    /// recompilation entirely.
    ///
    /// A store configured with [`fdrlite::PersistConfig`] (via
    /// `ModelStore::set_persist`) extends both behaviours across process
    /// lifetimes: compiled models are served from the on-disk cache, and a
    /// budget-exhausted refinement assertion writes a checkpoint and carries
    /// a resume token in its [`Verdict::Inconclusive`] — re-checking with a
    /// matching resume policy continues to a verdict bit-identical to an
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`CspmError::Check`] when the checker hits a state-space bound or a
    /// parallel worker fails.
    pub fn check_with_store(
        &self,
        checker: &Checker,
        options: &CheckOptions,
        store: &ModelStore,
    ) -> Result<Vec<AssertionResult>, CspmError> {
        self.assertions
            .iter()
            .map(|a| self.check_assertion(a, checker, options, store))
            .collect()
    }

    /// Check one of this script's [`LoadedScript::assertions`], compiling
    /// through `store` as [`LoadedScript::check_with_store`] does. A caller
    /// that wants only some assertions checks just those.
    ///
    /// # Errors
    ///
    /// [`CspmError::Check`] when the checker hits a state-space bound or a
    /// parallel worker fails.
    pub fn check_assertion(
        &self,
        assertion: &ResolvedAssertion,
        checker: &Checker,
        options: &CheckOptions,
        store: &ModelStore,
    ) -> Result<AssertionResult, CspmError> {
        let mut stats = None;
        let verdict = match &assertion.kind {
            ResolvedCheck::Refinement { model, spec, impl_ } => {
                let model = match model {
                    RefModel::Traces => RefinementModel::Traces,
                    RefModel::Failures => RefinementModel::Failures,
                    RefModel::FailuresDivergences => RefinementModel::FailuresDivergences,
                };
                let request = CheckRequest {
                    model,
                    spec,
                    impl_,
                    defs: &self.defs,
                    threads: options.threads,
                    options: options.budget(),
                };
                let (verdict, s) = store.check(checker, &request)?;
                if options.collect_stats {
                    stats = Some(s);
                }
                verdict
            }
            ResolvedCheck::Property { process, property } => match property {
                PropKind::DeadlockFree => store.deadlock_free(checker, process, &self.defs)?,
                PropKind::DivergenceFree => store.divergence_free(checker, process, &self.defs)?,
                PropKind::Deterministic => store.deterministic(checker, process, &self.defs)?,
            },
        };
        Ok(AssertionResult {
            description: assertion.description.clone(),
            verdict,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_on_paper_script() {
        let src = "
            datatype MsgT = reqSw | rptSw
            channel send, rec : MsgT
            SP02 = rec.reqSw -> send.rptSw -> SP02
            ECU  = rec.reqSw -> send.rptSw -> ECU
            assert SP02 [T= ECU
            assert ECU :[deadlock free]
            assert ECU :[deterministic]
        ";
        let loaded = Script::parse(src).unwrap().load().unwrap();
        assert!(loaded.process("SP02").is_some());
        assert!(loaded.process("ECU").is_some());
        let results = loaded.check(&Checker::new()).unwrap();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.verdict.is_pass()), "{results:?}");
    }

    #[test]
    fn failing_assertion_reports_counterexample() {
        let src = "
            datatype MsgT = reqSw | rptSw
            channel send, rec : MsgT
            SP02 = rec.reqSw -> send.rptSw -> SP02
            ROGUE = rec.reqSw -> send.rptSw -> send.rptSw -> STOP
            assert SP02 [T= ROGUE
        ";
        let loaded = Script::parse(src).unwrap().load().unwrap();
        let results = loaded.check(&Checker::new()).unwrap();
        let cex = results[0].verdict.counterexample().expect("must fail");
        let shown = cex.display(loaded.alphabet()).to_string();
        assert!(shown.contains("send.rptSw"), "{shown}");
    }

    #[test]
    fn check_with_parallel_and_stats_matches_serial() {
        let src = "
            datatype MsgT = reqSw | rptSw
            channel send, rec : MsgT
            SP02 = rec.reqSw -> send.rptSw -> SP02
            ROGUE = rec.reqSw -> send.rptSw -> send.rptSw -> STOP
            assert SP02 [T= ROGUE
            assert SP02 :[deadlock free]
        ";
        let loaded = Script::parse(src).unwrap().load().unwrap();
        let serial = loaded.check(&Checker::new()).unwrap();
        let options = CheckOptions {
            threads: 4,
            collect_stats: true,
            ..CheckOptions::default()
        };
        let parallel = loaded.check_with(&Checker::new(), &options).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.verdict, p.verdict, "{}", s.description);
            assert!(s.stats.is_none());
        }
        let stats = parallel[0].stats.as_ref().expect("refinement stats");
        // A product this small never leaves the serial explorer, and the
        // stats name the engine that finished the walk.
        assert_eq!(stats.threads, 1);
        assert!(stats.pairs_discovered > 0);
        assert!(parallel[1].stats.is_none(), "property checks have no stats");
    }

    #[test]
    fn budgets_degrade_assertions_to_inconclusive() {
        let src = "
            datatype MsgT = reqSw | rptSw
            channel send, rec : MsgT
            SP02 = rec.reqSw -> send.rptSw -> SP02
            ECU  = rec.reqSw -> send.rptSw -> ECU
            assert SP02 [T= ECU
            assert SP02 [F= ECU
        ";
        let loaded = Script::parse(src).unwrap().load().unwrap();
        let options = CheckOptions {
            max_states: Some(1),
            ..CheckOptions::default()
        };
        let results = loaded.check_with(&Checker::new(), &options).unwrap();
        for r in &results {
            let inc = r
                .verdict
                .inconclusive()
                .unwrap_or_else(|| panic!("expected inconclusive: {}", r.description));
            assert!(inc.states_explored >= 1);
        }
    }

    #[test]
    fn stats_recorded_for_all_refinement_models() {
        let src = "
            datatype MsgT = reqSw | rptSw
            channel send, rec : MsgT
            SP02 = rec.reqSw -> send.rptSw -> SP02
            ECU  = rec.reqSw -> send.rptSw -> ECU
            assert SP02 [T= ECU
            assert SP02 [F= ECU
            assert SP02 [FD= ECU
            assert ECU :[deadlock free]
        ";
        let loaded = Script::parse(src).unwrap().load().unwrap();
        let options = CheckOptions {
            collect_stats: true,
            ..CheckOptions::default()
        };
        let results = loaded.check_with(&Checker::new(), &options).unwrap();
        for r in &results[..3] {
            let stats = r
                .stats
                .as_ref()
                .unwrap_or_else(|| panic!("missing stats: {}", r.description));
            assert!(stats.pairs_discovered > 0, "{}", r.description);
        }
        assert!(results[3].stats.is_none(), "property checks have no stats");
        // SP02 and ECU recur across assertions, so later ones must be
        // served from the shared model store.
        let fd = results[2].stats.as_ref().unwrap();
        assert!(fd.store_hits > 0, "{fd:?}");
        assert_eq!(fd.store_misses, 0, "{fd:?}");
    }

    #[test]
    fn warm_store_run_is_verbatim_equal_to_cold() {
        let src = "
            datatype MsgT = reqSw | rptSw
            channel send, rec : MsgT
            SP02 = rec.reqSw -> send.rptSw -> SP02
            ROGUE = rec.reqSw -> send.rptSw -> send.rptSw -> STOP
            assert SP02 [T= ROGUE
            assert SP02 [F= ROGUE
            assert SP02 :[deterministic]
        ";
        let loaded = Script::parse(src).unwrap().load().unwrap();
        let checker = Checker::new();
        let store = fdrlite::ModelStore::new();
        for threads in [1usize, 8] {
            let options = CheckOptions {
                threads,
                collect_stats: true,
                ..CheckOptions::default()
            };
            let cold = loaded.check_with(&checker, &options).unwrap();
            let warm1 = loaded.check_with_store(&checker, &options, &store).unwrap();
            let warm2 = loaded.check_with_store(&checker, &options, &store).unwrap();
            for ((c, w1), w2) in cold.iter().zip(&warm1).zip(&warm2) {
                assert_eq!(c.verdict, w1.verdict, "{}", c.description);
                assert_eq!(w1.verdict, w2.verdict, "{}", w1.description);
            }
            // The second pass over the shared store recompiles nothing.
            let rerun = warm2[0].stats.as_ref().unwrap();
            assert_eq!(rerun.store_misses, 0, "{rerun:?}");
            assert!(rerun.store_hits > 0, "{rerun:?}");
        }
    }

    #[test]
    fn values_are_accessible() {
        let loaded = Script::parse("N = 6 * 7").unwrap().load().unwrap();
        assert_eq!(loaded.value("N"), Some(&Value::Int(42)));
        assert!(loaded.process("N").is_none());
    }

    #[test]
    fn assertion_description_is_readable() {
        let src = "
            channel a
            P = a -> P
            assert P :[deadlock free]
        ";
        let loaded = Script::parse(src).unwrap().load().unwrap();
        assert_eq!(loaded.assertions()[0].description, "P :[deadlock free]");
    }
}

#[cfg(test)]
mod fd_assertion_tests {
    use super::*;

    #[test]
    fn fd_assertion_checks_divergence_first() {
        let src = "
            channel a
            SPEC = a -> SPEC
            DIV = (a -> DIV) \\ {| a |}
            assert SPEC [FD= DIV
            assert SPEC [FD= SPEC
        ";
        let loaded = Script::parse(src).unwrap().load().unwrap();
        let results = loaded.check(&Checker::new()).unwrap();
        assert!(!results[0].verdict.is_pass());
        assert!(results[1].verdict.is_pass());
        assert_eq!(results[0].description, "SPEC [FD= DIV");
    }
}
