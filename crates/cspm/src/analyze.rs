//! Semantic model analysis over a loaded script.
//!
//! The one analysis of a CSPm model's recursion, alphabets, reachability
//! and graphs that `lint`, `check` and `analyze` run. It works on the
//! *elaborated* model, so renaming, hiding, computed sync sets and
//! conditions do not defeat it:
//!
//! * [`csp::analysis::unguarded_definitions`] — one SCC pass over the
//!   references each definition reaches before any event, powering
//!   `CSP202` ([`unguarded_recursion`]);
//! * [`csp::analysis::AlphabetInference`] — an interprocedural fixpoint
//!   over the hash-consed term arena that flows events through `[[a <- b]]`
//!   and `\ {…}`, powering the `ANA301`–`ANA304` diagnostics;
//! * a compile of every assertion operand through the [`ModelStore`]
//!   (`ANA300` when it fails), the compile the check that follows reuses;
//! * [`csp::analysis::GraphAnalysis`] — a Tarjan SCC pass over a compiled
//!   operand (cached in the store, so a check that reads it reuses it),
//!   powering `ANA305`/`ANA306`;
//! * [`csp::analysis::estimate`] — a compositional state-space predictor
//!   whose bound feeds `ANA307`.
//!
//! Two entry points share one pass. [`analyze_script`] runs only what its
//! diagnostics read, which is all `lint` and `check` print: the SCC pass on
//! the operands a diagnostic judges (the implementation of an `[FD=`
//! refinement and the process of a property assertion), and the estimate
//! only under a state budget. [`report_script`] runs the pass over every
//! operand and adds what `autocsp analyze` prints besides: each
//! definition's alphabet, each operand's graph summary and prediction.
//! Both order their [`Diagnostic`]s deterministically.

use std::collections::{BTreeSet, HashMap, HashSet};

use csp::analysis::{
    estimate, unguarded_definitions, AlphaFinding, AlphabetInference, GraphAnalysis, SyncSide,
};
use csp::{Alphabet, CspError, EventId, Process, Term, TermArena};
use diag::{ana, Diagnostic, Span};
use fdrlite::{CheckError, Checker, ModelStore};

use crate::ast::{Decl, Module, PropKind, RefModel};
use crate::script::{LoadedScript, ResolvedCheck};

/// Analysis of one named definition.
#[derive(Debug, Clone)]
pub struct DefinitionAnalysis {
    /// The definition's name (parameterised instances keep their argument
    /// suffix, e.g. `P(1)`).
    pub name: String,
    /// Where the definition lives in the source (unknown for elaborated
    /// instances with no direct declaration).
    pub span: Span,
    /// The inferred may-alphabet, as sorted event names.
    pub alphabet: Vec<String>,
    /// Whether any assertion can semantically reach this definition
    /// (always `true` in a script without assertions).
    pub reachable: bool,
}

/// Graph classification of one compiled assertion operand.
#[derive(Debug, Clone, Copy)]
pub struct GraphSummary {
    /// Reachable states.
    pub states: usize,
    /// Transitions.
    pub transitions: usize,
    /// τ-labelled transitions.
    pub tau_transitions: usize,
    /// Strongly connected components of the full graph.
    pub scc_count: usize,
    /// States lying on a τ-cycle.
    pub tau_cycle_states: usize,
    /// States with an infinite τ-path.
    pub divergent_states: usize,
    /// Non-Ω sink states.
    pub deadlock_states: usize,
}

impl GraphSummary {
    fn of(g: &GraphAnalysis) -> GraphSummary {
        GraphSummary {
            states: g.state_count(),
            transitions: g.transition_count(),
            tau_transitions: g.tau_transition_count(),
            scc_count: g.scc_count(),
            tau_cycle_states: g.tau_cycle_states(),
            divergent_states: g.divergent_count(),
            deadlock_states: g.deadlock_count(),
        }
    }

    /// No reachable state diverges.
    pub fn divergence_free(&self) -> bool {
        self.divergent_states == 0
    }

    /// No reachable state is a non-Ω sink.
    pub fn deadlock_free(&self) -> bool {
        self.deadlock_states == 0
    }
}

/// Analysis of one assertion operand.
#[derive(Debug, Clone)]
pub struct ProcessAnalysis {
    /// `"spec"`, `"impl"` or `"process"`.
    pub role: &'static str,
    /// Graph classification, when the operand compiled within bounds.
    pub graph: Option<GraphSummary>,
    /// Why the graph passes were skipped, when they were.
    pub compile_error: Option<String>,
    /// Predicted upper bound on reachable states (compositional estimate).
    pub predicted_states: u64,
    /// Whether every leaf of the estimate compiled exactly (making the
    /// prediction a proven bound).
    pub estimate_exact: bool,
    /// Compiled leaf components of the decomposition.
    pub components: usize,
    /// Parallel compositions crossed by the decomposition.
    pub parallel_count: usize,
    /// Total synchronised events across those compositions.
    pub sync_coupling: usize,
}

/// Analysis of one assertion.
#[derive(Debug, Clone)]
pub struct AssertionAnalysis {
    /// Human-readable rendering of the assertion.
    pub description: String,
    /// Operand analyses (spec then impl for refinements, the single
    /// process for property assertions).
    pub processes: Vec<ProcessAnalysis>,
    /// For refinements: the product of the operands' predicted state
    /// bounds — a coarse a-priori size of the refinement product walk.
    pub predicted_product: Option<u64>,
}

/// What [`analyze_script`] finds: the findings `lint` and `check` print.
#[derive(Debug, Clone)]
pub struct ScriptAnalysis {
    /// Semantic findings, deterministically ordered (span, then code, then
    /// message).
    pub diagnostics: Vec<Diagnostic>,
}

/// Everything [`report_script`] learns about one script: the report
/// `autocsp analyze` prints.
#[derive(Debug, Clone)]
pub struct ScriptReport {
    /// Fixpoint rounds until the definition alphabets stabilised.
    pub rounds: usize,
    /// Per-definition results, in declaration order.
    pub definitions: Vec<DefinitionAnalysis>,
    /// Per-assertion results, in script order.
    pub assertions: Vec<AssertionAnalysis>,
    /// Semantic findings, deterministically ordered (span, then code, then
    /// message): the same findings [`analyze_script`] reports.
    pub diagnostics: Vec<Diagnostic>,
}

/// The semantic findings over `loaded`: what `lint` and `check` print.
///
/// `module` supplies source spans for definition-scoped findings (pass the
/// AST the script was loaded from). Every assertion operand is compiled
/// through `store` under `checker`'s bounds, so a subsequent check run
/// over the same store reuses the compiled models, and the graph
/// classifications the findings read. An operand that fails to compile
/// (state-space bound, nesting bound) degrades to an `ANA300` warning —
/// analysis never aborts. An operand whose compile fails on unguarded
/// recursion gets no `ANA300`: the definition's `CSP202` reports it.
///
/// `budget_states` is the exploration budget the eventual check would run
/// under (`--max-states`); operands predicted to exceed it get `ANA307`.
/// Without a budget no prediction is made.
pub fn analyze_script(
    module: &Module,
    loaded: &LoadedScript,
    checker: &Checker,
    store: &ModelStore,
    budget_states: Option<u64>,
) -> ScriptAnalysis {
    let pass = Pass::run(module, loaded, checker, store, budget_states, false);
    ScriptAnalysis {
        diagnostics: pass.diagnostics,
    }
}

/// [`analyze_script`]'s findings plus the report `autocsp analyze` prints:
/// every definition's alphabet and reachability, and every assertion
/// operand's graph classification and state-space prediction.
pub fn report_script(
    module: &Module,
    loaded: &LoadedScript,
    checker: &Checker,
    store: &ModelStore,
    budget_states: Option<u64>,
) -> ScriptReport {
    let pass = Pass::run(module, loaded, checker, store, budget_states, true);
    let defs = loaded.definitions();
    let alphabet = loaded.alphabet();
    let has_assertions = !loaded.assertions().is_empty();
    let mut definitions = Vec::with_capacity(defs.len());
    for d in defs.ids() {
        let name = defs.name(d).to_string();
        let mut alpha: Vec<String> = pass
            .inference
            .def_alphabet(d)
            .iter()
            .map(|e| alphabet.name(e).to_string())
            .collect();
        alpha.sort_unstable();
        definitions.push(DefinitionAnalysis {
            span: pass.span_of(&name),
            alphabet: alpha,
            reachable: !has_assertions || pass.reached[d.index()],
            name,
        });
    }
    let assertions = loaded
        .assertions()
        .iter()
        .zip(pass.processes)
        .map(|(a, processes)| {
            let predicted_product = match &a.kind {
                ResolvedCheck::Refinement { .. } => Some(
                    processes
                        .iter()
                        .map(|p| p.predicted_states)
                        .fold(1_u64, u64::saturating_mul),
                ),
                ResolvedCheck::Property { .. } => None,
            };
            AssertionAnalysis {
                description: a.description.clone(),
                processes,
                predicted_product,
            }
        })
        .collect();
    ScriptReport {
        rounds: pass.inference.rounds(),
        definitions,
        assertions,
        diagnostics: pass.diagnostics,
    }
}

/// `CSP202` for every source definition with an instance that can recurse
/// without performing an event first
/// ([`csp::analysis::unguarded_definitions`]), once per definition at its
/// span (`P(3)` is reported at `P`), in name order.
pub fn unguarded_recursion(module: &Module, loaded: &LoadedScript) -> Vec<Diagnostic> {
    let defs = loaded.definitions();
    let (unguarded, spans) = (unguarded_definitions(defs), definition_spans(module));
    let names: BTreeSet<&str> = defs
        .ids()
        .filter(|d| unguarded[d.index()])
        .map(|d| base_name(defs.name(d)))
        .collect();
    names
        .into_iter()
        .map(|name| {
            Diagnostic::warning(
                diag::UNGUARDED_RECURSION,
                spans.get(name).copied().unwrap_or_else(Span::unknown),
                format!("process `{name}` can recurse without performing an event first"),
            )
            .with_note("unguarded recursion lets the process unwind forever (divergence)")
        })
        .collect()
}

/// The source span of each definition's name.
fn definition_spans(module: &Module) -> HashMap<&str, Span> {
    let mut spans = HashMap::new();
    for decl in &module.decls {
        if let Decl::Definition { name, pos, .. } = decl {
            spans
                .entry(name.as_str())
                .or_insert_with(|| Span::new(pos.line, pos.col, name.len() as u32));
        }
    }
    spans
}

/// The source definition of an instance: `P(1)` → `P`.
fn base_name(def_name: &str) -> &str {
    def_name.split('(').next().unwrap_or(def_name)
}

/// The pass [`analyze_script`] and [`report_script`] share.
struct Pass<'m> {
    inference: AlphabetInference,
    /// Source spans of definition names.
    spans: HashMap<&'m str, Span>,
    /// Whether an assertion reaches each definition, by `DefId` index.
    reached: Vec<bool>,
    /// Each assertion's operand analyses, made only for a report.
    processes: Vec<Vec<ProcessAnalysis>>,
    diagnostics: Vec<Diagnostic>,
}

impl<'m> Pass<'m> {
    /// Run the analysis. With `report`, every operand is classified and
    /// predicted and its [`ProcessAnalysis`] kept; otherwise only the
    /// operands a diagnostic judges are classified, and predictions are
    /// made only under a budget.
    fn run(
        module: &'m Module,
        loaded: &LoadedScript,
        checker: &Checker,
        store: &ModelStore,
        budget_states: Option<u64>,
        report: bool,
    ) -> Pass<'m> {
        let defs = loaded.definitions();
        let alphabet = loaded.alphabet();
        let mut arena = TermArena::new();
        let inference = AlphabetInference::infer(&mut arena, defs);
        let mut pass = Pass {
            inference,
            spans: definition_spans(module),
            reached: Vec::new(),
            processes: Vec::new(),
            diagnostics: unguarded_recursion(module, loaded),
        };
        let mut seen_findings: HashSet<AlphaFinding> = HashSet::new();

        // -- Alphabet findings inside definition bodies (ANA301/302/303) ----
        for d in defs.ids() {
            let Some(body) = pass.inference.def_body(d) else {
                continue;
            };
            let name = defs.name(d);
            for finding in pass.inference.term_findings(&arena, body) {
                if !seen_findings.insert(finding) {
                    continue;
                }
                if dead_in_live_channel_closure(&arena, &pass.inference, alphabet, &finding) {
                    continue;
                }
                pass.diagnostics.push(alpha_diagnostic(
                    &finding,
                    alphabet,
                    pass.span_of(name),
                    &format!("in the definition of `{name}`"),
                ));
            }
        }

        // -- Assertion operand roots ------------------------------------------
        let mut roots = Vec::new();
        for a in loaded.assertions() {
            for (_, p) in operands(&a.kind) {
                let root = arena.intern(p);
                roots.push(root);
                // Findings in compositions written inline in the assert itself.
                for finding in pass.inference.term_findings(&arena, root) {
                    if !seen_findings.insert(finding) {
                        continue;
                    }
                    if dead_in_live_channel_closure(&arena, &pass.inference, alphabet, &finding) {
                        continue;
                    }
                    pass.diagnostics.push(alpha_diagnostic(
                        &finding,
                        alphabet,
                        Span::unknown(),
                        &format!("in `{}`", a.description),
                    ));
                }
            }
        }

        // -- Semantic reachability (ANA304) -----------------------------------
        pass.reached = pass.inference.reachable_defs(&arena, &roots);
        if !loaded.assertions().is_empty() {
            // Aggregate instances by base name: `P(1)` reached counts for `P`.
            let mut base_reached: HashMap<&str, bool> = HashMap::new();
            for d in defs.ids() {
                let Some((&key, _)) = pass.spans.get_key_value(base_name(defs.name(d))) else {
                    continue;
                };
                *base_reached.entry(key).or_insert(false) |= pass.reached[d.index()];
            }
            // A parameterised definition that nothing called has no instance.
            for name in loaded.uncalled_definitions() {
                if let Some((&key, _)) = pass.spans.get_key_value(name.as_str()) {
                    base_reached.entry(key).or_insert(false);
                }
            }
            let mut unreachable: Vec<&str> = base_reached
                .iter()
                .filter(|&(_, &r)| !r)
                .map(|(&n, _)| n)
                .collect();
            unreachable.sort_unstable();
            for name in unreachable {
                pass.diagnostics.push(
                    Diagnostic::warning(
                        ana::UNREACHABLE_DEFINITION,
                        pass.span_of(name),
                        format!(
                            "definition `{name}` is semantically unreachable from every assertion"
                        ),
                    )
                    .with_note(
                        "reachability follows references through renaming and hiding; \
                         no assertion can exercise this definition",
                    ),
                );
            }
        }

        // -- Operand compile, graph classification and prediction -------------
        for a in loaded.assertions() {
            let (divergence_doomed, deadlock_doomed): (&[&'static str], &[&'static str]) =
                match &a.kind {
                    // `[FD=` fails outright on a divergent implementation.
                    ResolvedCheck::Refinement { model, .. } => (
                        if *model == RefModel::FailuresDivergences {
                            &["impl"]
                        } else {
                            &[]
                        },
                        &[],
                    ),
                    ResolvedCheck::Property { property, .. } => match property {
                        PropKind::DivergenceFree | PropKind::Deterministic => (&["process"], &[]),
                        PropKind::DeadlockFree => (&[], &["process"]),
                    },
                };

            let mut processes = Vec::new();
            for (role, p) in operands(&a.kind) {
                let divergence = divergence_doomed.contains(&role);
                let deadlock = deadlock_doomed.contains(&role);
                // Only a diagnostic or the report reads the SCC pass; the
                // compile alone is what every operand shares with the check.
                let compiled = if report || divergence || deadlock {
                    store
                        .graph_analysis(checker, p, defs)
                        .map(|g| Some(GraphSummary::of(&g)))
                } else {
                    store.compile(checker, p, defs).map(|_| None)
                };
                let (graph, compile_error) = match compiled {
                    Ok(graph) => (graph, None),
                    Err(e) => (None, Some(e)),
                };

                match (&graph, &compile_error) {
                    // A CSP202 already reports it: firing follows only
                    // edges CSP202 follows.
                    (_, Some(CheckError::Csp(CspError::UnguardedRecursion { .. }))) => {}
                    (_, Some(error)) => {
                        pass.diagnostics.push(
                            Diagnostic::warning(
                                ana::ANALYSIS_SKIPPED,
                                Span::unknown(),
                                format!(
                                    "the {role} of `{}` could not be compiled for analysis: \
                                     {error}",
                                    a.description,
                                ),
                            )
                            .with_note(
                                "graph classification was skipped; alphabet findings still \
                                 apply",
                            ),
                        );
                    }
                    (Some(g), None) => {
                        if divergence && !g.divergence_free() {
                            pass.diagnostics.push(
                                Diagnostic::warning(
                                    ana::DIVERGENT_PROCESS,
                                    Span::unknown(),
                                    format!(
                                        "the {role} of `{}` can diverge ({} of {} states have \
                                         an infinite τ-path); the assertion is guaranteed to \
                                         fail",
                                        a.description, g.divergent_states, g.states
                                    ),
                                )
                                .with_note(
                                    "divergence was proved by SCC analysis of the compiled \
                                     graph",
                                ),
                            );
                        }
                        if deadlock && !g.deadlock_free() {
                            pass.diagnostics.push(
                                Diagnostic::warning(
                                    ana::DEADLOCK_SINK,
                                    Span::unknown(),
                                    format!(
                                        "the {role} of `{}` reaches {} deadlock sink(s); the \
                                         assertion is guaranteed to fail",
                                        a.description, g.deadlock_states
                                    ),
                                )
                                .with_note(
                                    "a deadlock sink is a reachable non-Ω state with no \
                                     outgoing transitions",
                                ),
                            );
                        }
                    }
                    (None, None) => {}
                }

                if !report && budget_states.is_none() {
                    continue;
                }
                let root = arena.intern(p);
                let est = estimate(&mut arena, root, defs, checker.max_states);
                if let Some(budget) = budget_states {
                    if est.predicted_states() > budget {
                        let qualifier = if est.is_exact() {
                            "a proven bound"
                        } else {
                            "approximate: some components hit the compile cap"
                        };
                        pass.diagnostics.push(
                            Diagnostic::warning(
                                ana::PREDICTED_OVER_BUDGET,
                                Span::unknown(),
                                format!(
                                    "the {role} of `{}` is predicted to reach up to {} states, \
                                     over the --max-states budget of {budget}",
                                    a.description,
                                    est.predicted_states(),
                                ),
                            )
                            .with_note(format!("the prediction is {qualifier}")),
                        );
                    }
                }
                if report {
                    processes.push(ProcessAnalysis {
                        role,
                        graph,
                        compile_error: compile_error.map(|e| e.to_string()),
                        predicted_states: est.predicted_states(),
                        estimate_exact: est.is_exact(),
                        components: est.components().len(),
                        parallel_count: est.parallel_count(),
                        sync_coupling: est.sync_coupling(),
                    });
                }
            }
            if report {
                pass.processes.push(processes);
            }
        }

        sort_diagnostics(&mut pass.diagnostics);
        pass
    }

    /// The source span of a definition, by its name's base (`P(1)` → `P`).
    fn span_of(&self, def_name: &str) -> Span {
        let base = base_name(def_name);
        self.spans.get(base).copied().unwrap_or_else(Span::unknown)
    }
}

/// An assertion's operands with their roles: spec then impl, or the
/// process.
fn operands(kind: &ResolvedCheck) -> Vec<(&'static str, &Process)> {
    match kind {
        ResolvedCheck::Refinement { spec, impl_, .. } => vec![("spec", spec), ("impl", impl_)],
        ResolvedCheck::Property { process, .. } => vec![("process", process)],
    }
}

/// Order diagnostics deterministically: by span (unknown spans first), then
/// code, then message. Stable across runs and thread counts by construction
/// — every input list is derived from declaration/script order.
pub fn sort_diagnostics(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| {
        (a.span.line, a.span.col, a.code.0, &a.message).cmp(&(
            b.span.line,
            b.span.col,
            b.code.0,
            &b.message,
        ))
    });
}

/// Noise policy for `ANA302`: a dead synchronised event whose *channel* is
/// otherwise live in the same sync set is almost always a channel-closure
/// sync (`[| {| c |} |]`) over a channel whose remaining values the dialogue
/// never exchanges — idiomatic CSPm, not a stale set. Report the event only
/// when every event of its channel in the set is dead too.
fn dead_in_live_channel_closure(
    arena: &TermArena,
    inference: &AlphabetInference,
    alphabet: &Alphabet,
    finding: &AlphaFinding,
) -> bool {
    let &AlphaFinding::SyncDeadEvent { at, event } = finding else {
        return false;
    };
    let &Term::Parallel { sync, left, right } = arena.term(at) else {
        return false;
    };
    let channel = channel_of(alphabet.name(event));
    let al = inference.alphabet_of(arena, left);
    let ar = inference.alphabet_of(arena, right);
    arena.set(sync).iter().any(|e| {
        e != event && channel_of(alphabet.name(e)) == channel && al.contains(e) && ar.contains(e)
    })
}

/// The channel part of a compound event name (`rec.reqSw` → `rec`).
fn channel_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn alpha_diagnostic(
    finding: &AlphaFinding,
    alphabet: &Alphabet,
    span: Span,
    context: &str,
) -> Diagnostic {
    let name = |e: EventId| alphabet.name(e).to_string();
    match *finding {
        AlphaFinding::SyncOneSided {
            event, performer, ..
        } => {
            let (can, cannot) = match performer {
                SyncSide::Left => ("left", "right"),
                SyncSide::Right => ("right", "left"),
            };
            Diagnostic::warning(
                ana::SYNC_ONE_SIDED,
                span,
                format!(
                    "synchronised event `{}` {context} can only ever be performed by the \
                     {can} side of the parallel; the {cannot} side never offers it",
                    name(event)
                ),
            )
            .with_note(
                "the inferred may-alphabets see through renaming and hiding; \
                 synchronising on this event blocks it forever",
            )
        }
        AlphaFinding::SyncDeadEvent { event, .. } => Diagnostic::warning(
            ana::SYNC_DEAD_EVENT,
            span,
            format!(
                "synchronised event `{}` {context} can never be performed by either side \
                 of the parallel",
                name(event)
            ),
        )
        .with_note("usually a stale synchronisation set; remove the event"),
        AlphaFinding::HiddenNeverPerformable { event, .. } => Diagnostic::warning(
            ana::HIDE_DEAD_EVENT,
            span,
            format!(
                "event `{}` {context} is hidden but the process can never perform it",
                name(event)
            ),
        )
        .with_note("hiding an unperformable event is a no-op; the hide set may be stale"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Script;

    /// The report on `src`, whose findings must equal [`analyze_script`]'s.
    fn analyze(src: &str) -> ScriptReport {
        let script = Script::parse(src).unwrap();
        let loaded = script.load().unwrap();
        let checker = Checker::new();
        let findings = analyze_script(script.module(), &loaded, &checker, &ModelStore::new(), None);
        let report = report_script(script.module(), &loaded, &checker, &ModelStore::new(), None);
        assert_eq!(findings.diagnostics, report.diagnostics);
        report
    }

    fn codes(analysis: &ScriptReport) -> Vec<&str> {
        analysis.diagnostics.iter().map(|d| d.code.0).collect()
    }

    #[test]
    fn clean_script_has_no_findings() {
        let a = analyze(
            "
            channel req, rpt
            NODE = req -> rpt -> NODE
            BUS  = req -> rpt -> BUS
            SYSTEM = NODE [| {req, rpt} |] BUS
            assert SYSTEM :[deadlock free]
            ",
        );
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.assertions.len(), 1);
        let g = a.assertions[0].processes[0].graph.expect("compiled");
        assert!(g.deadlock_free());
        assert!(g.divergence_free());
    }

    #[test]
    fn dead_value_of_a_live_channel_closure_is_not_stale() {
        // `{| rec, send |}` closes over every value of both channels; the
        // dialogue only ever exchanges `m1`. The unexchanged values are
        // idiomatic closure slack, not a stale sync set — no ANA302. The
        // fully-dead channel `aux` in the same set must still be reported.
        let a = analyze(
            "
            datatype MsgT = m1 | m2
            channel rec, send : MsgT
            channel aux
            P = rec.m1 -> send.m1 -> P
            Q = rec.m1 -> send.m1 -> Q
            SYSTEM = P [| {| rec, send, aux |} |] Q
            assert SYSTEM :[deadlock free]
            ",
        );
        let ana302: Vec<&Diagnostic> = a
            .diagnostics
            .iter()
            .filter(|d| d.code.0 == "ANA302")
            .collect();
        assert_eq!(ana302.len(), 1, "{:?}", a.diagnostics);
        assert!(ana302[0].message.contains("`aux`"), "{:?}", ana302[0]);
        assert!(
            !a.diagnostics
                .iter()
                .any(|d| d.message.contains("rec.m2") || d.message.contains("send.m2")),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn one_sided_sync_is_reported_through_renaming() {
        // The inferred alphabets follow the rename: MONITOR performs
        // `rpt` but never offers `req`.
        let a = analyze(
            "
            channel req, rpt, tick
            SENDER = req -> SENDER
            CLOCK = tick -> CLOCK
            MONITOR = CLOCK [[ tick <- rpt ]]
            SYSTEM = SENDER [| {req, rpt} |] MONITOR
            assert SYSTEM :[deadlock free]
            ",
        );
        let codes = codes(&a);
        assert!(codes.contains(&"ANA301"), "{codes:?}");
        // SYSTEM deadlocks immediately (one-sided sync on both events).
        assert!(codes.contains(&"ANA306"), "{codes:?}");
    }

    #[test]
    fn dead_hide_and_unreachable_definition_are_reported() {
        let a = analyze(
            "
            channel a, b, zap
            P = a -> P
            Q = (b -> Q) \\ {zap}
            ORPHAN = a -> STOP
            assert Q :[deadlock free]
            ",
        );
        let codes = codes(&a);
        assert!(codes.contains(&"ANA303"), "{codes:?}");
        assert!(codes.contains(&"ANA304"), "{codes:?}");
        // ORPHAN's diagnostic points at its definition line.
        let orphan = a
            .diagnostics
            .iter()
            .find(|d| d.code.0 == "ANA304" && d.message.contains("ORPHAN"))
            .unwrap();
        assert!(orphan.span.is_known());
        // P is also unreachable here.
        assert_eq!(
            a.diagnostics
                .iter()
                .filter(|d| d.code.0 == "ANA304")
                .count(),
            2
        );
    }

    #[test]
    fn one_sided_sync_over_a_productions_set_is_reported() {
        let a = analyze(
            "
            channel rec : {0..1}
            channel send : {0..1}
            P = rec?x -> send!x -> P
            Q = rec?x -> Q
            SYSTEM = P [| {| rec, send |} |] Q
            assert SYSTEM :[deadlock free]
            ",
        );
        // Both sides perform every `rec` event; only P performs `send`.
        let ana301: Vec<&str> = a
            .diagnostics
            .iter()
            .filter(|d| d.code.0 == "ANA301")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(ana301.len(), 2, "{:?}", a.diagnostics);
        assert!(ana301.iter().all(|m| m.contains("`send.")), "{ana301:?}");
    }

    #[test]
    fn reachability_follows_references() {
        let a = analyze(
            "
            channel a
            HELPER = a -> HELPER
            P = HELPER
            assert P :[deadlock free]
            ",
        );
        assert!(!codes(&a).contains(&"ANA304"), "{:?}", a.diagnostics);
    }

    #[test]
    fn no_unreachable_definition_without_assertions() {
        let a = analyze("channel a\nP = a -> P\nORPHAN = a -> ORPHAN\nF(n) = a -> F(n)\n");
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert!(a.definitions.iter().all(|d| d.reachable));
    }

    #[test]
    fn an_uncalled_parameterised_definition_is_unreachable() {
        let a = analyze(
            "
            channel a : {0..2}
            P = a.0 -> USED(1)
            USED(n) = a.n -> STOP
            ORPHAN(n) = a.n -> ORPHAN((n + 1) % 3)
            assert P :[deadlock free]
            ",
        );
        let ana304: Vec<&Diagnostic> = a
            .diagnostics
            .iter()
            .filter(|d| d.code.0 == "ANA304")
            .collect();
        assert_eq!(ana304.len(), 1, "{:?}", a.diagnostics);
        assert!(ana304[0].message.contains("`ORPHAN`"), "{:?}", ana304[0]);
        assert_eq!((ana304[0].span.line, ana304[0].span.col), (5, 13));
    }

    #[test]
    fn divergence_is_flagged_only_under_doomed_assertions() {
        let src_doomed = "
            channel a
            DIV = (a -> DIV) \\ {a}
            assert DIV :[divergence free]
            ";
        let src_fine = "
            channel a
            SPEC = a -> SPEC
            DIV = (a -> DIV) \\ {a}
            assert SPEC [T= DIV
            ";
        assert!(codes(&analyze(src_doomed)).contains(&"ANA305"));
        assert!(!codes(&analyze(src_fine)).contains(&"ANA305"));
    }

    #[test]
    fn fd_refinement_dooms_a_divergent_impl() {
        let a = analyze(
            "
            channel a
            SPEC = a -> SPEC
            DIV = (a -> DIV) \\ {a}
            assert SPEC [FD= DIV
            ",
        );
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code.0 == "ANA305")
            .expect("ANA305");
        assert!(d.message.contains("impl"), "{}", d.message);
        assert_eq!(a.assertions[0].processes.len(), 2);
        assert!(a.assertions[0].predicted_product.is_some());
    }

    #[test]
    fn stop_under_trace_refinement_stays_silent() {
        // STOP-terminated models under `[T=` are idiomatic: no ANA306.
        let a = analyze(
            "
            channel a
            SPEC = a -> SPEC
            ONCE = a -> STOP
            assert SPEC [T= ONCE
            ",
        );
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn compile_failure_degrades_to_ana300() {
        let src = "
            channel a, b
            P = a -> b -> P
            assert P :[deadlock free]
            ";
        let script = Script::parse(src).unwrap();
        let loaded = script.load().unwrap();
        let tiny = Checker {
            max_states: 1,
            ..Checker::new()
        };
        let a = analyze_script(script.module(), &loaded, &tiny, &ModelStore::new(), None);
        let codes: Vec<&str> = a.diagnostics.iter().map(|d| d.code.0).collect();
        assert!(codes.contains(&"ANA300"), "{codes:?}");
        let a = report_script(script.module(), &loaded, &tiny, &ModelStore::new(), None);
        assert!(a.assertions[0].processes[0].graph.is_none());
    }

    #[test]
    fn predicted_over_budget_fires_against_the_budget() {
        let a_src = "
            channel a, b
            P = a -> b -> P
            Q = b -> a -> Q
            SYS = P ||| Q
            assert SYS :[deadlock free]
            ";
        let script = Script::parse(a_src).unwrap();
        let loaded = script.load().unwrap();
        let a = analyze_script(
            script.module(),
            &loaded,
            &Checker::new(),
            &ModelStore::new(),
            Some(2),
        );
        let codes: Vec<&str> = a.diagnostics.iter().map(|d| d.code.0).collect();
        assert!(codes.contains(&"ANA307"), "{codes:?}");
        let a = report_script(
            script.module(),
            &loaded,
            &Checker::new(),
            &ModelStore::new(),
            Some(2),
        );
        let proc = &a.assertions[0].processes[0];
        assert!(proc.estimate_exact);
        assert!(proc.predicted_states > 2);
        assert_eq!(proc.parallel_count, 1);
    }

    #[test]
    fn analysis_is_cached_in_the_store() {
        let src = "
            channel a
            P = a -> P
            assert P :[deadlock free]
            ";
        let script = Script::parse(src).unwrap();
        let loaded = script.load().unwrap();
        let checker = Checker::new();
        let store = ModelStore::new();
        analyze_script(script.module(), &loaded, &checker, &store, None);
        assert_eq!(store.analysis_misses(), 1);
        assert_eq!(store.analysis_hits(), 0);
        // A check over the same store reuses the classification.
        loaded
            .check_with_store(&checker, &crate::CheckOptions::default(), &store)
            .unwrap();
        assert_eq!(store.analysis_misses(), 1);
        assert!(store.analysis_hits() >= 1);
    }

    #[test]
    fn only_operands_a_diagnostic_judges_are_classified() {
        // `analyze_script` compiles every operand but runs the SCC pass
        // only where ANA305/ANA306 read it: the implementation of `[FD=`.
        for (model, misses) in [("[T=", 0), ("[F=", 0), ("[FD=", 1)] {
            let src = format!(
                "
                channel a, b
                SPEC = a -> SPEC [] b -> SPEC
                IMPL = a -> b -> IMPL
                assert SPEC {model} IMPL
                "
            );
            let script = Script::parse(&src).unwrap();
            let loaded = script.load().unwrap();
            let store = ModelStore::new();
            let a = analyze_script(script.module(), &loaded, &Checker::new(), &store, None);
            assert!(a.diagnostics.is_empty(), "{model}: {:?}", a.diagnostics);
            assert_eq!(store.analysis_misses(), misses, "{model}");
            assert_eq!(store.misses(), 2, "{model}: both operands compiled");
        }
    }

    #[test]
    fn diagnostics_are_sorted_and_definitions_reported() {
        let a = analyze(
            "
            channel a, b, zap
            Z = (b -> Z) \\ {zap}
            A = (a -> A) \\ {zap}
            assert Z :[deadlock free]
            assert A :[deadlock free]
            ",
        );
        let lines: Vec<u32> = a.diagnostics.iter().map(|d| d.span.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        let z = a.definitions.iter().find(|d| d.name == "Z").unwrap();
        assert_eq!(z.alphabet, vec!["b".to_string()]);
        assert!(z.reachable);
    }

    /// The definitions `src` gets `CSP202` for, in report order.
    fn unguarded(src: &str) -> Vec<String> {
        analyze(src)
            .diagnostics
            .iter()
            .filter(|d| d.code == diag::UNGUARDED_RECURSION)
            .map(|d| d.message.split('`').nth(1).unwrap().to_string())
            .collect()
    }

    #[test]
    fn unguarded_recursion_is_flagged_once_per_definition_at_its_name() {
        assert_eq!(unguarded("channel a\nP = P [] a -> STOP\n"), ["P"]);
        assert_eq!(
            unguarded("channel a\nP = Q\nQ = P [] a -> STOP\n"),
            ["P", "Q"]
        );
        assert_eq!(unguarded("channel a\nP = SKIP ; P\n"), ["P"]);
        // Three instances of `P`, one finding at `P`'s name.
        let src = "channel a : {0..2}\nQ = P(0)\nP(n) = P((n + 1) % 3) [] a.n -> STOP\n";
        let a = analyze(src);
        let found: Vec<&Diagnostic> = a
            .diagnostics
            .iter()
            .filter(|d| d.code == diag::UNGUARDED_RECURSION)
            .collect();
        assert_eq!(found.len(), 1, "{:?}", a.diagnostics);
        assert!(found[0].message.contains("`P`"), "{:?}", found[0]);
        assert_eq!((found[0].span.line, found[0].span.col), (3, 1));
    }

    #[test]
    fn guarded_and_terminating_recursion_is_clean() {
        for src in [
            "channel a\nP = a -> P\n",
            "channel a\nP = (a -> SKIP) ; P\n",
            // A condition ends the recursion: `P(3)` reaches `STOP`.
            "P(n) = if n == 0 then STOP else P(n-1)\nQ = P(3)\n",
        ] {
            assert!(unguarded(src).is_empty(), "{src}");
        }
    }

    #[test]
    fn silent_termination_follows_choices_and_sequences() {
        assert_eq!(
            unguarded("channel a\nP = ((a -> SKIP) [] (SKIP ; SKIP)) ; P\n"),
            ["P"]
        );
        assert!(unguarded("channel a\nP = (SKIP ; (a -> SKIP)) ; P\n").is_empty());
    }

    #[test]
    fn silent_termination_follows_references() {
        let a = analyze("Q = SKIP\nP = Q ; P\nR = SKIP ; R\nP2 = Q2 ; P2\nQ2 = Q\n");
        let found: Vec<(&str, u32, u32)> = a
            .diagnostics
            .iter()
            .filter(|d| d.code == diag::UNGUARDED_RECURSION)
            .map(|d| {
                let name = d.message.split('`').nth(1).unwrap();
                (name, d.span.line, d.span.col)
            })
            .collect();
        assert_eq!(found, [("P", 2, 1), ("R", 3, 1), ("P2", 4, 1)]);
    }

    #[test]
    fn bound_names_shadow_definitions_only_within_their_scope() {
        assert!(unguarded("channel a\nP = let P = a -> STOP within P\n").is_empty());
        assert_eq!(
            unguarded("channel a\nP = (let P = a -> STOP within P) [] P\n"),
            ["P"]
        );
        assert!(unguarded("channel a\nP(P) = P [] a -> STOP\nQ = P(a -> STOP)\n").is_empty());
        assert!(unguarded(
            "channel a : {0..1}\nP = ([] P : {0..1} @ a.P -> STOP) [] a.0 -> STOP\n"
        )
        .is_empty());
        assert_eq!(
            unguarded("channel a : {0..1}\nP = ([] x : {0..1} @ P) [] a.0 -> STOP\n"),
            ["P"]
        );
    }

    #[test]
    fn one_sided_synchronisation_is_left_to_ana301() {
        let a = analyze("channel a, b\nP = a -> P\nQ = b -> Q\nSYS = P [| {a, b} |] Q\n");
        assert_eq!(codes(&a), ["ANA301", "ANA301"], "{:?}", a.diagnostics);
    }

    #[test]
    fn a_compile_failing_on_unguarded_recursion_is_reported_once() {
        // CSP202 reports the cycle; the impl gets no ANA300 for it.
        let a = analyze("channel a\nA = B [] a -> STOP\nB = A\nassert A [T= A\n");
        assert_eq!(codes(&a), ["CSP202", "CSP202"], "{:?}", a.diagnostics);
        // A finite unfolding nested past the firing bound is no recursion:
        // its ANA300 stands alone.
        let chain: String = (0..200)
            .map(|i| format!("P{i} = P{} [] a -> STOP\n", i + 1))
            .collect();
        let a = analyze(&format!(
            "channel a\n{chain}P200 = a -> STOP\nassert P0 [T= P0\n"
        ));
        assert_eq!(codes(&a), ["ANA300", "ANA300"], "{:?}", a.diagnostics);
        assert!(
            a.diagnostics[0]
                .message
                .contains("nests more than 128 definitions deep"),
            "{:?}",
            a.diagnostics[0]
        );
    }
}
