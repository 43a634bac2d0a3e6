//! The in-process `autocsp translate` + `autocsp check` path, one cold
//! operation at a time: the `fig1_capl` and `explore_parallel` workloads.

use std::time::Instant;

use diag::{Diagnostic, Severity};
use fdrlite::{CheckStats, Checker, ModelStore};
use translator::{TranslateConfig, Translator};

use crate::gen::{self, CaplApp, Expect, Model, Rng};
use crate::sys;
use crate::trace::Tracer;
use crate::{Op, Workload};

/// One generated check: a CSPm script (or a CAPL app that translates to
/// one) plus the verdict its generator planted.
pub enum Input {
    Capl(CaplApp),
    Script {
        source: String,
        spec: &'static str,
        impl_: &'static str,
        expect: Expect,
    },
}

impl Input {
    fn text(&self) -> String {
        match self {
            Input::Capl(app) => format!("{}{}{}", app.capl, app.dbc, app.spec),
            Input::Script { source, .. } => source.clone(),
        }
    }

    fn expect(&self) -> &Expect {
        match self {
            Input::Capl(app) => &app.expect,
            Input::Script { expect, .. } => expect,
        }
    }
}

/// `fig1_capl`: CAPL apps with 32–128 handlers (stratified), one in four
/// with a handler that answers with the wrong report.
pub fn fig1_inputs(rng: &mut Rng, ops: usize) -> Vec<Input> {
    let sizes = gen::stratified(rng, ops);
    let defective = gen::exact_mix(rng, ops, &[3, 1]);
    sizes
        .iter()
        .zip(&defective)
        .map(|(u, &bad)| {
            let handlers = 32 + (u * 97.0) as usize;
            Input::Capl(gen::capl_app(rng, handlers, bad == 1))
        })
        .collect()
}

/// `explore_parallel`: five interleaved dialogues of 400–4000 product
/// pairs (log-stratified), one in three with an intruder relaying one
/// dialogue; the three refinement models in equal shares, one check in
/// four with a planted forbidden event or τ-loop. The dialogue count is
/// fixed because it, more than the size, sets how often the parallel
/// engine re-expands a pair.
pub fn explore_inputs(rng: &mut Rng, ops: usize) -> Vec<Input> {
    let sizes = gen::stratified(rng, ops);
    let models = gen::exact_mix(rng, ops, &[1, 1, 1]);
    let failing = gen::exact_mix(rng, ops, &[3, 1]);
    let relayed = gen::exact_mix(rng, ops, &[2, 1]);
    let (lo, hi) = (400_f64, 4000_f64);
    sizes
        .iter()
        .zip(models.iter().zip(failing.iter().zip(&relayed)))
        .map(|(u, (&m, (&fail, &intruders)))| {
            let target = (lo.ln() + u * (hi.ln() - lo.ln())).exp();
            let comps = gen::dialogues_near(rng, target, (5, 5), intruders);
            let model = Model::ALL[m];
            let spec = match model {
                Model::Traces => "RUN",
                Model::Failures => "CHAOS",
                Model::FailuresDivergences => "NRUN",
            };
            let (defect, impl_) = if fail == 1 {
                (Some(gen::plant(rng, &comps, model)), "BAD")
            } else {
                (None, "SYSTEM")
            };
            let mut source = gen::dialogue_script(&comps, defect);
            source.push_str(&format!("assert {}\n", model.assertion(impl_)));
            let expect = match defect {
                Some(d) => Expect::Fail(gen::defect_cex(d)),
                None => Expect::Pass {
                    pairs: Some(gen::product_states(&comps)),
                },
            };
            Input::Script {
                source,
                spec,
                impl_,
                expect,
            }
        })
        .collect()
}

/// Set-up the program does before checking on these workloads: checker,
/// store and translator configuration. It takes well under a microsecond,
/// so one sample is the mean of a batch of 64, and one batch is timed
/// after every operation: the median then spans the whole run, as the
/// other metrics do, instead of one instant of it.
fn setup_sample() -> f64 {
    let start = Instant::now();
    for _ in 0..64 {
        std::hint::black_box((
            Checker::new(),
            ModelStore::new(),
            TranslateConfig::ecu("ECU"),
        ));
    }
    start.elapsed().as_secs_f64() / 64.0
}

/// Call `f(id, input, threads)` on every input in order. On one thread,
/// successive operations are pinned to alternate CPUs (see `sys`); the
/// 2-thread engine needs both CPUs and is left to the scheduler.
fn each<T>(
    workload: Workload,
    inputs: &[Input],
    mut f: impl FnMut(u64, &Input, usize) -> T,
) -> Vec<T> {
    let threads = if workload == Workload::Explore { 2 } else { 1 };
    let cpus = if threads == 1 {
        sys::allowed()
    } else {
        Vec::new()
    };
    let out = inputs
        .iter()
        .enumerate()
        .map(|(k, input)| {
            if cpus.len() > 1 {
                sys::pin(&[cpus[k % cpus.len()]]);
            }
            f(k as u64, input, threads)
        })
        .collect();
    if cpus.len() > 1 {
        sys::pin(&cpus);
    }
    out
}

/// Run every input in order, untraced; `setup` receives one set-up sample
/// per operation.
pub fn run(workload: Workload, inputs: &[Input], setup: &mut Vec<f64>) -> Vec<Op> {
    let mut off = Tracer::new(false);
    each(workload, inputs, |id, input, threads| {
        let (op, _) = operation(&mut off, id, input, threads);
        setup.push(setup_sample());
        op
    })
}

/// What the traced run measured besides its spans.
pub struct Paired {
    /// Traced minus untraced operation wall, over untraced.
    pub overhead_share: f64,
    /// `CheckStats` store hits over hits plus misses, untraced.
    pub store_hit_ratio: f64,
}

/// The traced run: every operation twice, untraced and traced, the order
/// alternating from one operation to the next so that drift cancels out
/// of the overhead. Each run of an operation starts cold, so the two do
/// identical work. An operation fails if either run of it failed.
pub fn run_paired(workload: Workload, inputs: &[Input], tracer: &mut Tracer) -> (Vec<Op>, Paired) {
    let mut off = Tracer::new(false);
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let (mut hits, mut misses) = (0, 0);
    let ops = each(workload, inputs, |id, input, threads| {
        let mut plain = None;
        let mut traced = None;
        for traced_turn in [id % 2 == 1, id % 2 == 0] {
            if traced_turn {
                traced = Some(operation(tracer, id, input, threads).0);
            } else {
                plain = Some(operation(&mut off, id, input, threads));
            }
        }
        let (mut op, store) = plain.expect("untraced run");
        let traced = traced.expect("traced run");
        untraced_ms += op.ms;
        traced_ms += traced.ms;
        hits += store.0;
        misses += store.1;
        op.ok &= traced.ok;
        op
    });
    let paired = Paired {
        overhead_share: (traced_ms - untraced_ms) / untraced_ms,
        store_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
    };
    (ops, paired)
}

/// One operation, start to verdict, judged against its plant; also the
/// `CheckStats` store hits and misses of its check.
fn operation(tr: &mut Tracer, id: u64, input: &Input, threads: usize) -> (Op, (u64, u64)) {
    let start = Instant::now();
    let outcome = match input {
        Input::Capl(app) => translate_and_check(tr, id, app),
        Input::Script {
            source,
            spec,
            impl_,
            ..
        } => check(tr, id, source, threads, spec, impl_),
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    tr.record(id, "bench", "op", start, Vec::new());
    let (verdict, ok, store) = match outcome {
        Ok((verdict, stats)) => {
            let ok = matches_plant(input.expect(), &verdict, stats.as_ref());
            let store = stats.map_or((0, 0), |s| (s.store_hits, s.store_misses));
            (verdict, ok, store)
        }
        Err(e) => (format!("ERROR {e}"), false, (0, 0)),
    };
    let op = Op {
        ms,
        ok,
        class: match input.expect() {
            Expect::Pass { .. } => "pass",
            Expect::Fail(_) => "fail",
        },
        input: input.text(),
        verdict,
    };
    (op, store)
}

fn matches_plant(expect: &Expect, verdict: &str, stats: Option<&CheckStats>) -> bool {
    if verdict != expect.label() {
        return false;
    }
    match expect {
        Expect::Pass { pairs: Some(pairs) } => stats.is_some_and(|s| s.pairs_discovered == *pairs),
        _ => true,
    }
}

fn gate(diagnostics: &[Diagnostic]) -> Result<(), String> {
    match diagnostics.iter().find(|d| d.severity == Severity::Error) {
        Some(d) => Err(format!("lint error {}: {}", d.code, d.message)),
        None => Ok(()),
    }
}

/// `autocsp translate` then `autocsp check`, in process.
fn translate_and_check(
    tr: &mut Tracer,
    id: u64,
    app: &CaplApp,
) -> Result<(String, Option<CheckStats>), String> {
    let program = tr
        .time(id, "capl", "parse", || {
            capl::parse(&app.capl).inspect(|p| {
                std::hint::black_box(capl::analyze(p));
            })
        })
        .map_err(|e| e.to_string())?;
    let db = tr
        .time(id, "candb", "parse", || candb::parse(&app.dbc))
        .map_err(|e| e.to_string())?;
    let lints = tr.time(id, "lint", "lint", || {
        let mut all = lint::lint_program(&program);
        all.extend(lint::cross_check(&program, &db));
        all.extend(lint::lint_database(&db));
        all
    });
    gate(&lints)?;
    let out = tr
        .time(id, "translator", "translate", || {
            Translator::new(TranslateConfig::ecu("ECU"))
                .with_database(db)
                .translate(&program)
        })
        .map_err(|e| e.to_string())?;
    tr.count(&[("cspm_bytes", out.script.len() as f64)]);
    let source = format!(
        "{}\n{}assert SPEC [T= {}\n",
        out.script, app.spec, out.entry
    );
    check(tr, id, &source, 1, "SPEC", &out.entry)
}

/// `autocsp check [--threads N]` on one single-assertion script, with a
/// cold store. Traced, the operands are compiled and the spec normalised
/// by direct `ModelStore` calls first, so those layers are timed where
/// they run rather than inside whichever later call first missed.
fn check(
    tr: &mut Tracer,
    id: u64,
    source: &str,
    threads: usize,
    spec: &str,
    impl_: &str,
) -> Result<(String, Option<CheckStats>), String> {
    let script = tr
        .time(id, "cspm", "parse", || cspm::Script::parse(source))
        .map_err(|e| e.to_string())?;
    let lints = tr.time(id, "lint", "lint", || lint::lint_module(script.module()));
    gate(&lints)?;
    let loaded = tr
        .time(id, "cspm", "elaborate", || script.load())
        .map_err(|e| e.to_string())?;
    let checker = Checker::new();
    let store = ModelStore::new();
    if tr.on() {
        let operands = [(spec.to_owned(), impl_.to_owned())];
        compile_operands(tr, id, &checker, &store, &loaded, &operands)?;
    }
    let analysis = tr.time(id, "cspm", "analyze", || {
        cspm::analyze::analyze_script(script.module(), &loaded, &checker, &store, None)
    });
    gate(&analysis.diagnostics)?;
    let results = explore(tr, id, &checker, &store, &loaded, threads)?;
    let [result] = results.as_slice() else {
        return Err(format!("expected one assertion, got {}", results.len()));
    };
    let outcome = (render(result, &loaded), result.stats.clone());
    // Freeing the compiled models and the elaborated script is part of
    // the operation; timing it keeps the layers' coverage complete.
    tr.time(id, "fdrlite", "drop", || {
        drop((results, store, loaded, script))
    });
    Ok(outcome)
}

/// `PASS`, `FAIL <counterexample>` or `INCONCLUSIVE`.
pub fn render(result: &cspm::AssertionResult, loaded: &cspm::LoadedScript) -> String {
    if let Some(cex) = result.verdict.counterexample() {
        format!("FAIL {}", cex.display(loaded.alphabet()))
    } else if result.verdict.is_pass() {
        "PASS".to_owned()
    } else {
        "INCONCLUSIVE".to_owned()
    }
}

/// Compile every distinct operand of `operands` (`(spec, impl)` pairs,
/// implementations first) and normalise every distinct spec through
/// `store` by direct calls. Each call that built something is timed as
/// its own span; one the store served from cache is not recorded, so the
/// compile and normalise spans time real work only.
pub fn compile_operands(
    tr: &mut Tracer,
    id: u64,
    checker: &Checker,
    store: &ModelStore,
    loaded: &cspm::LoadedScript,
    operands: &[(String, String)],
) -> Result<(), String> {
    let defs = loaded.definitions();
    let process = |name: &str| {
        loaded
            .process(name)
            .ok_or_else(|| format!("no process `{name}`"))
    };
    let mut impls: Vec<&str> = operands.iter().map(|(_, i)| i.as_str()).collect();
    let mut specs: Vec<&str> = operands.iter().map(|(s, _)| s.as_str()).collect();
    impls.sort_unstable();
    impls.dedup();
    specs.sort_unstable();
    specs.dedup();
    for name in impls.iter().chain(&specs) {
        let p = process(name)?;
        let misses = store.misses();
        let start = Instant::now();
        let compiled = store.compile(checker, p, defs).map_err(|e| e.to_string())?;
        if store.misses() > misses {
            let states = compiled.lts().state_count() as f64;
            tr.record(id, "fdrlite", "compile", start, vec![("states", states)]);
        }
    }
    for name in &specs {
        let p = process(name)?;
        let misses = store.misses();
        let start = Instant::now();
        let norm = store
            .normalised(checker, p, defs)
            .map_err(|e| e.to_string())?;
        if store.misses() > misses {
            let nodes = norm.node_count() as f64;
            tr.record(
                id,
                "fdrlite",
                "normalise",
                start,
                vec![("norm_nodes", nodes)],
            );
        }
    }
    Ok(())
}

/// `check_with_store` over every assertion, timed as the explore span
/// with the engines' counters summed across assertions.
pub fn explore(
    tr: &mut Tracer,
    id: u64,
    checker: &Checker,
    store: &ModelStore,
    loaded: &cspm::LoadedScript,
    threads: usize,
) -> Result<Vec<cspm::AssertionResult>, String> {
    let options = cspm::CheckOptions {
        threads,
        collect_stats: true,
        max_states: None,
        max_wall_ms: None,
    };
    let start = Instant::now();
    let results = loaded
        .check_with_store(checker, &options, store)
        .map_err(|e| e.to_string())?;
    let mut c = [0.0_f64; 5];
    for s in results.iter().filter_map(|r| r.stats.as_ref()) {
        c[0] += s.pairs_discovered as f64;
        c[1] += s.expansions as f64;
        c[2] += s.rewalk_expansions as f64;
        c[3] += s.cpu_busy.as_secs_f64() * 1e6;
        c[4] += s.threads.max(1) as f64 * s.wall.as_secs_f64() * 1e6;
    }
    tr.record(
        id,
        "fdrlite",
        "explore",
        start,
        vec![
            ("pairs", c[0]),
            ("expansions", c[1]),
            ("rewalk_expansions", c[2]),
            ("cpu_busy_us", c[3]),
            ("lane_us", c[4]),
        ],
    );
    Ok(results)
}

/// Invert the planted verdict of operation `k`.
pub fn flip(inputs: &mut [Input], k: usize) -> Result<(), String> {
    let input = inputs
        .get_mut(k)
        .ok_or("--flip-expected is past the last operation")?;
    let expect = match input {
        Input::Capl(app) => &mut app.expect,
        Input::Script { expect, .. } => expect,
    };
    *expect = match expect {
        Expect::Pass { .. } => Expect::Fail("(flipped)".to_owned()),
        Expect::Fail(_) => Expect::Pass { pairs: None },
    };
    Ok(())
}
