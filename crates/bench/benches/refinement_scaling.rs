//! Refinement-engine scaling on the OTA X.1373 model — the benchmark
//! behind the CI perf gate.
//!
//! The workload interleaves `k` independent copies of the paper's
//! VMG ∥ ECU update dialogue (5 states each, so the product has `5^k`
//! pairs) and checks it against a `RUN` specification, which forces a
//! full exploration. A second, failing workload adds a rogue component
//! whose event the specification forbids, to time parallel
//! counterexample reconstruction and to assert the parallel engine's
//! witness agrees with the serial one at every thread count.
//!
//! All three semantic models are swept: `[T=` and a `CHAOS`-spec variant
//! for `[F=`/`[FD=` (everything failures-refines `CHAOS`, so the product
//! is fully explored), with the rogue workload re-checked in both
//! failures-family models to pin their counterexamples across thread
//! counts. A normalisation probe separates the subset-construction wall
//! (`CheckStats::normalise_wall`) cold vs warm.
//!
//! Knobs (environment variables):
//!
//! * `REFINEMENT_BENCH_QUICK=1` — shrink to a smoke-test size.
//! * `REFINEMENT_BENCH_SCALE=k` — number of interleaved copies
//!   (default 7; quick mode 5).
//! * `REFINEMENT_BENCH_THREADS=1,2,4,8` — thread counts to sweep.
//! * `REFINEMENT_BENCH_REPS=n` — repetitions per point (min is kept).
//! * `REFINEMENT_BENCH_OUT=path` — where to write the JSON report
//!   (default `BENCH_refinement.json` in the working directory).
//! * `REFINEMENT_BENCH_MAX_RATIO=r` — perf gate: fail (exit 2) if
//!   `wall(max threads) / wall(1 thread)` exceeds `r`. Unset = no gate,
//!   which is the right default on single-core builders.
//! * `REFINEMENT_BENCH_SUPERVISE_MAX_RATIO=r` — overhead gate for the
//!   supervised-run probe: fail (exit 2) if running the warm workload
//!   through `service::supervisor` (journal + retry machinery) costs more
//!   than `r`× the bare sequential loop. Unset = no gate.
//!
//! Run directly: `cargo bench -p bench --bench refinement_scaling`.

use std::env;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use csp::{Definitions, EventSet, Process};
use fdrlite::{CheckRequest, CheckStats, Checker, ModelStore, RefinementModel, Verdict};
use ota::system::OtaSystem;

/// The assertion tag of a model, as in `[T=`.
fn tag(model: RefinementModel) -> &'static str {
    match model {
        RefinementModel::Traces => "T",
        RefinementModel::Failures => "F",
        RefinementModel::FailuresDivergences => "FD",
    }
}

struct Workload {
    defs: Definitions,
    spec: Process,
    impl_: Process,
    /// Expected product size for the passing variant, `None` for failing.
    expect_pairs: Option<u64>,
}

/// Check `workload` in `model` through `store` on `threads` workers,
/// without budgets.
fn check(
    store: &ModelStore,
    workload: &Workload,
    model: RefinementModel,
    threads: usize,
) -> Result<(Verdict, CheckStats), fdrlite::CheckError> {
    let request = CheckRequest {
        model,
        spec: &workload.spec,
        impl_: &workload.impl_,
        defs: &workload.defs,
        threads,
        options: fdrlite::CheckOptions::UNBOUNDED,
    };
    store.check(&Checker::new(), &request)
}

/// `k` interleaved copies of the OTA update dialogue against `RUN` over
/// its communication alphabet; passes, exploring all `5^k` pairs.
fn passing_workload(scale: u32) -> Workload {
    let system = OtaSystem::build().expect("OTA model builds");
    let comm: EventSet = system.comm_set().expect("communication alphabet");
    let mut defs = system.definitions().clone();
    let copies: Vec<Process> = (0..scale).map(|_| system.system().clone()).collect();
    let impl_ = Process::interleave_all(copies);
    let spec = fdrlite::properties::run(&mut defs, "BENCH_RUN", &comm);
    Workload {
        defs,
        spec,
        impl_,
        expect_pairs: Some(5u64.pow(scale)),
    }
}

/// `k` interleaved copies against `CHAOS` over the communication
/// alphabet. `CHAOS` is refined by everything in the stable-failures and
/// FD models (it may refuse anything), so the check passes only after
/// exploring all `5^k` pairs — the failures-family analogue of
/// [`passing_workload`]. The OTA dialogue hides nothing, so it is
/// divergence-free and the `[FD=` divergence phase is a pure pass.
fn chaos_workload(scale: u32) -> Workload {
    let system = OtaSystem::build().expect("OTA model builds");
    let comm: EventSet = system.comm_set().expect("communication alphabet");
    let mut defs = system.definitions().clone();
    let copies: Vec<Process> = (0..scale).map(|_| system.system().clone()).collect();
    let impl_ = Process::interleave_all(copies);
    let spec = fdrlite::properties::chaos(&mut defs, "BENCH_CHAOS", &comm);
    Workload {
        defs,
        spec,
        impl_,
        expect_pairs: Some(5u64.pow(scale)),
    }
}

/// The passing workload plus a rogue component that injects an event the
/// specification forbids; fails with a short witness inside a large
/// product, timing parallel counterexample reconstruction.
fn failing_workload(scale: u32) -> Workload {
    let mut system = OtaSystem::build().expect("OTA model builds");
    let comm: EventSet = system.comm_set().expect("communication alphabet");
    let first = comm.iter().next().expect("non-empty alphabet");
    let (ab, defs_mut) = system.parts_mut();
    let forged = ab.intern("send.forgedReport");
    let _ = defs_mut;
    let mut defs = system.definitions().clone();
    let mut copies: Vec<Process> = (0..scale).map(|_| system.system().clone()).collect();
    copies.push(Process::prefix(
        first,
        Process::prefix(forged, Process::Stop),
    ));
    let impl_ = Process::interleave_all(copies);
    let spec = fdrlite::properties::run(&mut defs, "BENCH_RUN", &comm);
    Workload {
        defs,
        spec,
        impl_,
        expect_pairs: None,
    }
}

struct Point {
    threads: usize,
    wall_us_min: u128,
    wall_us_mean: u128,
    stats: CheckStats,
    pass: bool,
    cex_len: Option<usize>,
}

/// Run `workload` under `model` at `threads` for `reps` repetitions; keep
/// the fastest. Each measurement goes through a pre-warmed [`ModelStore`],
/// so compilation, normalisation and (for `[FD=`) the cached
/// `GraphAnalysis` divergence bits are off the clock — the sweep times the
/// product exploration the way `autocsp check --threads` dispatches it.
fn measure(workload: &Workload, model: RefinementModel, threads: usize, reps: u32) -> Point {
    let store = ModelStore::new();
    let run = || check(&store, workload, model, threads).expect("refinement succeeds");
    let _ = run(); // warm: compile + normalise + analysis now cached

    let mut best: Option<(u128, Verdict, CheckStats)> = None;
    let mut total_us: u128 = 0;
    for _ in 0..reps {
        let started = Instant::now();
        let (verdict, stats) = run();
        let wall = started.elapsed().as_micros();
        total_us += wall;
        if best.as_ref().is_none_or(|(b, _, _)| wall < *b) {
            best = Some((wall, verdict, stats));
        }
    }
    let (wall_us_min, verdict, stats) = best.expect("at least one repetition");
    if let Some(expect) = workload.expect_pairs {
        assert_eq!(
            stats.pairs_discovered, expect,
            "passing workload must explore the full product"
        );
    }
    Point {
        threads,
        wall_us_min,
        wall_us_mean: total_us / u128::from(reps.max(1)),
        cex_len: verdict.counterexample().map(|c| c.trace().len()),
        pass: verdict.is_pass(),
        stats,
    }
}

struct StoreProbe {
    cold_compile_us: u128,
    warm_compile_us: u128,
    cold_explore_us: u128,
    warm_explore_us: u128,
    cold_misses: u64,
    warm_hits: u64,
    warm_misses: u64,
    verdicts_agree: bool,
}

/// Run the workload twice through one [`fdrlite::ModelStore`]: the cold run
/// compiles everything, the warm run must be served entirely from cache
/// (zero misses, near-zero compile wall) with a verbatim-equal verdict.
fn probe_store(workload: &Workload, threads: usize) -> StoreProbe {
    let store = ModelStore::new();
    let run = || {
        check(&store, workload, RefinementModel::Traces, threads)
            .expect("store refinement succeeds")
    };
    let (cold_verdict, cold) = run();
    let (warm_verdict, warm) = run();
    let probe = StoreProbe {
        cold_compile_us: cold.compile_wall.as_micros(),
        warm_compile_us: warm.compile_wall.as_micros(),
        cold_explore_us: cold.wall.as_micros(),
        warm_explore_us: warm.wall.as_micros(),
        cold_misses: cold.store_misses,
        warm_hits: warm.store_hits,
        warm_misses: warm.store_misses,
        verdicts_agree: cold_verdict == warm_verdict,
    };
    assert!(probe.verdicts_agree, "warm verdict must equal cold");
    assert!(probe.warm_hits > 0, "warm run must hit the store");
    assert_eq!(probe.warm_misses, 0, "warm run must compile nothing");
    probe
}

struct NormProbe {
    cold_normalise_us: u128,
    warm_normalise_us: u128,
    cold_compile_us: u128,
}

/// Separate the subset-construction wall from the rest of compilation:
/// a cold `[F=` run pays `CheckStats::normalise_wall` once, and a warm run
/// through the same store must report it as zero (normal form served from
/// cache, no rebuild).
fn probe_normalise(workload: &Workload) -> NormProbe {
    let store = ModelStore::new();
    let run =
        || check(&store, workload, RefinementModel::Failures, 1).expect("refinement succeeds");
    let (_, cold) = run();
    let (_, warm) = run();
    let probe = NormProbe {
        cold_normalise_us: cold.normalise_wall.as_micros(),
        warm_normalise_us: warm.normalise_wall.as_micros(),
        cold_compile_us: cold.compile_wall.as_micros(),
    };
    assert!(
        probe.cold_normalise_us <= probe.cold_compile_us,
        "normalise_wall is a carve-out of compile_wall"
    );
    assert_eq!(
        probe.warm_normalise_us, 0,
        "warm run must serve the normal form from cache"
    );
    probe
}

struct DiskProbe {
    cold_compile_us: u128,
    warm_compile_us: u128,
    cold_normalise_us: u128,
    warm_normalise_us: u128,
    cold_disk_misses: u64,
    warm_disk_hits: u64,
    warm_disk_misses: u64,
    verdicts_agree: bool,
}

/// Run the workload through two *fresh* [`fdrlite::ModelStore`]s sharing
/// one on-disk cache: the second store starts with an empty in-process
/// cache, so everything it serves cheaply must come from disk — the
/// cross-invocation analogue of [`probe_store`]. The check runs in the
/// `[FD=` model so the current-version normal-form encoding round-trips
/// through disk; the warm run must be served entirely from disk (zero
/// disk misses, zero normalisation wall) with a verbatim verdict.
fn probe_disk(workload: &Workload, threads: usize) -> DiskProbe {
    let dir = env::temp_dir().join(format!("fdrlite-bench-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |cache: &Arc<fdrlite::PersistentCache>| {
        let store = ModelStore::new();
        store.set_persist(fdrlite::PersistConfig {
            cache: Arc::clone(cache),
            checkpoint_every: None,
            resume: fdrlite::ResumePolicy::Off,
        });
        check(
            &store,
            workload,
            RefinementModel::FailuresDivergences,
            threads,
        )
        .expect("disk-backed refinement succeeds")
    };
    let cold_cache = Arc::new(fdrlite::PersistentCache::open(&dir).expect("cache opens"));
    let (cold_verdict, cold) = run(&cold_cache);
    let cold_disk_misses = cold_cache.disk_misses();
    let warm_cache = Arc::new(fdrlite::PersistentCache::open(&dir).expect("cache reopens"));
    let (warm_verdict, warm) = run(&warm_cache);
    let probe = DiskProbe {
        cold_compile_us: cold.compile_wall.as_micros(),
        warm_compile_us: warm.compile_wall.as_micros(),
        cold_normalise_us: cold.normalise_wall.as_micros(),
        warm_normalise_us: warm.normalise_wall.as_micros(),
        cold_disk_misses,
        warm_disk_hits: warm_cache.disk_hits(),
        warm_disk_misses: warm_cache.disk_misses(),
        verdicts_agree: cold_verdict == warm_verdict,
    };
    let _ = std::fs::remove_dir_all(&dir);
    assert!(probe.verdicts_agree, "disk-warm verdict must equal cold");
    assert!(probe.warm_disk_hits > 0, "warm run must hit the disk cache");
    assert_eq!(probe.warm_disk_misses, 0, "warm run must compile nothing");
    assert_eq!(
        probe.warm_normalise_us, 0,
        "warm run must load the normal form, not rebuild it"
    );
    probe
}

struct AnalysisProbe {
    wall_us: u128,
    predicted_states: u64,
    actual_states: u64,
    estimate_exact: bool,
    divergence_free: bool,
    deadlock_free: bool,
    warm_wall_us: u128,
    warm_hits: u64,
}

/// Time the semantic analysis pass on the workload's implementation — the
/// same computation `autocsp analyze` and the `check` prelude run — and
/// validate its accuracy: the compositional state prediction must bound
/// the states the compile really discovered, and a repeat call must be
/// served from the store's analysis cache.
fn probe_analysis(workload: &Workload) -> AnalysisProbe {
    let checker = Checker::new();
    let store = fdrlite::ModelStore::new();

    let started = Instant::now();
    let analysis = store
        .graph_analysis(&checker, &workload.impl_, &workload.defs)
        .expect("impl compiles under default bounds");
    let mut arena = csp::TermArena::new();
    let root = arena.intern(&workload.impl_);
    let est = csp::analysis::estimate(&mut arena, root, &workload.defs, 1_000_000);
    let wall_us = started.elapsed().as_micros();

    let warm_started = Instant::now();
    let warm = store
        .graph_analysis(&checker, &workload.impl_, &workload.defs)
        .expect("warm analysis");
    let warm_wall_us = warm_started.elapsed().as_micros();
    assert!(
        Arc::ptr_eq(&analysis, &warm),
        "warm analysis must be cached"
    );

    let probe = AnalysisProbe {
        wall_us,
        predicted_states: est.predicted_states(),
        actual_states: analysis.state_count() as u64,
        estimate_exact: est.is_exact(),
        divergence_free: analysis.is_divergence_free(),
        deadlock_free: analysis.is_deadlock_free(),
        warm_wall_us,
        warm_hits: store.analysis_hits(),
    };
    assert!(
        !probe.estimate_exact || probe.predicted_states >= probe.actual_states,
        "exact prediction {} must bound actual {}",
        probe.predicted_states,
        probe.actual_states
    );
    assert!(probe.warm_hits > 0, "repeat analysis must hit the cache");
    probe
}

struct SuperviseProbe {
    jobs: u32,
    bare_us: u128,
    supervised_us: u128,
    /// supervised wall over bare wall — the price of catch_unwind, retry
    /// accounting and the per-job journal rewrite.
    overhead_ratio: f64,
    retries: u64,
    verdicts_agree: bool,
}

/// Run `jobs` identical warm checks bare, then through the supervisor with
/// its full machinery engaged — panic isolation, a journal rewritten after
/// every job, and a chaos-style transient failure on every other job (with
/// a zero-delay retry schedule, so the probe times bookkeeping, not
/// sleeping). The supervised loop must report the same verdicts; the gate
/// bounds how much its scaffolding may cost.
fn probe_supervise(workload: &Workload, jobs: u32) -> SuperviseProbe {
    use fdrlite::supervisor::{JobError, JobReport, JobStatus};
    use service::supervisor as sup;

    let store = ModelStore::new();
    // Warm the store first: both loops then measure per-check dispatch,
    // not one-off compilation.
    let (expected, _) =
        check(&store, workload, RefinementModel::Traces, 1).expect("warm-up refinement succeeds");
    let expected_pass = expected.is_pass();

    let started = Instant::now();
    let mut bare_agree = true;
    for _ in 0..jobs {
        let (v, _) =
            check(&store, workload, RefinementModel::Traces, 1).expect("bare refinement succeeds");
        bare_agree &= v == expected;
    }
    let bare_us = started.elapsed().as_micros().max(1);

    let dir = env::temp_dir().join(format!("fdrlite-bench-supervise-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    let mut diags = Vec::new();
    let mut journal = service::journal::ServiceJournal::open(dir.join("bench.journal"), &mut diags);
    let supervisor = sup::Supervisor::new(sup::SupervisorConfig {
        retry: fdrlite::supervisor::RetryPolicy {
            max_attempts: 2,
            base_delay_ms: 0,
            max_delay_ms: 0,
            seed: 7,
        },
        run_timeout_ms: None,
    });
    // The jobs stand in for manifest entries; the runner below checks the
    // in-memory workload, so the script path only feeds the content key.
    let job_list: Vec<service::ResolvedJob> = (0..jobs)
        .map(|i| service::ResolvedJob {
            name: format!("bench-{i}"),
            kind: cspm::manifest::JobKind::Check,
            script: dir.join("bench.csp"),
            spec: None,
            corpus: None,
            assertion: None,
            threads: 1,
            max_states: None,
            timeout_ms: None,
            chaos: None,
        })
        .collect();
    let started = Instant::now();
    let outcome = supervisor.run(&job_list, &mut journal, |job, ctx| {
        // Even-numbered jobs fail their first attempt.
        if job.name.ends_with(['0', '2', '4', '6', '8']) && ctx.attempt == 1 {
            return Err(JobError::Transient("injected (bench chaos)".into()));
        }
        let (v, _) = check(&store, workload, RefinementModel::Traces, 1)
            .map_err(|e| JobError::Permanent(e.to_string()))?;
        Ok(JobReport {
            status: if v.is_pass() {
                JobStatus::Passed
            } else {
                JobStatus::Refuted
            },
            lines: Vec::new(),
            interrupted: false,
        })
    });
    let supervised_us = started.elapsed().as_micros().max(1);
    journal.remove();
    let _ = std::fs::remove_dir_all(&dir);

    let supervised_agree = outcome.jobs.iter().all(|j| {
        j.status
            == if expected_pass {
                JobStatus::Passed
            } else {
                JobStatus::Refuted
            }
    });
    let probe = SuperviseProbe {
        jobs,
        bare_us,
        supervised_us,
        overhead_ratio: supervised_us as f64 / bare_us as f64,
        retries: outcome.retries,
        verdicts_agree: bare_agree && supervised_agree && outcome.jobs.len() == jobs as usize,
    };
    assert!(probe.verdicts_agree, "supervised verdicts must match bare");
    assert!(!outcome.any_failed(), "no bench job may fail");
    assert_eq!(probe.retries, u64::from(jobs.div_ceil(2)), "chaos retries");
    probe
}

fn env_u32(name: &str, default: u32) -> u32 {
    env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> ExitCode {
    // `cargo bench` passes harness flags such as `--bench`; this binary
    // is configured entirely through the environment, so ignore argv.
    let quick = env::var("REFINEMENT_BENCH_QUICK").is_ok_and(|v| v != "0");
    let scale = env_u32("REFINEMENT_BENCH_SCALE", if quick { 5 } else { 7 });
    let reps = env_u32("REFINEMENT_BENCH_REPS", if quick { 2 } else { 3 });
    let threads: Vec<usize> = env::var("REFINEMENT_BENCH_THREADS")
        .unwrap_or_else(|_| "1,2,4,8".to_owned())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    let out_path =
        env::var("REFINEMENT_BENCH_OUT").unwrap_or_else(|_| "BENCH_refinement.json".to_owned());

    eprintln!(
        "refinement_scaling: scale={scale} (5^{scale} pairs), reps={reps}, threads={threads:?}"
    );

    let sweep = |workload: &Workload, model: RefinementModel, expect_pass: bool| -> Vec<Point> {
        threads
            .iter()
            .map(|&t| {
                let p = measure(workload, model, t, reps);
                assert_eq!(
                    p.pass,
                    expect_pass,
                    "[{}=: workload verdict flipped at {t} threads",
                    tag(model)
                );
                eprintln!(
                    "  [{:>2}= {} threads={:<2} wall={:>9} µs  cex_len={:?}",
                    tag(model),
                    if expect_pass { "pass" } else { "fail" },
                    t,
                    p.wall_us_min,
                    p.cex_len
                );
                p
            })
            .collect()
    };
    // Acceptance: every thread count reports the same verdict and the same
    // counterexample length as the serial engine.
    let assert_cex_agree = |points: &[Point], tag: &str| -> bool {
        let cex_lens: Vec<Option<usize>> = points.iter().map(|p| p.cex_len).collect();
        let agree = cex_lens.windows(2).all(|w| w[0] == w[1]);
        assert!(
            agree,
            "[{tag}=: counterexample lengths diverged: {cex_lens:?}"
        );
        agree
    };

    let passing = passing_workload(scale);
    let failing = failing_workload(scale);
    let chaos = chaos_workload(scale);

    let pass_points = sweep(&passing, RefinementModel::Traces, true);
    let fail_points = sweep(&failing, RefinementModel::Traces, false);
    let pass_f_points = sweep(&chaos, RefinementModel::Failures, true);
    let fail_f_points = sweep(&failing, RefinementModel::Failures, false);
    let pass_fd_points = sweep(&chaos, RefinementModel::FailuresDivergences, true);
    let fail_fd_points = sweep(&failing, RefinementModel::FailuresDivergences, false);

    let cex_agree = assert_cex_agree(&fail_points, "T")
        && assert_cex_agree(&fail_f_points, "F")
        && assert_cex_agree(&fail_fd_points, "FD");

    let store = probe_store(&passing, threads.iter().copied().max().unwrap_or(1));
    eprintln!(
        "  store cold compile={} µs ({} misses), warm compile={} µs ({} hits)",
        store.cold_compile_us, store.cold_misses, store.warm_compile_us, store.warm_hits
    );

    let disk = probe_disk(&passing, 1);
    eprintln!(
        "  disk  cold compile={} µs ({} misses), warm compile={} µs ({} hits, norm={} µs)",
        disk.cold_compile_us,
        disk.cold_disk_misses,
        disk.warm_compile_us,
        disk.warm_disk_hits,
        disk.warm_normalise_us
    );

    let norm = probe_normalise(&chaos);
    eprintln!(
        "  norm  cold={} µs of {} µs compile, warm={} µs",
        norm.cold_normalise_us, norm.cold_compile_us, norm.warm_normalise_us
    );

    let analysis = probe_analysis(&passing);
    eprintln!(
        "  analyze wall={} µs  predicted ≤ {} state(s) vs {} actual, warm={} µs",
        analysis.wall_us, analysis.predicted_states, analysis.actual_states, analysis.warm_wall_us
    );

    let supervise = probe_supervise(&passing, if quick { 20 } else { 50 });
    eprintln!(
        "  supervise {} job(s): bare={} µs, supervised={} µs ({:.2}x, {} retries)",
        supervise.jobs,
        supervise.bare_us,
        supervise.supervised_us,
        supervise.overhead_ratio,
        supervise.retries
    );

    // `wall(max threads) / wall(1 thread)` per model, < 1.0 = speedup.
    let scaling_ratio = |points: &[Point]| -> Option<(usize, f64)> {
        let base = points.iter().find(|p| p.threads == 1);
        let peak = points.iter().max_by_key(|p| p.threads);
        match (base, peak) {
            (Some(b), Some(p)) if b.wall_us_min > 0 && p.threads > 1 => {
                Some((p.threads, p.wall_us_min as f64 / b.wall_us_min as f64))
            }
            _ => None,
        }
    };
    let ratios: Vec<(&str, Option<(usize, f64)>)> = vec![
        ("T", scaling_ratio(&pass_points)),
        ("F", scaling_ratio(&pass_f_points)),
        ("FD", scaling_ratio(&pass_fd_points)),
    ];

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"bench\":\"refinement_scaling\",\"quick\":{quick},\"scale\":{scale},\
         \"pairs\":{},\"reps\":{reps},\"cex_agree\":{cex_agree}",
        5u64.pow(scale)
    );
    for (tag, ratio) in &ratios {
        if let Some((_, r)) = ratio {
            let key = match *tag {
                "T" => "peak_over_serial_ratio".to_owned(),
                t => format!("peak_over_serial_ratio_{}", t.to_lowercase()),
            };
            let _ = write!(json, ",\"{key}\":{r:.4}");
        }
    }
    let _ = write!(
        json,
        ",\"normalise\":{{\"cold_normalise_us\":{},\"warm_normalise_us\":{},\
         \"cold_compile_us\":{}}}",
        norm.cold_normalise_us, norm.warm_normalise_us, norm.cold_compile_us
    );
    let _ = write!(
        json,
        ",\"store\":{{\"cold_compile_us\":{},\"warm_compile_us\":{},\
         \"cold_explore_us\":{},\"warm_explore_us\":{},\"cold_misses\":{},\
         \"warm_hits\":{},\"warm_misses\":{},\"verdicts_agree\":{}}}",
        store.cold_compile_us,
        store.warm_compile_us,
        store.cold_explore_us,
        store.warm_explore_us,
        store.cold_misses,
        store.warm_hits,
        store.warm_misses,
        store.verdicts_agree
    );
    let _ = write!(
        json,
        ",\"disk\":{{\"cold_compile_us\":{},\"warm_compile_us\":{},\
         \"cold_normalise_us\":{},\"warm_normalise_us\":{},\
         \"cold_disk_misses\":{},\"warm_disk_hits\":{},\"warm_disk_misses\":{},\
         \"verdicts_agree\":{}}}",
        disk.cold_compile_us,
        disk.warm_compile_us,
        disk.cold_normalise_us,
        disk.warm_normalise_us,
        disk.cold_disk_misses,
        disk.warm_disk_hits,
        disk.warm_disk_misses,
        disk.verdicts_agree
    );
    let _ = write!(
        json,
        ",\"analyze\":{{\"wall_us\":{},\"warm_wall_us\":{},\
         \"predicted_states\":{},\"actual_states\":{},\"estimate_exact\":{},\
         \"divergence_free\":{},\"deadlock_free\":{},\"warm_hits\":{}}}",
        analysis.wall_us,
        analysis.warm_wall_us,
        analysis.predicted_states,
        analysis.actual_states,
        analysis.estimate_exact,
        analysis.divergence_free,
        analysis.deadlock_free,
        analysis.warm_hits
    );
    let _ = write!(
        json,
        ",\"supervise\":{{\"jobs\":{},\"bare_us\":{},\"supervised_us\":{},\
         \"overhead_ratio\":{:.4},\"retries\":{},\"verdicts_agree\":{}}}",
        supervise.jobs,
        supervise.bare_us,
        supervise.supervised_us,
        supervise.overhead_ratio,
        supervise.retries,
        supervise.verdicts_agree
    );
    for (key, points) in [
        ("pass", &pass_points),
        ("fail", &fail_points),
        ("pass_f", &pass_f_points),
        ("fail_f", &fail_f_points),
        ("pass_fd", &pass_fd_points),
        ("fail_fd", &fail_fd_points),
    ] {
        let _ = write!(json, ",\"{key}\":[");
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"threads\":{},\"wall_us_min\":{},\"wall_us_mean\":{},\
                 \"cex_len\":{},\"stats\":{}}}",
                p.threads,
                p.wall_us_min,
                p.wall_us_mean,
                p.cex_len
                    .map_or_else(|| "null".to_owned(), |l| l.to_string()),
                p.stats.to_json()
            );
        }
        json.push(']');
    }
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write `{out_path}`: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out_path}");

    if let Some(max_ratio) = env::var("REFINEMENT_BENCH_MAX_RATIO")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        for (tag, ratio) in &ratios {
            match ratio {
                Some((peak_threads, r)) if *r > max_ratio => {
                    eprintln!(
                        "PERF GATE FAILED: [{tag}= at {peak_threads} threads ran {r:.2}x \
                         the 1-thread wall (limit {max_ratio:.2}x)"
                    );
                    return ExitCode::from(2);
                }
                Some((_, r)) => {
                    eprintln!("perf gate ok: [{tag}= ratio {r:.2}x ≤ {max_ratio:.2}x");
                }
                None => eprintln!(
                    "perf gate skipped for [{tag}=: need a 1-thread baseline and a \
                     >1-thread point"
                ),
            }
        }
    }

    if let Some(max_ratio) = env::var("REFINEMENT_BENCH_SUPERVISE_MAX_RATIO")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        if supervise.overhead_ratio > max_ratio {
            eprintln!(
                "SUPERVISE GATE FAILED: the supervisor's retry + journal machinery cost \
                 {:.2}x the bare checks (limit {max_ratio:.2}x)",
                supervise.overhead_ratio
            );
            return ExitCode::from(2);
        }
        eprintln!(
            "supervise gate ok: {:.2}x ≤ {max_ratio:.2}x",
            supervise.overhead_ratio
        );
    }
    ExitCode::SUCCESS
}
