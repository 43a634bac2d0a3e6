//! Seeded end-to-end benchmark of the auto-csp checking pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig1_capl|explore_parallel|service_mix> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its inputs from the seed, sizes the work to about
//! `--seconds` of measurement on a 2-core machine, checks every verdict
//! against the one its generator planted, and prints one JSON object as
//! the last line of stdout. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the same operations with spans and reports the
//! per-layer breakdown. `--flip-expected K` inverts the planted verdict
//! of operation `K`, for proving the gate fails the run.
//! See `perfbench/DESIGN.md` for the workloads and metrics.

mod gen;
mod pipeline;
mod service_mix;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use trace::{num, Tracer};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Fig1,
    Explore,
    Service,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "fig1_capl" => Some(Workload::Fig1),
            "explore_parallel" => Some(Workload::Explore),
            "service_mix" => Some(Workload::Service),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Fig1 => "fig1_capl",
            Workload::Explore => "explore_parallel",
            Workload::Service => "service_mix",
        }
    }

    /// Operations per second of `--seconds` (measured on a 2-core x86-64
    /// VM at `--seconds 25`), so a run does a fixed, seed-determined amount
    /// of work that lasts about `--seconds` there. A `service_mix` job
    /// costs more the more jobs its server has seen, so its rate holds at
    /// 25 s only.
    fn ops_per_second(self) -> f64 {
        match self {
            Workload::Fig1 => 25.0,
            Workload::Explore => 30.0,
            Workload::Service => 112.0,
        }
    }
}

/// Percentiles need ten samples beyond p90.
const MIN_OPS: usize = 100;

/// One timed operation: start to verdict.
pub struct Op {
    pub ms: f64,
    pub ok: bool,
    /// The input class, for the per-class latency summaries.
    pub class: &'static str,
    pub input: String,
    pub verdict: String,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    flip: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("flag `{}` needs a value", pair[0]));
        };
        let key = key.as_str();
        if ![
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--flip-expected",
        ]
        .contains(&key)
        {
            return Err(format!("unknown flag `{key}`"));
        }
        flags.insert(key, value);
    }
    let need = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing `{k}`"))
    };
    let workload = need("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let bad = |k: &str| format!("bad value for `{k}`");
    let seconds: f64 = need("--seconds")?.parse().map_err(|_| bad("--seconds"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(bad("--seconds"));
    }
    Ok(Args {
        workload,
        seed: need("--seed")?.parse().map_err(|_| bad("--seed"))?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err(bad("--trace")),
        },
        flip: flags
            .get("--flip-expected")
            .map(|v| v.parse().map_err(|_| bad("--flip-expected")))
            .transpose()?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A fresh directory for this run's files, inside the checkout.
fn run_dir(workload: Workload) -> Result<PathBuf, String> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = PathBuf::from(".perfbench").join(format!(
        "{}-{}-{nanos:x}",
        workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    Ok(dir)
}

/// The run directory is left in place: deleting a `service_mix` run's
/// thousands of files made every following run on the same disk up to
/// 35% slower for minutes (see `DESIGN.md`).
fn run(args: &Args) -> Result<ExitCode, String> {
    let dir = run_dir(args.workload)?;
    let outcome = measure(args, &dir)?;
    Ok(report(args, &outcome))
}

fn measure(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let ops = MIN_OPS.max((args.seconds * args.workload.ops_per_second()).round() as usize);
    let mut rng = gen::Rng::new(args.seed);
    let gen_start = Instant::now();
    Ok(match args.workload {
        Workload::Fig1 | Workload::Explore => {
            let generate = |rng: &mut gen::Rng, n: usize| {
                if args.workload == Workload::Fig1 {
                    pipeline::fig1_inputs(rng, n)
                } else {
                    pipeline::explore_inputs(rng, n)
                }
            };
            let mut inputs = generate(&mut rng, ops);
            if let Some(k) = args.flip {
                pipeline::flip(&mut inputs, k)?;
            }
            let warmup = generate(&mut gen::Rng::new(!args.seed), ops / 20);
            eprintln!(
                "generated {ops} inputs in {:.3} s",
                gen_start.elapsed().as_secs_f64()
            );
            // Untimed warm-up on other inputs, so the timed operations do
            // not include the machine ramping up from the build.
            pipeline::run(args.workload, &warmup, &mut Vec::new());
            let start = Instant::now();
            if args.trace {
                let mut tracer = Tracer::new(true);
                let (ops, paired) = pipeline::run_paired(args.workload, &inputs, &mut tracer);
                let extra = BTreeMap::from([("fdrlite.store_hit_ratio", paired.store_hit_ratio)]);
                Outcome {
                    wall_s: start.elapsed().as_secs_f64(),
                    setup_s: f64::NAN,
                    traced: Some(Traced {
                        tracer,
                        ops: ops.len(),
                        failed: 0,
                        overhead_share: paired.overhead_share,
                        extra,
                    }),
                    ops,
                }
            } else {
                let mut setup = Vec::with_capacity(ops);
                let ops = pipeline::run(args.workload, &inputs, &mut setup);
                Outcome {
                    ops,
                    wall_s: start.elapsed().as_secs_f64(),
                    setup_s: median(setup),
                    traced: None,
                }
            }
        }
        Workload::Service => {
            let plan = service_mix::plan(&mut rng, ops, dir, args.flip)?;
            eprintln!(
                "generated {} jobs in {:.3} s",
                plan.jobs(),
                gen_start.elapsed().as_secs_f64()
            );
            service_mix::run(&plan, dir, args.trace)?
        }
    })
}

/// What one workload run produced.
pub struct Outcome {
    /// The run's operations; on a traced run, those of the traced pass.
    pub ops: Vec<Op>,
    pub wall_s: f64,
    pub setup_s: f64,
    pub traced: Option<Traced>,
}

/// What a traced run measured for the per-layer metrics.
pub struct Traced {
    pub tracer: Tracer,
    /// Operations the layer times are divided by.
    pub ops: usize,
    /// Operations that failed in a pass other than the one in
    /// [`Outcome::ops`] (a replay).
    pub failed: usize,
    /// Traced minus untraced wall of the same work, over untraced.
    pub overhead_share: f64,
    /// Layer metrics the workload computes itself.
    pub extra: BTreeMap<&'static str, f64>,
}

/// Median of set-up samples.
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Nearest-rank percentile; failed operations sort after every success.
/// Zero for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        diag::json_string(name),
        num(value),
        diag::json_string(unit)
    )
}

fn report(args: &Args, out: &Outcome) -> ExitCode {
    let mut inputs = gen::Digest::new();
    let mut verdicts = gen::Digest::new();
    for op in &out.ops {
        inputs.add(&op.input);
        verdicts.add(&op.verdict);
    }
    let attempted = out.ops.len();
    let mut failed = out.ops.iter().filter(|op| !op.ok).count();
    for (k, op) in out.ops.iter().enumerate().filter(|(_, op)| !op.ok) {
        if k < 5 || failed < 10 {
            eprintln!("FAILED op {k}: {}", op.verdict);
        }
    }
    class_summary(&out.ops);
    let mut gates_ok = true;
    let metrics: Vec<String> = if let Some(traced) = &out.traced {
        if traced.failed > 0 {
            eprintln!(
                "FAILED: {} replayed operation(s) had wrong verdicts",
                traced.failed
            );
        }
        failed = (failed + traced.failed).min(attempted);
        let tracer = &traced.tracer;
        let layers = layer_metrics(traced);
        let coverage = layers
            .iter()
            .find(|(n, _, _)| *n == "trace.coverage")
            .map_or(0.0, |m| m.1);
        if coverage < 0.95 {
            eprintln!("GATE: trace coverage {coverage:.3} < 0.95");
            gates_ok = false;
        }
        let path = std::path::Path::new(".perfbench").join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match std::fs::write(&path, tracer.to_jsonl()) {
            Ok(()) => eprintln!("wrote {} spans to {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
        layers.iter().map(|(n, v, u)| metric(n, *v, u)).collect()
    } else {
        let mut lat: Vec<f64> = out
            .ops
            .iter()
            .map(|op| if op.ok { op.ms } else { f64::INFINITY })
            .collect();
        lat.sort_by(f64::total_cmp);
        let correct = out.ops.iter().filter(|op| op.ok).count();
        vec![
            metric("verdicts_per_s", correct as f64 / out.wall_s, "1/s"),
            metric("verdict_p50_ms", percentile(&lat, 0.50), "ms"),
            metric("verdict_p90_ms", percentile(&lat, 0.90), "ms"),
            metric("setup_s", out.setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    println!(
        "workload={} seed={} ops={attempted} inputs_digest={} verdicts_digest={} wall_s={:.3}",
        args.workload.name(),
        args.seed,
        inputs.hex(),
        verdicts.hex(),
        out.wall_s
    );
    let correct = failed == 0 && gates_ok;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Share and latency of each input class, so the class boundaries can be
/// kept away from p50 and p90.
fn class_summary(ops: &[Op]) {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for op in ops {
        by_class.entry(op.class).or_default().push(op.ms);
    }
    for (class, mut ms) in by_class {
        ms.sort_by(f64::total_cmp);
        eprintln!(
            "class {class:>9}: {:5.1}% of ops, p50 {:8.2} ms, p90 {:8.2} ms",
            100.0 * ms.len() as f64 / ops.len() as f64,
            percentile(&ms, 0.5),
            percentile(&ms, 0.9)
        );
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer the
/// workload bypasses reads zero.
fn layer_metrics(traced: &Traced) -> Vec<(&'static str, f64, &'static str)> {
    let tracer = &traced.tracer;
    let totals = tracer.totals();
    let ops = traced.ops.max(1) as f64;
    let us = |k: &str| totals.get(k).map_or(0.0, |t| t.us);
    let calls = |k: &str| totals.get(k).map_or(0, |t| t.calls) as f64;
    let sum = |k: &str, c: &str| {
        totals
            .get(k)
            .and_then(|t| t.counters.get(c))
            .copied()
            .unwrap_or(0.0)
    };
    let per_op_ms = |k: &str| us(k) / 1e3 / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let layer_us: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.layer != "bench" && s.trace_id < service_mix::REPLAY_ID)
        .map(|s| s.dur_us)
        .sum();
    let x = |k: &str| traced.extra.get(k).copied().unwrap_or(0.0);
    let mut out = vec![
        ("capl.parse_ms", per_op_ms("capl.parse"), "ms"),
        ("candb.parse_ms", per_op_ms("candb.parse"), "ms"),
        ("lint.ms", per_op_ms("lint.lint"), "ms"),
        (
            "translator.translate_ms",
            per_op_ms("translator.translate"),
            "ms",
        ),
        (
            "translator.cspm_kb",
            ratio(
                sum("translator.translate", "cspm_bytes") / 1024.0,
                calls("translator.translate"),
            ),
            "KiB",
        ),
        ("cspm.parse_ms", per_op_ms("cspm.parse"), "ms"),
        ("cspm.elaborate_ms", per_op_ms("cspm.elaborate"), "ms"),
        ("cspm.analyze_ms", per_op_ms("cspm.analyze"), "ms"),
        ("fdrlite.compile_ms", per_op_ms("fdrlite.compile"), "ms"),
        (
            "fdrlite.compile_states",
            sum("fdrlite.compile", "states") / ops,
            "count",
        ),
        (
            "fdrlite.compile_us_per_state",
            ratio(us("fdrlite.compile"), sum("fdrlite.compile", "states")),
            "us",
        ),
        ("fdrlite.normalise_ms", per_op_ms("fdrlite.normalise"), "ms"),
        (
            "fdrlite.norm_nodes",
            sum("fdrlite.normalise", "norm_nodes") / ops,
            "count",
        ),
        ("fdrlite.explore_ms", per_op_ms("fdrlite.explore"), "ms"),
        (
            "fdrlite.expansions_per_pair",
            ratio(
                sum("fdrlite.explore", "expansions"),
                sum("fdrlite.explore", "pairs"),
            ),
            "ratio",
        ),
        (
            "fdrlite.busy_share",
            ratio(
                sum("fdrlite.explore", "cpu_busy_us"),
                sum("fdrlite.explore", "lane_us"),
            ),
            "ratio",
        ),
        (
            "fdrlite.rewalk_expansions",
            sum("fdrlite.explore", "rewalk_expansions") / ops,
            "count",
        ),
        (
            "fdrlite.store_hit_ratio",
            x("fdrlite.store_hit_ratio"),
            "ratio",
        ),
        ("service.submit_ms", x("service.submit_ms"), "ms"),
        ("service.wait_ms", x("service.wait_ms"), "ms"),
        ("service.overhead_ms", x("service.overhead_ms"), "ms"),
        (
            "service.dedup_hit_ratio",
            x("service.dedup_hit_ratio"),
            "ratio",
        ),
        ("service.exec_ms", x("service.exec_ms"), "ms"),
        (
            "faults.conform_traces_per_s",
            x("faults.conform_traces_per_s"),
            "1/s",
        ),
        ("persist.cache_kb", x("persist.cache_kb"), "KiB"),
        ("service.journal_kb", x("service.journal_kb"), "KiB"),
    ];
    out.extend(service_mix::CLASS_METRICS.map(|name| (name, x(name), "ms")));
    out.push(("trace.coverage", ratio(layer_us, us("bench.op")), "ratio"));
    out.push(("trace.overhead_share", traced.overhead_share, "ratio"));
    out
}
