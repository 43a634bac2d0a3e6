//! `service_mix`: two closed-loop clients submit `jobs.toml` manifests over
//! HTTP to one `service::server::Server` with two in-process workers, one
//! engine thread per job, and a persistent cache in a fresh state
//! directory. The server lives for the whole run, as a deployed service
//! does, so whatever grows with the jobs it has seen (its journal, its
//! workers' model stores, the TIME_WAIT sockets its close-first
//! connections leave behind) shows in the run's latencies and peak RSS.
//!
//! The traffic follows an assumed CI pipeline; its shares are unverified
//! (see `DESIGN.md`). Each pipeline run submits the model it changed as a
//! fresh manifest of one job per requirement, re-checks one unchanged
//! model under its own job names, and checks its test-bench trace log
//! against the changed model. One pipeline run in [`PIPELINES`] is
//! retried verbatim.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use diag::json::{self, Value};
use fdrlite::{Checker, ModelStore};
use service::exec::{ExecConfig, Executor};
use service::http::client_request;
use service::server::{LauncherKind, Server, ServerConfig};
use service::ResolvedJob;

use crate::gen::{self, Dialogue, Rng};
use crate::pipeline;
use crate::sys;
use crate::trace::Tracer;
use crate::{median, percentile, Op, Outcome, Traced};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// What every model is checked against, `(spec, model)`, one job each:
/// five requirements, as CI submits one job per Table III requirement
/// (R01–R05).
const REQUIREMENTS: [(&str, &str); 5] = [
    ("RUN", "T"),
    ("CHAOS", "T"),
    ("CHAOS", "F"),
    ("NRUN", "F"),
    ("NRUN", "FD"),
];
/// Pipeline runs per block, one of which is retried verbatim.
const PIPELINES: usize = 4;
/// One changed model in this many carries a planted defect.
const DEFECTIVE: usize = 4;
/// Server starts timed per run; all but the last are stopped unused.
const SETUP_SAMPLES: usize = 9;
/// A run first waits until fewer sockets than this are in TIME_WAIT, so
/// an earlier run's connections do not slow this one (see `sys`).
const TIME_WAIT_LIMIT: usize = 4096;
/// Trace ids of the traced replay start here, so coverage counts only
/// the spans of HTTP operations.
pub const REPLAY_ID: u64 = 1 << 48;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Fresh,
    Repeated,
    Resubmit,
    Conform,
}

impl Class {
    const ALL: [Class; 4] = [
        Class::Fresh,
        Class::Repeated,
        Class::Resubmit,
        Class::Conform,
    ];

    fn name(self) -> &'static str {
        match self {
            Class::Fresh => "fresh",
            Class::Repeated => "repeated",
            Class::Resubmit => "resubmit",
            Class::Conform => "conform",
        }
    }

    /// The per-layer metric names of this class's p50 and p90.
    fn metrics(self) -> (&'static str, &'static str) {
        let k = 2 * Class::ALL.iter().position(|&c| c == self).expect("a class");
        (CLASS_METRICS[k], CLASS_METRICS[k + 1])
    }
}

/// Per-class latency metrics, in [`Class::ALL`] order, p50 then p90.
pub const CLASS_METRICS: [&str; 8] = [
    "service.fresh_p50_ms",
    "service.fresh_p90_ms",
    "service.repeated_p50_ms",
    "service.repeated_p90_ms",
    "service.resubmit_p50_ms",
    "service.resubmit_p90_ms",
    "service.conform_p50_ms",
    "service.conform_p90_ms",
];

#[derive(Clone)]
struct Job {
    name: String,
    /// Script path relative to the run directory.
    script: String,
    /// The assertion (check) or spec (conform) the job names.
    target: String,
    corpus: Option<String>,
    /// `(spec, impl)` operand names of every assertion in the script.
    operands: Vec<(String, String)>,
    traces: usize,
    expect: Vec<String>,
}

#[derive(Clone)]
struct Submission {
    class: Class,
    manifest: String,
    jobs: Vec<Job>,
}

/// Each client's submissions, in order.
pub struct Plan {
    clients: Vec<Vec<Submission>>,
}

impl Plan {
    pub fn jobs(&self) -> usize {
        self.clients.iter().flatten().map(|s| s.jobs.len()).sum()
    }
}

fn write(dir: &Path, rel: &str, text: &str) -> Result<(), String> {
    let path = dir.join(rel);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

fn manifest(jobs: &[Job]) -> String {
    let mut out = String::new();
    for j in jobs {
        let _ = writeln!(out, "[[job]]\nname = \"{}\"", j.name);
        match &j.corpus {
            None => {
                let _ = writeln!(
                    out,
                    "kind = \"check\"\nscript = \"{}\"\nassertion = \"{}\"\n",
                    j.script, j.target
                );
            }
            Some(corpus) => {
                let _ = writeln!(
                    out,
                    "kind = \"conform\"\nscript = \"{}\"\nspec = \"{}\"\ncorpus = \"{corpus}\"\n",
                    j.script, j.target
                );
            }
        }
    }
    out
}

/// A model's script path and its dialogues, for generating corpora.
type ModelFile = (String, Vec<Dialogue>);

fn submission(class: Class, jobs: Vec<Job>) -> Submission {
    Submission {
        class,
        manifest: manifest(&jobs),
        jobs,
    }
}

/// A changed model (3–5 interleaved dialogues of 100–2000 states) and its
/// check jobs, one per requirement. A `defective` model has a forged event
/// planted, and every requirement refutes it with the plant's
/// counterexample; otherwise every requirement passes. Returns the jobs
/// and the model, whose `SYSTEM` is honest either way.
fn changed_model(
    rng: &mut Rng,
    dir: &Path,
    tag: &str,
    size: f64,
    defective: bool,
) -> Result<(Vec<Job>, ModelFile), String> {
    let target = (100_f64.ln() + size * (2000_f64.ln() - 100_f64.ln())).exp();
    let intruders = rng.range(0, 1);
    let comps = gen::dialogues_near(rng, target, (3, 5), intruders);
    let defect = defective.then(|| gen::plant(rng, &comps, gen::Model::Traces));
    let impl_ = if defective { "BAD" } else { "SYSTEM" };
    let mut source = gen::dialogue_script(&comps, defect);
    let script = format!("scripts/{tag}.csp");
    let operands: Vec<(String, String)> = REQUIREMENTS
        .iter()
        .map(|&(spec, _)| (spec.to_owned(), impl_.to_owned()))
        .collect();
    let mut jobs = Vec::new();
    for (k, (spec, model)) in REQUIREMENTS.iter().enumerate() {
        let assertion = format!("{spec} [{model}= {impl_}");
        let _ = writeln!(source, "assert {assertion}");
        let expect = match defect {
            Some(d) => vec![
                format!("assert {assertion}  ...  FAIL"),
                format!("  {}", gen::defect_cex(d)),
            ],
            None => vec![format!("assert {assertion}  ...  PASS")],
        };
        jobs.push(Job {
            name: format!("{tag}-a{k}"),
            script: script.clone(),
            target: assertion,
            corpus: None,
            operands: operands.clone(),
            traces: 0,
            expect,
        });
    }
    write(dir, &script, &source)?;
    Ok((jobs, (script, comps)))
}

/// A `conform` job: a fresh corpus of 40–120 random walks of the model's
/// `SYSTEM`, one corpus in four with 1–3 walks that end in a skipped
/// message.
fn conform_job(rng: &mut Rng, dir: &Path, tag: &str, model: &ModelFile) -> Result<Job, String> {
    let (script, comps) = model;
    let traces = rng.range(40, 120);
    let violations = if rng.range(0, 3) == 0 {
        rng.range(1, 3)
    } else {
        0
    };
    let mut bad_at: Vec<usize> = (0..traces).collect();
    rng.shuffle(&mut bad_at);
    bad_at.truncate(violations);
    let mut jsonl = String::new();
    let mut failing = Vec::new();
    for t in 0..traces {
        let steps = rng.range(8, 30);
        let (events, cex) = gen::corpus_trace(rng, comps, steps, bad_at.contains(&t));
        let quoted: Vec<String> = events.iter().map(|e| format!("\"{e}\"")).collect();
        let _ = writeln!(
            jsonl,
            "{{\"id\":\"t{t}\",\"events\":[{}]}}",
            quoted.join(",")
        );
        if let Some(cex) = cex {
            failing.push(format!("trace t{t}  ...  FAIL"));
            failing.push(format!("  {cex}"));
        }
    }
    let corpus = format!("corpora/{tag}");
    write(dir, &format!("{corpus}/traces.jsonl"), &jsonl)?;
    let outcome = if violations > 0 { "FAIL" } else { "PASS" };
    failing.push(format!(
        "conformance SYSTEM [T= corpus  ...  {outcome}: {traces} trace(s), {} conformant, {violations} refuted, 0 unknown-event",
        traces - violations
    ));
    Ok(Job {
        name: tag.to_owned(),
        script: script.clone(),
        target: "SYSTEM".to_owned(),
        corpus: Some(corpus),
        operands: Vec::new(),
        traces,
        expect: failing,
    })
}

/// Generate both clients' submissions for at least `ops` jobs and write
/// their scripts and corpora under `dir`. `flip` inverts the expected
/// verdict of job `k`.
pub fn plan(rng: &mut Rng, ops: usize, dir: &Path, flip: Option<usize>) -> Result<Plan, String> {
    let per_pipeline = 2 * REQUIREMENTS.len() + 1;
    let per_block = (PIPELINES + 1) * per_pipeline;
    let blocks = ops.div_ceil(CLIENTS * per_block);
    let clients = (0..CLIENTS)
        .map(|c| client_plan(rng, dir, &format!("c{c}"), blocks))
        .collect::<Result<Vec<_>, _>>()?;
    let mut plan = Plan { clients };
    if let Some(k) = flip {
        let job = plan
            .clients
            .iter_mut()
            .flatten()
            .flat_map(|s| s.jobs.iter_mut())
            .nth(k)
            .ok_or("--flip-expected is past the last job")?;
        job.expect = vec!["(flipped)".to_owned()];
    }
    Ok(plan)
}

/// One client's pipeline runs: `blocks` blocks of [`PIPELINES`] runs, each
/// a fresh manifest, a repeated one and a conform job, with a verbatim
/// retry of one of the client's earlier runs after a seeded run of each
/// block. Repeats and retries refer to this client's own earlier, already
/// finished submissions.
fn client_plan(
    rng: &mut Rng,
    dir: &Path,
    prefix: &str,
    blocks: usize,
) -> Result<Vec<Submission>, String> {
    let runs = blocks * PIPELINES;
    let mut sizes = gen::stratified(rng, runs).into_iter();
    let defective = gen::exact_mix(rng, runs, &[DEFECTIVE - 1, 1]);
    let mut subs: Vec<Submission> = Vec::new();
    let mut fresh_at: Vec<usize> = Vec::new();
    for block in 0..blocks {
        let retry_after = rng.range(0, PIPELINES - 1);
        for p in 0..PIPELINES {
            let n = block * PIPELINES + p;
            let tag = format!("{prefix}-p{n}");
            let size = sizes.next().expect("one size per pipeline run");
            let (jobs, model) = changed_model(rng, dir, &tag, size, defective[n] == 1)?;
            fresh_at.push(subs.len());
            subs.push(submission(Class::Fresh, jobs));
            let source = &subs[fresh_at[rng.range(0, fresh_at.len() - 1)]];
            let jobs = source
                .jobs
                .iter()
                .enumerate()
                .map(|(a, j)| Job {
                    name: format!("{tag}-r{a}"),
                    ..j.clone()
                })
                .collect();
            subs.push(submission(Class::Repeated, jobs));
            let jobs = vec![conform_job(rng, dir, &format!("{tag}-c"), &model)?];
            subs.push(submission(Class::Conform, jobs));
            if p == retry_after {
                // A pipeline run is its three consecutive submissions,
                // starting with the fresh one.
                let from = fresh_at[rng.range(0, fresh_at.len() - 1)];
                for k in from..from + 3 {
                    subs.push(Submission {
                        class: Class::Resubmit,
                        ..subs[k].clone()
                    });
                }
            }
        }
    }
    Ok(subs)
}

fn server_config(state: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        state_dir: state.to_path_buf(),
        cache_dir: None,
        scripts_root: state
            .parent()
            .expect("state dir inside the run dir")
            .to_path_buf(),
        queue_cap: 64,
        heartbeat_ms: 100,
        checkpoint_every: None,
        retry: fdrlite::supervisor::RetryPolicy::default(),
        default_threads: 1,
        default_max_states: None,
        default_timeout_ms: Some(60_000),
        launcher: LauncherKind::InProcess {
            die_after_states: None,
        },
    }
}

/// Start a server on a fresh state directory and wait until both workers
/// have registered.
fn start(state: &Path) -> Result<(Server, f64), String> {
    let begin = Instant::now();
    let server = Server::start(server_config(state))?;
    while server.orchestrator().health().workers.len() < WORKERS {
        if begin.elapsed() > Duration::from_secs(30) {
            return Err("workers did not register within 30 s".to_owned());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok((server, begin.elapsed().as_secs_f64()))
}

/// Stop a server and wait until its detached in-process worker threads
/// have exited (the process is back to `threads` threads).
fn stop(server: Server, threads: usize) {
    server.shutdown();
    // Shutdown drains through the engines' global interrupt flag; clear it
    // so later in-process checks run to completion.
    fdrlite::clear_interrupt();
    let begin = Instant::now();
    while thread_count() > threads && begin.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:")?.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Wait (untimed, at most 40 s) until an earlier run's TIME_WAIT sockets
/// have expired.
fn drain_time_wait() {
    let begin = Instant::now();
    let first = sys::time_wait_sockets();
    let mut left = first;
    while left >= TIME_WAIT_LIMIT && begin.elapsed() < Duration::from_secs(40) {
        std::thread::sleep(Duration::from_millis(250));
        left = sys::time_wait_sockets();
    }
    eprintln!(
        "TIME_WAIT sockets: {first} at start, {left} after waiting {:.1} s",
        begin.elapsed().as_secs_f64()
    );
}

/// One client's closed loop: submit, then long-poll each job in order.
fn client(addr: &str, subs: &[Submission], first_id: u64, tr: &mut Tracer) -> Vec<Op> {
    let mut ops = Vec::new();
    for (n, sub) in subs.iter().enumerate() {
        let id = first_id + n as u64;
        let begin = Instant::now();
        let accepted = client_request(addr, "POST", "/v1/jobs", &sub.manifest);
        tr.record(id, "service", "submit", begin, Vec::new());
        let ids: Result<Vec<String>, String> = match accepted {
            Ok((202, body)) => json::parse(&body)
                .ok()
                .and_then(|v| {
                    v.get("jobs")?
                        .as_array()?
                        .iter()
                        .map(|j| j.get("id").and_then(Value::as_str).map(str::to_owned))
                        .collect::<Option<Vec<_>>>()
                })
                .filter(|ids| ids.len() == sub.jobs.len())
                .ok_or_else(|| format!("malformed accept body {body}")),
            Ok((status, body)) => Err(format!("HTTP {status}: {body}")),
            Err(e) => Err(e),
        };
        for (k, job) in sub.jobs.iter().enumerate() {
            let verdict = match &ids {
                Ok(ids) => {
                    let t = Instant::now();
                    let got =
                        client_request(addr, "GET", &format!("/v1/jobs/{}?wait=120", ids[k]), "");
                    tr.record(id, "service", "wait", t, Vec::new());
                    match got {
                        Ok((200, body)) => job_lines(&body),
                        Ok((status, body)) => Err(format!("HTTP {status}: {body}")),
                        Err(e) => Err(e),
                    }
                }
                Err(e) => Err(e.clone()),
            };
            let ms = begin.elapsed().as_secs_f64() * 1e3;
            let (ok, verdict) = match verdict {
                Ok(lines) => (lines == job.expect, lines.join("\n")),
                Err(e) => (false, format!("ERROR {e}")),
            };
            ops.push(Op {
                ms,
                ok,
                class: sub.class.name(),
                input: format!("{}{}", sub.manifest, job.name),
                verdict,
            });
        }
        tr.record(id, "bench", "op", begin, Vec::new());
    }
    ops
}

fn job_lines(body: &str) -> Result<Vec<String>, String> {
    let view = json::parse(body).map_err(|e| format!("bad job JSON: {e:?}"))?;
    let state = view.get("state").and_then(Value::as_str).unwrap_or("?");
    if state != "done" {
        return Err(format!("job ended `{state}`: {body}"));
    }
    view.get("lines")
        .and_then(Value::as_array)
        .and_then(|lines| {
            lines
                .iter()
                .map(|l| l.as_str().map(str::to_owned))
                .collect()
        })
        .ok_or_else(|| format!("no verdict lines: {body}"))
}

/// Drive both clients against `server`; ops in client-major order.
fn drive(server: &Server, plan: &Plan, trace: bool) -> (Vec<Op>, f64, Tracer) {
    let addr = server.http_addr().to_string();
    let begin = Instant::now();
    let results: Vec<(Vec<Op>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .clients
            .iter()
            .enumerate()
            .map(|(c, subs)| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut tr = Tracer::new(trace);
                    let ops = client(addr, subs, (c as u64) << 32, &mut tr);
                    (ops, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = begin.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(trace);
    let mut ops = Vec::new();
    for (client_ops, tr) in results {
        ops.extend(client_ops);
        tracer.absorb(tr);
    }
    (ops, wall, tracer)
}

fn dir_bytes(path: &Path) -> u64 {
    match std::fs::metadata(path) {
        Ok(m) if m.is_dir() => std::fs::read_dir(path)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .map(|e| dir_bytes(&e.path()))
                    .sum()
            })
            .unwrap_or(0),
        Ok(m) => m.len(),
        Err(_) => 0,
    }
}

/// One run: set-up sampled on probe servers, then every job on one
/// server. Traced, the HTTP operations carry spans, and the engine jobs
/// are replayed afterwards for the layers under the service.
pub fn run(plan: &Plan, dir: &Path, trace: bool) -> Result<Outcome, String> {
    drain_time_wait();
    let threads = thread_count();
    let mut setups = Vec::new();
    for k in 0..SETUP_SAMPLES {
        let (probe, secs) = start(&dir.join(format!("probe-{k}")))?;
        setups.push(secs);
        stop(probe, threads);
    }
    let state = dir.join("state");
    let (server, secs) = start(&state)?;
    setups.push(secs);
    let (ops, wall_s, tracer) = drive(&server, plan, trace);
    let counters = server.orchestrator().health().counters;
    let cache_kb = dir_bytes(&state.join("cache")) as f64 / 1024.0;
    let journal_kb = dir_bytes(&state.join("service.journal")) as f64 / 1024.0;
    stop(server, threads);
    let traced = if trace {
        let jobs = ops.len() as f64;
        let mut extra = BTreeMap::new();
        for class in Class::ALL {
            let mut ms: Vec<f64> = ops
                .iter()
                .filter(|op| op.class == class.name())
                .map(|op| if op.ok { op.ms } else { f64::INFINITY })
                .collect();
            ms.sort_by(f64::total_cmp);
            let (p50, p90) = class.metrics();
            extra.insert(p50, percentile(&ms, 0.50));
            extra.insert(p90, percentile(&ms, 0.90));
        }
        let mut failed = BTreeSet::new();
        let exec = replay(plan, dir, &mut failed)?;
        let layers = layer_replays(plan, dir, &mut failed)?;
        let totals = tracer.totals();
        let us = |k: &str| totals.get(k).map_or(0.0, |t| t.us);
        let submissions = plan.clients.iter().map(Vec::len).sum::<usize>() as f64;
        let exec_ms = exec.exec_s * 1e3 / jobs;
        let mean_latency = ops.iter().map(|op| op.ms).sum::<f64>() / jobs;
        extra.insert(
            "service.submit_ms",
            us("service.submit") / 1e3 / submissions,
        );
        extra.insert("service.wait_ms", us("service.wait") / 1e3 / jobs);
        extra.insert("service.exec_ms", exec_ms);
        extra.insert("service.overhead_ms", mean_latency - exec_ms);
        extra.insert(
            "service.dedup_hit_ratio",
            counters.dedup_hits as f64 / counters.submitted.max(1) as f64,
        );
        extra.insert(
            "faults.conform_traces_per_s",
            exec.traces as f64 / exec.conform_s.max(1e-9),
        );
        extra.insert("fdrlite.store_hit_ratio", layers.store_hit_ratio);
        extra.insert("persist.cache_kb", cache_kb);
        extra.insert("service.journal_kb", journal_kb);
        let mut all = tracer;
        all.absorb(layers.tracer);
        Some(Traced {
            tracer: all,
            ops: ops.len(),
            failed: failed.len(),
            overhead_share: layers.overhead_share,
            extra,
        })
    } else {
        None
    };
    Ok(Outcome {
        ops,
        wall_s,
        setup_s: median(setups),
        traced,
    })
}

/// Every job that reached an engine (resubmissions dedup), client-major.
fn engine_jobs(plan: &Plan) -> Vec<&Job> {
    plan.clients
        .iter()
        .flatten()
        .filter(|s| s.class != Class::Resubmit)
        .flat_map(|s| &s.jobs)
        .collect()
}

fn resolved(dir: &Path, job: &Job) -> ResolvedJob {
    ResolvedJob {
        name: job.name.clone(),
        kind: if job.corpus.is_some() {
            cspm::manifest::JobKind::Conform
        } else {
            cspm::manifest::JobKind::Check
        },
        script: dir.join(&job.script),
        spec: job.corpus.as_ref().map(|_| job.target.clone()),
        corpus: job.corpus.as_ref().map(|c| dir.join(c)),
        assertion: job.corpus.is_none().then(|| job.target.clone()),
        threads: 1,
        max_states: None,
        timeout_ms: Some(60_000),
        chaos: None,
    }
}

struct ExecReplay {
    exec_s: f64,
    conform_s: f64,
    traces: usize,
}

/// Replay every engine job through one fresh `service::exec::Executor`
/// (what a worker runs): the execution time the HTTP latency is compared
/// against, and the conformance throughput. A job whose verdict differs
/// from its plant is added to `failed`.
fn replay(plan: &Plan, dir: &Path, failed: &mut BTreeSet<String>) -> Result<ExecReplay, String> {
    let mut executor = Executor::new(&ExecConfig {
        cache_dir: Some(dir.join("replay-exec")),
        checkpoint_every: None,
    })?;
    let mut out = ExecReplay {
        exec_s: 0.0,
        conform_s: 0.0,
        traces: 0,
    };
    for job in engine_jobs(plan) {
        let begin = Instant::now();
        let outcome = executor.run(&resolved(dir, job), 1);
        let secs = begin.elapsed().as_secs_f64();
        match outcome {
            Ok(o) if o.lines == job.expect => {}
            other => {
                failed.insert(job.name.clone());
                eprintln!("FAILED executor replay of {}: {other:?}", job.name);
            }
        }
        out.exec_s += secs;
        if job.corpus.is_some() {
            out.conform_s += secs;
            out.traces += job.traces;
        }
    }
    Ok(out)
}

struct LayerReplays {
    tracer: Tracer,
    store_hit_ratio: f64,
    overhead_share: f64,
}

/// The engine layers under the service, which HTTP spans cannot see: the
/// check jobs replayed in order on one store over a fresh persistent cache
/// (one worker's view), as the executor runs them. Two replays run side
/// by side, job by job, one untraced and one traced, the order
/// alternating from one job to the next, so both see the same machine and
/// drift cancels out of the tracing overhead. The untraced replay makes
/// only the executor's calls, so its `CheckStats` give the service's own
/// store hit ratio.
fn layer_replays(
    plan: &Plan,
    dir: &Path,
    failed: &mut BTreeSet<String>,
) -> Result<LayerReplays, String> {
    let mut plain = Replay::new(dir, "replay-untraced", false)?;
    let mut traced = Replay::new(dir, "replay-traced", true)?;
    for (k, job) in engine_jobs(plan)
        .into_iter()
        .filter(|j| j.corpus.is_none())
        .enumerate()
    {
        let (first, second) = if k % 2 == 0 {
            (&mut plain, &mut traced)
        } else {
            (&mut traced, &mut plain)
        };
        first.job(k, job, dir, failed)?;
        second.job(k, job, dir, failed)?;
    }
    eprintln!(
        "layer replays: untraced {:.3} s, traced {:.3} s",
        plain.secs, traced.secs
    );
    Ok(LayerReplays {
        store_hit_ratio: plain.hits as f64 / (plain.hits + plain.misses).max(1) as f64,
        overhead_share: (traced.secs - plain.secs) / plain.secs,
        tracer: traced.tracer,
    })
}

/// One replay's store, loaded scripts, spans, `CheckStats` store hits and
/// misses summed over every check, and time spent in its jobs.
struct Replay {
    store: ModelStore,
    checker: Checker,
    bundles: HashMap<String, cspm::LoadedScript>,
    tracer: Tracer,
    hits: u64,
    misses: u64,
    secs: f64,
}

impl Replay {
    fn new(dir: &Path, cache_dir: &str, trace: bool) -> Result<Replay, String> {
        let cache =
            fdrlite::PersistentCache::open(dir.join(cache_dir)).map_err(|e| e.to_string())?;
        Ok(Replay {
            store: ModelStore::with_cache(Arc::new(cache)),
            checker: Checker::new(),
            bundles: HashMap::new(),
            tracer: Tracer::new(trace),
            hits: 0,
            misses: 0,
            secs: 0.0,
        })
    }

    /// Replay job `k`. Traced, a script's parse and elaboration are spans,
    /// its operands are compiled and its specs normalised once by direct
    /// calls (a span each, recorded only when the store missed), and the
    /// job's check is an explore span. A verdict that differs from the
    /// plant adds the job to `failed`.
    fn job(
        &mut self,
        k: usize,
        job: &Job,
        dir: &Path,
        failed: &mut BTreeSet<String>,
    ) -> Result<(), String> {
        let begin = Instant::now();
        let id = REPLAY_ID + k as u64;
        let tr = &mut self.tracer;
        if !self.bundles.contains_key(&job.script) {
            let source =
                std::fs::read_to_string(dir.join(&job.script)).map_err(|e| e.to_string())?;
            let script = tr
                .time(id, "cspm", "parse", || cspm::Script::parse(&source))
                .map_err(|e| e.to_string())?;
            let loaded = tr
                .time(id, "cspm", "elaborate", || script.load())
                .map_err(|e| e.to_string())?;
            if tr.on() {
                pipeline::compile_operands(
                    tr,
                    id,
                    &self.checker,
                    &self.store,
                    &loaded,
                    &job.operands,
                )?;
            }
            self.bundles.insert(job.script.clone(), loaded);
        }
        let loaded = &self.bundles[&job.script];
        let results = pipeline::explore(tr, id, &self.checker, &self.store, loaded, 1)?;
        for s in results.iter().filter_map(|r| r.stats.as_ref()) {
            self.hits += s.store_hits;
            self.misses += s.store_misses;
        }
        let verdict = results
            .iter()
            .find(|r| r.description == job.target)
            .map(|r| pipeline::render(r, loaded));
        self.secs += begin.elapsed().as_secs_f64();
        if verdict != Some(job_verdict(&job.expect)) {
            failed.insert(job.name.clone());
            eprintln!("FAILED layer replay of {}: {verdict:?}", job.name);
        }
        Ok(())
    }
}

/// `PASS` or `FAIL <counterexample>` from a check job's expected lines.
fn job_verdict(expect: &[String]) -> String {
    match expect {
        [_, cex] => format!("FAIL {}", cex.trim_start()),
        _ => "PASS".to_owned(),
    }
}
