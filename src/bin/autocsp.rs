//! `autocsp` — the command-line face of the toolchain.
//!
//! ```text
//! autocsp translate <app.can> [--dbc net.dbc] [--node ECU] [--gateway] [-o out.csp]
//! autocsp lint <file>... [--dbc net.dbc] [--faults plan.toml] [--format json] [--deny-warnings]
//! autocsp analyze <model.csp> [--format json] [--deny-warnings] [--max-states N]
//! autocsp check <model.csp> [--threads N] [--max-states N] [--timeout-ms N]
//!               [--stats] [--stats-json out.json] [--cex-json out.json]
//!               [--cache-dir DIR] [--no-cache] [--resume TOKEN|auto]
//!               [--checkpoint-every N]
//! autocsp compose <gateway.can> <ecu.can> [--dbc net.dbc] [--buffered N] [-o out.csp]
//! autocsp simulate <node.can>... [--dbc net.dbc] [--for-ms N]
//!                  [--faults plan.toml] [--seed N] [--conformance model.csp]
//! autocsp conform <model.csp> [corpus.jsonl]... [--spec NAME | --faults plan.toml]
//!                 [--traces-dir DIR] [--stdin] [--threads N] [--stats]
//!                 [--stats-json out.json] [--format text|json] [--deny-warnings]
//! autocsp run <jobs.toml> [--cache-dir DIR] [--resume] [--threads N] [--stats]
//!             [--storage-faults SEED[:EVERY]] [--force-panic JOB]
//! autocsp serve [--addr HOST:PORT] [--workers N] [--state-dir DIR] [--cache-dir DIR]
//!               [--scripts-root DIR] [--queue-cap N] [--heartbeat-ms N]
//!               [--checkpoint-every N] [--retries N]
//! autocsp worker --connect HOST:PORT --token TOKEN [--cache-dir DIR]
//!                [--heartbeat-ms N] [--checkpoint-every N]
//! autocsp replay <cex.json> <node.can>... [--dbc net.dbc] [--node NAME]
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use cspm::manifest::JobKind;
use diag::{Diagnostic, Severity, Span};
use faults::conformance::ConformanceVerdict;
use faults::{lint_plan, FaultPlan};
use fdrlite::Checker;
use service::exec::{ExecConfig, ExecError, Executor};
use service::ResolvedJob;
use translator::{NodeSpec, Pipeline, SystemBuilder, TranslateConfig};

/// Exit code for runs where at least one check was cut short by a resource
/// budget and nothing outright failed: neither success (0) nor refutation (1).
const EXIT_INCONCLUSIVE: u8 = 3;

/// Exit code for `run` batches where at least one job *failed* — panicked,
/// exhausted its transient retries, or could not start at all. Distinct from
/// refutation (1): the infrastructure broke, the properties were not judged.
const EXIT_INFRA: u8 = 4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("translate") => translate(&args[1..]),
        Some("lint") => lint_cmd(&args[1..]),
        Some("analyze") => analyze_cmd(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("compose") => compose(&args[1..]),
        Some("simulate") => simulate(&args[1..]),
        Some("conform") => conform(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("worker") => worker_cmd(&args[1..]),
        Some("replay") => replay_cmd(&args[1..]),
        Some("--version" | "-V" | "version") => {
            println!("autocsp {}", env!("CARGO_PKG_VERSION"));
            Ok(ExitCode::SUCCESS)
        }
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
autocsp — security checking of automotive ECUs with formal CSP models

USAGE:
  autocsp translate <app.can> [--dbc <net.dbc>] [--node <NAME>] [--gateway] [-o <out.csp>]
      Extract a CSPm implementation model from a CAPL application.
      Lint findings print to stderr; error-severity findings abort.

  autocsp lint <file>... [--dbc <net.dbc>] [--faults <plan>] [--format <text|json>]
               [--deny-warnings]
      Statically analyse CAPL (`.can`), CSPm (`.csp`/`.cspm`) and fault-plan
      (`--faults`) files. With `--dbc`, also checks database hygiene,
      CAPL/database consistency and fault-plan frame ids and node names
      (SIM3xx codes). Exits non-zero on errors (or warnings, under
      `--deny-warnings`).

  autocsp analyze <model.csp> [--format <text|json>] [--deny-warnings]
                  [--max-states <N>]
      Semantically analyse a CSPm script without running the checker:
      interprocedural alphabet inference per definition (through hiding
      and renaming), τ-cycle/SCC classification per assertion operand
      (divergence-freedom proofs, guaranteed-deadlock sinks), and a
      sound predicted state-space bound per operand. With
      `--max-states <N>`, operands predicted to exceed the budget are
      flagged (ANA307) before any exploration is spent. Findings use
      the ANA3xx codes (see docs/LINTS.md); `check` and `lint` run the
      same pass. Exits non-zero on errors (or warnings, under
      `--deny-warnings`).

  autocsp check <model.csp> [--deny-warnings] [--threads <N>] [--stats]
                [--max-states <N>] [--timeout-ms <N>] [--format <text|json>]
                [--stats-json <out.json>] [--cex-json <out.json>]
                [--cache-dir <DIR>] [--no-cache] [--resume <TOKEN|auto>]
                [--checkpoint-every <N>]
      Run every `assert` in a CSPm script through the refinement checker.
      `--threads N` (alias `-j`) lets refinement assertions of every
      model (`[T=`, `[F=`, `[FD=`) move from the serial engine to a
      parallel one on N threads once the product passes 16,384 pairs;
      verdicts and counterexamples are identical to the serial engine
      for any N. `--max-states` / `--timeout-ms`
      bound each refinement assertion; a budgeted-out assertion reports
      INCONCLUSIVE, and a run with inconclusive results (and no failures)
      exits with code 3. `--stats` prints per-assertion exploration
      statistics to stderr; `--stats-json` writes them to a file as JSON.
      `--cex-json` writes the first counterexample as JSON for
      `autocsp replay`.
      `--cache-dir DIR` persists compiled models and checkpoints to a
      crash-safe on-disk cache (shared safely between concurrent runs; a
      corrupt entry is quarantined with a warning and recompiled, never
      trusted). A budgeted-out assertion then also writes a checkpoint and
      prints a resume token; `--resume TOKEN` (or `--resume auto` to pick
      up any matching checkpoint) continues it to a verdict bit-identical
      to an uninterrupted run. `--checkpoint-every N` additionally
      checkpoints every N explored states, so an interrupted (even
      SIGKILLed) run loses at most N states of work. `--no-cache` ignores
      `--cache-dir`. `--format json` prints exactly one JSON object
      (per-assertion verdicts) to stdout; diagnostics stay on stderr.

  autocsp compose <gateway.can> <ecu.can> [--dbc <net.dbc>] [--buffered <N>] [-o <out.csp>]
      Translate both nodes and compose SYSTEM = GATEWAY ∥ ECU.

  autocsp simulate <node.can>... [--dbc <net.dbc>] [--for-ms <N>]
                   [--faults <plan>] [--seed <N>] [--conformance <model.csp>]
      Run CAPL applications on the simulated CAN bus and print the trace.
      `--faults` installs a fault-injection plan (deterministic: same plan,
      same seed, same trace); `--seed` overrides the plan seed. With
      `--conformance`, the observed trace is lifted through the plan's
      [[map]] rules and checked to be a trace of the model's spec process
      (through the batch engine; `--stats` reports the dedup ratio);
      nonconformance exits with code 1.

  autocsp conform <model.csp> [corpus.jsonl]... [--spec <NAME> | --faults <plan>]
                  [--traces-dir <DIR>] [--stdin] [--threads <N>] [--stats]
                  [--stats-json <out.json>] [--format <text|json>]
                  [--deny-warnings]
      Batch trace conformance: check every trace of a JSONL corpus against
      the model's spec process (`--spec`, or the plan's [conformance]
      spec) in one hypertrace walk — traces merge into a prefix trie, the
      spec normalises once, and per-trace verdicts are bit-identical to
      checking each trace alone, at any `--threads` count. Corpora come
      from positional `.jsonl` files, every `*.jsonl` under `--traces-dir`
      (sorted by name), and/or `--stdin`; each line is `[\"e1\",\"e2\"]` or
      `{\"id\":…,\"events\":[…]}`. Corpus-hygiene findings are SIM31x
      warnings (see docs/LINTS.md). Exits 0 when every trace conforms and
      1 otherwise; `--stats` prints trie dedup ratio and traces/sec to
      stderr, `--stats-json` writes them as JSON. See docs/CONFORMANCE.md.

  autocsp run <jobs.toml> [--threads <N>] [--max-states <N>] [--timeout-ms <N>]
              [--cache-dir <DIR>] [--no-cache] [--resume] [--checkpoint-every <N>]
              [--spec <NAME>] [--seed <N>] [--stats] [--format <text|json>]
              [--storage-faults <SEED[:EVERY]>] [--force-panic <JOB>]
      Run a TOML manifest of check/conform/analyze jobs under the
      supervised job runtime: each job is panic-isolated (a panicking job
      reports `failed` with a SUP501 diagnostic; the run continues),
      transient failures retry on a bounded, seeded exponential backoff,
      and every terminal verdict is journaled crash-safely. After a crash
      or kill, `--resume` replays journaled verdicts verbatim and re-runs
      only unfinished jobs (reusing their per-check checkpoints when
      `--cache-dir` is set), so the completed run's stdout is
      byte-identical to an undisturbed one. SIGTERM checkpoints in-flight
      work and defers the rest. Manifest `[run]` sets defaults
      (threads/budgets/retries), `[chaos]` injects deterministic transient
      faults for testing; `--storage-faults` seeds disk-cache fault
      injection and `--force-panic JOB` panics a named job (both for
      chaos drills). `--format json` prints exactly one JSON object
      (per-job status + verdict lines) to stdout, diagnostics to stderr.
      Exits 4 when any job failed (infrastructure), else 1
      when any was refuted, else 3 when any is inconclusive or deferred,
      else 0. See docs/SUPERVISION.md.

  autocsp serve [--addr <HOST:PORT>] [--workers <N>] [--state-dir <DIR>]
                [--cache-dir <DIR>] [--scripts-root <DIR>] [--queue-cap <N>]
                [--heartbeat-ms <N>] [--checkpoint-every <N>] [--retries <N>]
                [--threads <N>] [--max-states <N>] [--timeout-ms <N>] [--seed <N>]
      Run the fault-tolerant checking service: accept `jobs.toml`
      manifests over HTTP (POST /v1/jobs → job ids; GET /v1/jobs/<id>
      [?wait=s] → verdict; GET /v1/health) and dispatch them to a farm
      of `autocsp worker` processes sharing one persistent cache.
      Identical submissions dedup to one job id; a crashed or SIGKILLed
      worker's job is reclaimed and resumed from its last checkpoint to
      a byte-identical verdict; transient failures retry on the seeded
      supervisor backoff; admissions beyond `--queue-cap` fail closed
      with HTTP 429 + Retry-After. SIGTERM drains: in-flight jobs
      checkpoint, pending jobs journal, and a restarted serve (same
      `--state-dir`) completes them byte-identically. Service events use
      the SRV6xx codes (see docs/LINTS.md). Exits 3 when jobs were
      deferred past the drain, 0 on a clean drain, 4 on infrastructure
      failure. See docs/SERVICE.md.

  autocsp worker --connect <HOST:PORT> --token <TOKEN> [--cache-dir <DIR>]
                 [--heartbeat-ms <N>] [--checkpoint-every <N>]
      One farm worker (spawned by `autocsp serve`; not for direct use).
      Connects to the orchestrator's loopback worker port, heartbeats,
      and executes dispatched jobs one at a time.

  autocsp replay <cex.json> <node.can>... [--dbc <net.dbc>] [--node <NAME>]
                 [--stimulus <chan>] [--expect <chan>] [--gap-us <N>]
      Re-drive a saved counterexample (from `check --cex-json`) through the
      simulator: stimulus events are injected as frames, and the node under
      test (`--node`, default: first CAPL file's name) must transmit the
      expected responses. Exits 0 when the violation reproduces on the bus,
      1 when it does not, and 3 when the counterexample maps onto no
      observable responses (inconclusive).

  autocsp --version
      Print the toolchain version.
";

#[derive(Default)]
struct Flags {
    positional: Vec<String>,
    dbc: Option<String>,
    node: Option<String>,
    gateway: bool,
    buffered: Option<usize>,
    output: Option<String>,
    for_ms: u64,
    format: OutputFormat,
    deny_warnings: bool,
    threads: usize,
    stats: bool,
    stats_json: Option<String>,
    max_states: Option<u64>,
    timeout_ms: Option<u64>,
    cex_json: Option<String>,
    cache_dir: Option<String>,
    no_cache: bool,
    resume: Option<String>,
    checkpoint_every: Option<u64>,
    faults: Option<String>,
    seed: Option<u64>,
    conformance: Option<String>,
    spec: Option<String>,
    traces_dir: Option<String>,
    stdin: bool,
    stimulus: Vec<String>,
    expect: Vec<String>,
    gap_us: u64,
    storage_faults: Option<String>,
    force_panic: Option<String>,
    addr: Option<String>,
    workers: Option<usize>,
    state_dir: Option<String>,
    scripts_root: Option<String>,
    queue_cap: Option<usize>,
    heartbeat_ms: Option<u64>,
    retries: Option<u32>,
    connect: Option<String>,
    token: Option<String>,
    die_after_states: Option<u64>,
}

#[derive(Clone, Copy, PartialEq, Eq, Default)]
enum OutputFormat {
    #[default]
    Text,
    Json,
}

/// The argument after `flag` (at `*i`), stepping `*i` onto it.
fn value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("`{flag}` needs a value"))
}

/// [`value`] as a number.
fn number<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String> {
    value(args, i, flag)?
        .parse()
        .map_err(|_| format!("`{flag}` needs a number"))
}

/// [`value`] as a number ≥ 1.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    args: &[String],
    i: &mut usize,
    flag: &str,
) -> Result<T, String> {
    value(args, i, flag)?
        .parse()
        .ok()
        .filter(|n| *n >= T::from(1))
        .ok_or_else(|| format!("`{flag}` needs a number ≥ 1"))
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        for_ms: 1_000,
        threads: 1,
        gap_us: 10_000,
        ..Flags::default()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dbc" => flags.dbc = Some(value(args, &mut i, "--dbc")?),
            "--node" => flags.node = Some(value(args, &mut i, "--node")?),
            "--gateway" => flags.gateway = true,
            "--buffered" => flags.buffered = Some(number(args, &mut i, "--buffered")?),
            "-o" | "--output" => flags.output = Some(value(args, &mut i, "-o")?),
            "--for-ms" => flags.for_ms = number(args, &mut i, "--for-ms")?,
            "--format" => {
                flags.format = match value(args, &mut i, "--format")?.as_str() {
                    "text" => OutputFormat::Text,
                    "json" => OutputFormat::Json,
                    other => return Err(format!("unknown format `{other}` (use text or json)")),
                }
            }
            "--deny-warnings" => flags.deny_warnings = true,
            "--threads" | "-j" => flags.threads = positive(args, &mut i, "--threads")?,
            "--stats" => flags.stats = true,
            "--stats-json" => flags.stats_json = Some(value(args, &mut i, "--stats-json")?),
            "--max-states" => flags.max_states = Some(number(args, &mut i, "--max-states")?),
            "--timeout-ms" => flags.timeout_ms = Some(number(args, &mut i, "--timeout-ms")?),
            "--cex-json" => flags.cex_json = Some(value(args, &mut i, "--cex-json")?),
            "--cache-dir" => flags.cache_dir = Some(value(args, &mut i, "--cache-dir")?),
            "--no-cache" => flags.no_cache = true,
            "--resume" => {
                // The token is optional: a bare `--resume` (or one followed by
                // another flag / a manifest path) means "resume automatically".
                let next = args.get(i + 1).map(String::as_str);
                let takes_value = matches!(
                    next,
                    Some(v) if v == "auto" || (v.len() == 32 && v.bytes().all(|b| b.is_ascii_hexdigit()))
                );
                if takes_value {
                    flags.resume = Some(value(args, &mut i, "--resume")?);
                } else {
                    flags.resume = Some("auto".to_owned());
                }
            }
            "--checkpoint-every" => {
                flags.checkpoint_every = Some(positive(args, &mut i, "--checkpoint-every")?);
            }
            "--faults" => flags.faults = Some(value(args, &mut i, "--faults")?),
            "--seed" => flags.seed = Some(number(args, &mut i, "--seed")?),
            "--conformance" => flags.conformance = Some(value(args, &mut i, "--conformance")?),
            "--spec" => flags.spec = Some(value(args, &mut i, "--spec")?),
            "--traces-dir" => flags.traces_dir = Some(value(args, &mut i, "--traces-dir")?),
            "--stdin" => flags.stdin = true,
            "--stimulus" => flags.stimulus.push(value(args, &mut i, "--stimulus")?),
            "--expect" => flags.expect.push(value(args, &mut i, "--expect")?),
            "--gap-us" => flags.gap_us = number(args, &mut i, "--gap-us")?,
            "--storage-faults" => {
                flags.storage_faults = Some(value(args, &mut i, "--storage-faults")?);
            }
            "--force-panic" => flags.force_panic = Some(value(args, &mut i, "--force-panic")?),
            "--addr" => flags.addr = Some(value(args, &mut i, "--addr")?),
            "--workers" => flags.workers = Some(positive(args, &mut i, "--workers")?),
            "--state-dir" => flags.state_dir = Some(value(args, &mut i, "--state-dir")?),
            "--scripts-root" => flags.scripts_root = Some(value(args, &mut i, "--scripts-root")?),
            "--queue-cap" => flags.queue_cap = Some(number(args, &mut i, "--queue-cap")?),
            "--heartbeat-ms" => {
                flags.heartbeat_ms = Some(positive(args, &mut i, "--heartbeat-ms")?);
            }
            "--retries" => flags.retries = Some(positive(args, &mut i, "--retries")?),
            "--connect" => flags.connect = Some(value(args, &mut i, "--connect")?),
            "--token" => flags.token = Some(value(args, &mut i, "--token")?),
            // Undocumented chaos hook for the CI kill drills: the worker
            // checkpoints at this budget, then drops dead.
            "--die-after-states" => {
                flags.die_after_states = Some(number(args, &mut i, "--die-after-states")?);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => flags.positional.push(other.to_owned()),
        }
        i += 1;
    }
    Ok(flags)
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn emit(output: &Option<String>, text: &str) -> Result<(), String> {
    match output {
        Some(path) => {
            fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn node_name_from(path: &str, fallback: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .map(str::to_uppercase)
        .unwrap_or_else(|| fallback.to_owned())
}

/// One file's findings, ready for rendering in either output format.
struct FileFindings {
    file: String,
    source: String,
    diagnostics: Vec<Diagnostic>,
}

/// Print findings (text to stderr) and apply the gating policy.
fn gate(findings: &[FileFindings], deny_warnings: bool) -> Result<(), String> {
    for f in findings {
        for d in &f.diagnostics {
            eprint!("{}", d.render(&f.file, &f.source));
        }
    }
    policy(
        "lint",
        tally(findings.iter().flat_map(|f| &f.diagnostics)),
        deny_warnings,
    )
}

/// `(errors, warnings)` among the diagnostics.
fn tally<'a>(diagnostics: impl IntoIterator<Item = &'a Diagnostic>) -> (usize, usize) {
    let (mut errors, mut warnings) = (0, 0);
    for d in diagnostics {
        match d.severity {
            Severity::Error => errors += 1,
            Severity::Warning => warnings += 1,
            Severity::Info => {}
        }
    }
    (errors, warnings)
}

/// The gating policy over `what` findings: errors always fail; warnings
/// fail under `--deny-warnings`.
fn policy(
    what: &str,
    (errors, warnings): (usize, usize),
    deny_warnings: bool,
) -> Result<(), String> {
    if errors > 0 {
        Err(format!("{errors} {what} error(s)"))
    } else if deny_warnings && warnings > 0 {
        Err(format!(
            "{warnings} {what} warning(s) denied (--deny-warnings)"
        ))
    } else {
        Ok(())
    }
}

fn translate(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let [source_path] = flags.positional.as_slice() else {
        return Err("translate needs exactly one CAPL file".into());
    };
    let source = read(source_path)?;
    let dbc = flags.dbc.as_deref().map(read).transpose()?;
    let name = flags
        .node
        .clone()
        .unwrap_or_else(|| node_name_from(source_path, "NODE"));
    let config = if flags.gateway {
        TranslateConfig::gateway(&name)
    } else {
        TranslateConfig::ecu(&name)
    };
    let pipeline = Pipeline::new(config);
    let out = pipeline
        .run(&source, dbc.as_deref())
        .map_err(|e| e.to_string())?;
    let findings = [
        FileFindings {
            file: source_path.clone(),
            source,
            diagnostics: out.lints.capl.clone(),
        },
        FileFindings {
            file: flags.dbc.clone().unwrap_or_default(),
            source: dbc.unwrap_or_default(),
            diagnostics: out.lints.dbc.clone(),
        },
        FileFindings {
            file: format!("<generated {name} model>"),
            source: out.script.clone(),
            diagnostics: out.lints.csp.clone(),
        },
    ];
    gate(&findings, flags.deny_warnings)?;
    for a in &out.report.abstractions {
        eprintln!("abstraction [{:?}] {}", a.kind, a.detail);
    }
    emit(&flags.output, &out.script)?;
    Ok(ExitCode::SUCCESS)
}

fn lint_cmd(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    if flags.positional.is_empty() && flags.dbc.is_none() && flags.faults.is_none() {
        return Err(
            "lint needs at least one file (`.can`, `.csp`/`.cspm`, `--faults`, or --dbc)".into(),
        );
    }

    // Parse the database first: `.can` files cross-check against it.
    let mut findings: Vec<FileFindings> = Vec::new();
    let mut db = None;
    if let Some(dbc_path) = &flags.dbc {
        let source = read(dbc_path)?;
        let diagnostics = match candb::parse(&source) {
            Ok(parsed) => {
                let d = lint::lint_database(&parsed);
                db = Some(parsed);
                d
            }
            Err(e) => vec![Diagnostic::error(
                lint::codes::DBC_PARSE_ERROR,
                Span::point(e.line as u32, 1),
                e.to_string(),
            )],
        };
        findings.push(FileFindings {
            file: dbc_path.clone(),
            source,
            diagnostics,
        });
    }

    for path in &flags.positional {
        let source = read(path)?;
        let diagnostics = if path.ends_with(".csp") || path.ends_with(".cspm") {
            let job = ResolvedJob {
                max_states: None,
                ..one_job(JobKind::Analyze, path, &flags)
            };
            match Executor::new(&ExecConfig::default())?.analyze(&job) {
                Ok((script, analysis)) => {
                    let mut d = lint::lint_module(script.script.module());
                    d.extend(analysis.diagnostics);
                    d
                }
                // A script that parses but fails to load keeps its
                // syntactic findings; `check` surfaces the load error.
                Err(ExecError::Load { script, .. }) => lint::lint_module(script.module()),
                Err(ExecError::Parse { error, .. }) => {
                    vec![cspm_diagnostic(lint::codes::CSP_PARSE_ERROR, &error)]
                }
                Err(e) => return Err(e.to_string()),
            }
        } else {
            match capl::parse(&source) {
                Ok(program) => {
                    let mut d = lint::lint_program(&program);
                    if let Some(db) = &db {
                        d.extend(lint::cross_check(&program, db));
                    }
                    d
                }
                Err(e) => {
                    let pos = match &e {
                        capl::CaplError::Lex { pos, .. } | capl::CaplError::Parse { pos, .. } => {
                            *pos
                        }
                    };
                    vec![Diagnostic::error(
                        lint::codes::CAPL_PARSE_ERROR,
                        Span::point(pos.line, pos.col),
                        e.to_string(),
                    )]
                }
            }
        };
        findings.push(FileFindings {
            file: path.clone(),
            source,
            diagnostics,
        });
    }

    if let Some(plan_path) = &flags.faults {
        let source = read(plan_path)?;
        let diagnostics = match FaultPlan::parse(&source) {
            Ok(plan) => lint_plan(&plan, db.as_ref()),
            Err(parse_errors) => parse_errors,
        };
        findings.push(FileFindings {
            file: plan_path.clone(),
            source,
            diagnostics,
        });
    }

    // Deterministic output: within a file, order by span, then code, then
    // message. Files keep their command-line order.
    for f in &mut findings {
        cspm::analyze::sort_diagnostics(&mut f.diagnostics);
    }

    let (errors, warnings) = tally(findings.iter().flat_map(|f| &f.diagnostics));

    match flags.format {
        OutputFormat::Text => {
            for f in &findings {
                for d in &f.diagnostics {
                    print!("{}", d.render(&f.file, &f.source));
                }
            }
            println!("{errors} error(s), {warnings} warning(s)");
        }
        OutputFormat::Json => {
            let json = diag::json::object(|w| {
                w.key("diagnostics").array(|w| {
                    for f in &findings {
                        for d in &f.diagnostics {
                            d.write_json(w, &f.file);
                        }
                    }
                });
                w.key("errors").number(errors);
                w.key("warnings").number(warnings);
            });
            println!("{json}");
        }
    }

    policy("lint", (errors, warnings), flags.deny_warnings).map(|()| ExitCode::SUCCESS)
}

/// A CSPm (or jobs manifest) error as a `code` error at its position.
fn cspm_diagnostic(code: diag::Code, e: &cspm::CspmError) -> Diagnostic {
    let span = match e {
        cspm::CspmError::Lex { pos, .. } | cspm::CspmError::Parse { pos, .. } => {
            Span::point(pos.line, pos.col)
        }
        _ => Span::unknown(),
    };
    Diagnostic::error(code, span, e.to_string())
}

fn analyze_cmd(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let [script_path] = flags.positional.as_slice() else {
        return Err("analyze needs exactly one CSPm file".into());
    };
    let mut executor = Executor::new(&ExecConfig::default())?;
    let (script, analysis) = match executor.report(&one_job(JobKind::Analyze, script_path, &flags))
    {
        Ok(analyzed) => analyzed,
        Err(ExecError::Parse { source, error }) => {
            let d = cspm_diagnostic(lint::codes::CSP_PARSE_ERROR, &error);
            match flags.format {
                OutputFormat::Text => {
                    print!("{}", d.render(script_path, &source));
                    println!("1 error(s), 0 warning(s)");
                }
                OutputFormat::Json => {
                    let analysis = cspm::analyze::ScriptReport {
                        rounds: 0,
                        definitions: Vec::new(),
                        assertions: Vec::new(),
                        diagnostics: vec![d],
                    };
                    println!("{}", analysis_json(script_path, &analysis, 1, 0));
                }
            }
            return Err("1 analysis error(s)".into());
        }
        Err(e) => return Err(e.to_string()),
    };
    let (errors, warnings) = tally(&analysis.diagnostics);
    match flags.format {
        OutputFormat::Text => {
            render_analysis_text(script_path, &script.source, &analysis);
            println!("{errors} error(s), {warnings} warning(s)");
        }
        OutputFormat::Json => {
            println!(
                "{}",
                analysis_json(script_path, &analysis, errors, warnings)
            );
        }
    }
    policy("analysis", (errors, warnings), flags.deny_warnings).map(|()| ExitCode::SUCCESS)
}

/// Human-readable rendering of a [`cspm::analyze::ScriptReport`].
fn render_analysis_text(file: &str, source: &str, analysis: &cspm::analyze::ScriptReport) {
    println!(
        "{file}: {} definition(s), {} assertion(s), alphabet fixpoint in {} round(s)",
        analysis.definitions.len(),
        analysis.assertions.len(),
        analysis.rounds
    );
    for d in &analysis.definitions {
        let reach = if d.reachable { "" } else { "  [unreachable]" };
        println!("  {} : {{{}}}{}", d.name, d.alphabet.join(", "), reach);
    }
    for a in &analysis.assertions {
        println!("assert {}", a.description);
        for p in &a.processes {
            match (&p.graph, &p.compile_error) {
                (Some(g), _) => {
                    let divergence = if g.divergence_free() {
                        "divergence-free".to_owned()
                    } else {
                        format!("DIVERGENT ({} state(s))", g.divergent_states)
                    };
                    let deadlock = if g.deadlock_free() {
                        "deadlock-free".to_owned()
                    } else {
                        format!("DEADLOCK ({} sink(s))", g.deadlock_states)
                    };
                    let approx = if p.estimate_exact { "" } else { " (approx)" };
                    println!(
                        "  {}: {} state(s), {} transition(s) ({} τ), {} SCC(s); {divergence}, {deadlock}; predicted ≤ {} state(s){approx}",
                        p.role, g.states, g.transitions, g.tau_transitions, g.scc_count,
                        p.predicted_states
                    );
                }
                (None, Some(err)) => {
                    println!(
                        "  {}: analysis skipped ({err}); predicted ≤ {} state(s)",
                        p.role, p.predicted_states
                    );
                }
                (None, None) => {
                    println!("  {}: predicted ≤ {} state(s)", p.role, p.predicted_states);
                }
            }
        }
        if let Some(product) = a.predicted_product {
            println!("  predicted product ≤ {product} pair(s)");
        }
    }
    for d in &analysis.diagnostics {
        print!("{}", d.render(file, source));
    }
}

/// JSON rendering of a [`cspm::analyze::ScriptReport`], one object per run.
fn analysis_json(
    file: &str,
    analysis: &cspm::analyze::ScriptReport,
    errors: usize,
    warnings: usize,
) -> String {
    diag::json::object(|w| {
        w.key("file").string(file);
        w.key("rounds").number(analysis.rounds);
        w.key("definitions").array(|w| {
            for d in &analysis.definitions {
                w.object(|w| {
                    w.key("name").string(&d.name);
                    w.key("line").number(d.span.line);
                    w.key("col").number(d.span.col);
                    w.key("reachable").bool(d.reachable);
                    w.key("alphabet").array(|w| {
                        for event in &d.alphabet {
                            w.string(event);
                        }
                    });
                });
            }
        });
        w.key("assertions").array(|w| {
            for a in &analysis.assertions {
                w.object(|w| {
                    w.key("assertion").string(&a.description);
                    w.key("predicted_product");
                    match a.predicted_product {
                        Some(n) => w.number(n),
                        None => w.null(),
                    };
                    w.key("processes").array(|w| {
                        for p in &a.processes {
                            w.object(|w| {
                                w.key("role").string(p.role);
                                w.key("graph");
                                match &p.graph {
                                    Some(g) => w.object(|w| {
                                        w.key("states").number(g.states);
                                        w.key("transitions").number(g.transitions);
                                        w.key("tau_transitions").number(g.tau_transitions);
                                        w.key("scc_count").number(g.scc_count);
                                        w.key("tau_cycle_states").number(g.tau_cycle_states);
                                        w.key("divergent_states").number(g.divergent_states);
                                        w.key("deadlock_states").number(g.deadlock_states);
                                        w.key("divergence_free").bool(g.divergence_free());
                                        w.key("deadlock_free").bool(g.deadlock_free());
                                    }),
                                    None => w.null(),
                                };
                                w.key("compile_error");
                                match &p.compile_error {
                                    Some(e) => w.string(e),
                                    None => w.null(),
                                };
                                w.key("predicted_states").number(p.predicted_states);
                                w.key("estimate_exact").bool(p.estimate_exact);
                                w.key("components").number(p.components);
                                w.key("parallel_count").number(p.parallel_count);
                                w.key("sync_coupling").number(p.sync_coupling);
                            });
                        }
                    });
                });
            }
        });
        w.key("diagnostics").array(|w| {
            for d in &analysis.diagnostics {
                d.write_json(w, file);
            }
        });
        w.key("errors").number(errors);
        w.key("warnings").number(warnings);
    })
}

/// `path` as a one-job run of `kind` with the flags' thread count and
/// budgets.
fn one_job(kind: JobKind, path: &str, flags: &Flags) -> ResolvedJob {
    ResolvedJob {
        name: path.to_owned(),
        kind,
        script: PathBuf::from(path),
        spec: None,
        corpus: None,
        assertion: None,
        threads: flags.threads,
        max_states: flags.max_states,
        timeout_ms: flags.timeout_ms,
        chaos: None,
    }
}

/// The executor `check` and `run` share: the cache under `--cache-dir`
/// unless `--no-cache`, checkpointing every `--checkpoint-every` new
/// pairs, and resuming checkpoints as `resume` says.
fn executor(flags: &Flags, resume: fdrlite::ResumePolicy) -> Result<Executor, String> {
    Executor::with_resume(
        &ExecConfig {
            cache_dir: flags
                .cache_dir
                .as_ref()
                .filter(|_| !flags.no_cache)
                .map(PathBuf::from),
            checkpoint_every: flags.checkpoint_every,
        },
        resume,
    )
}

fn check(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let [script_path] = flags.positional.as_slice() else {
        return Err("check needs exactly one CSPm file".into());
    };
    install_sigterm_handler();
    let resume = match flags.resume.as_deref() {
        None => fdrlite::ResumePolicy::Off,
        Some(_) if flags.cache_dir.is_none() || flags.no_cache => {
            return Err("`--resume` needs `--cache-dir` (checkpoints live there)".into());
        }
        Some("auto") => fdrlite::ResumePolicy::Auto,
        Some(token) => fdrlite::ResumePolicy::Token(
            fdrlite::CheckId::from_token(token)
                .ok_or_else(|| format!("invalid resume token `{token}`"))?,
        ),
    };
    let mut executor = executor(&flags, resume)?;
    let job = one_job(JobKind::Check, script_path, &flags);
    let gate_script = |source: &str, diagnostics| {
        let findings = FileFindings {
            file: script_path.clone(),
            source: source.to_owned(),
            diagnostics,
        };
        gate(&[findings], flags.deny_warnings)
    };
    // Syntactic lints gate first, even when the script fails to load.
    let script = match executor.load(&job.script) {
        Ok(script) => script,
        Err(ExecError::Load {
            source,
            script,
            error,
        }) => {
            gate_script(&source, lint::lint_module(script.module()))?;
            return Err(error.to_string());
        }
        Err(e) => return Err(e.to_string()),
    };
    gate_script(&script.source, lint::lint_module(script.script.module()))?;
    if script.loaded.assertions().is_empty() {
        return Err("script contains no `assert` declarations".into());
    }
    // Semantic analysis before exploration, in the store the check then
    // compiles through (with the cache attached, so on-disk keys match
    // the check's): it compiles every operand, which the check reuses, and
    // classifies only the operands its findings judge (an `[FD=`
    // implementation, a property's process), whose classification the
    // check reads too. Analysis findings are ANA3xx warnings and follow
    // the same gating policy as the syntactic lints.
    let (_, analysis) = executor.analyze(&job).map_err(|e| e.to_string())?;
    gate_script(&script.source, analysis.diagnostics)?;
    let (script, results) = executor.check(&job).map_err(|e| e.to_string())?;
    let alphabet = script.loaded.alphabet();
    // JSON mode: stdout carries exactly one JSON object (assertion
    // verdicts in script order); diagnostics and stats stay on stderr.
    let json_mode = flags.format == OutputFormat::Json;
    let mut failures = 0;
    let mut inconclusive = 0;
    let mut cex_written = false;
    for r in &results {
        if let Some(cex) = r.verdict.counterexample() {
            failures += 1;
            if !json_mode {
                println!("assert {}  ...  FAIL", r.description);
                println!("  {}", cex.display(alphabet));
            }
            if let Some(path) = &flags.cex_json {
                if !cex_written {
                    let json =
                        faults::replay::counterexample_to_json(&r.description, cex, alphabet);
                    fs::write(path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
                    eprintln!("wrote {path}");
                    cex_written = true;
                }
            }
        } else if let Some(inc) = r.verdict.inconclusive() {
            inconclusive += 1;
            if !json_mode {
                println!("assert {}  ...  INCONCLUSIVE ({inc})", r.description);
                if let Some(token) = &inc.resume {
                    println!("  checkpoint saved; continue with `--resume {token}`");
                }
            }
        } else if !json_mode {
            println!("assert {}  ...  PASS", r.description);
        }
        if flags.stats {
            if let Some(stats) = &r.stats {
                eprintln!("  stats: {stats}");
            }
        }
    }
    if json_mode {
        println!(
            "{}",
            diag::json::object(|w| {
                w.key("script").string(script_path);
                w.key("assertions").array(|w| {
                    for r in &results {
                        w.object(|w| {
                            w.key("assertion").string(&r.description);
                            if let Some(cex) = r.verdict.counterexample() {
                                w.key("verdict").string("fail");
                                w.key("counterexample")
                                    .string(&cex.display(alphabet).to_string());
                            } else if let Some(inc) = r.verdict.inconclusive() {
                                w.key("verdict").string("inconclusive");
                                w.key("reason").string(&inc.to_string());
                                w.key("resume");
                                match &inc.resume {
                                    Some(token) => w.string(&token.to_string()),
                                    None => w.null(),
                                };
                            } else {
                                w.key("verdict").string("pass");
                            }
                        });
                    }
                });
                w.key("failures").number(failures);
                w.key("inconclusive").number(inconclusive);
            })
        );
    }
    if let Some(cache) = executor.cache() {
        let root = cache.root().display().to_string();
        for d in cache.take_diagnostics() {
            eprint!("{}", d.render(&root, ""));
        }
        if flags.stats {
            eprintln!(
                "disk cache: {} hit(s), {} miss(es), {} quarantined, {} evicted",
                cache.disk_hits(),
                cache.disk_misses(),
                cache.quarantined(),
                cache.evicted()
            );
        }
    }
    if flags.stats {
        let store = executor.store();
        eprintln!(
            "model store: {} hit(s), {} miss(es); analysis {} hit(s), {} miss(es) across {} assertion(s)",
            store.hits(),
            store.misses(),
            store.analysis_hits(),
            store.analysis_misses(),
            results.len()
        );
    }
    if let Some(path) = &flags.stats_json {
        let mut w = diag::json::Writer::new();
        w.array(|w| {
            for r in &results {
                w.object(|w| {
                    w.key("assertion").string(&r.description);
                    w.key("pass").bool(r.verdict.is_pass());
                    w.key("inconclusive").bool(r.verdict.is_inconclusive());
                    w.key("stats");
                    match &r.stats {
                        Some(stats) => stats.write_json(w),
                        None => {
                            w.null();
                        }
                    }
                });
            }
        });
        fs::write(path, format!("{}\n", w.finish()))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }
    if failures > 0 {
        Err(format!("{failures} assertion(s) failed"))
    } else if inconclusive > 0 {
        eprintln!("{inconclusive} assertion(s) inconclusive (budget exhausted)");
        Ok(ExitCode::from(EXIT_INCONCLUSIVE))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// `autocsp serve`: the fault-tolerant checking service (front-end +
/// worker farm). Blocks until SIGTERM, then drains and exits 0 (clean)
/// or 3 (jobs deferred to the next start).
fn serve_cmd(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    if !flags.positional.is_empty() {
        return Err(format!(
            "`serve` takes no positional arguments (got `{}`)",
            flags.positional[0]
        ));
    }
    let state_dir = PathBuf::from(
        flags
            .state_dir
            .unwrap_or_else(|| ".autocsp-service".to_owned()),
    );
    let mut config = service::server::ServerConfig::with_defaults(state_dir)?;
    config.addr = flags.addr.unwrap_or(config.addr);
    config.workers = flags.workers.unwrap_or(config.workers);
    config.cache_dir = flags.cache_dir.map(PathBuf::from).or(config.cache_dir);
    config.scripts_root = flags
        .scripts_root
        .map_or(config.scripts_root, PathBuf::from);
    config.queue_cap = flags.queue_cap.unwrap_or(config.queue_cap);
    config.heartbeat_ms = flags.heartbeat_ms.unwrap_or(config.heartbeat_ms);
    config.checkpoint_every = flags.checkpoint_every.or(config.checkpoint_every);
    config.retry.max_attempts = flags.retries.unwrap_or(config.retry.max_attempts);
    config.retry.seed = flags.seed.unwrap_or(config.retry.seed);
    config.default_threads = flags.threads;
    config.default_max_states = flags.max_states;
    config.default_timeout_ms = flags.timeout_ms;

    let server = service::server::Server::start(config)?;
    // The address line is the machine-readable hand-off to scripts and
    // tests (the port is usually ephemeral).
    println!("autocsp serve listening on http://{}", server.http_addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());

    install_sigterm_handler();
    while !fdrlite::interrupt_requested() {
        for d in server.orchestrator().take_diagnostics() {
            eprint!("{}", d.render("service", ""));
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("autocsp serve: draining (in-flight jobs checkpoint, pending jobs journal)");
    let pending = server.drain(std::time::Duration::from_secs(60));
    for d in server.orchestrator().take_diagnostics() {
        eprint!("{}", d.render("service", ""));
    }
    server.shutdown();
    if pending > 0 {
        eprintln!(
            "autocsp serve: {pending} job(s) deferred; restart with the same --state-dir to finish them"
        );
        Ok(ExitCode::from(EXIT_INCONCLUSIVE))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// `autocsp worker`: one farm worker, spawned by `serve`.
fn worker_cmd(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let connect = flags.connect.ok_or("`worker` needs `--connect`")?;
    let token = flags.token.ok_or("`worker` needs `--token`")?;
    // SIGTERM checkpoints the in-flight exploration; the verdict reports
    // interrupted and the orchestrator re-dispatches from the checkpoint.
    install_sigterm_handler();
    let config = service::worker::WorkerConfig {
        connect,
        token,
        exec: service::exec::ExecConfig {
            cache_dir: flags.cache_dir.map(PathBuf::from),
            checkpoint_every: flags.checkpoint_every,
        },
        heartbeat_ms: flags.heartbeat_ms.unwrap_or(200),
        die_after_states: flags.die_after_states,
    };
    match service::worker::run_worker(&config) {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(message) => {
            eprintln!("error: {message}");
            Ok(ExitCode::from(EXIT_INFRA))
        }
    }
}

/// Route `SIGTERM` to the checker's cooperative shutdown flag. The handler
/// performs a single relaxed atomic store (async-signal-safe); in-flight
/// exploration notices it at the next budget poll, writes its checkpoint
/// (when a cache is configured) and reports INCONCLUSIVE with a resume
/// token instead of dying mid-write.
#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" fn on_sigterm(_signum: i32) {
        fdrlite::request_interrupt();
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Clamp a job's own wall budget to what is left of the run's budget.
fn clamp_wall(job_ms: Option<u64>, remaining_ms: Option<u64>) -> Option<u64> {
    match (job_ms, remaining_ms) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// `--storage-faults SEED[:EVERY]` for `run`.
fn parse_storage_faults(spec: &str) -> Result<(u64, u64), String> {
    let (seed, every) = match spec.split_once(':') {
        Some((s, e)) => (s, Some(e)),
        None => (spec, None),
    };
    let seed = seed
        .parse()
        .map_err(|_| "`--storage-faults` needs SEED[:EVERY]".to_owned())?;
    let every = match every {
        Some(e) => e
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| "`--storage-faults` EVERY needs a number ≥ 1".to_owned())?,
        None => 1,
    };
    Ok((seed, every))
}

/// `autocsp run`: the manifest's jobs, in order, on one in-process
/// executor under the supervisor (retries, panic isolation, run budget,
/// journal). The service runs the same jobs on the same executor.
#[allow(clippy::too_many_lines)]
fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    use fdrlite::supervisor::{JobStatus, RetryPolicy};
    use service::supervisor as sup;

    let flags = parse_flags(args)?;
    let [manifest_path] = flags.positional.as_slice() else {
        return Err("run needs exactly one jobs manifest (TOML)".into());
    };
    install_sigterm_handler();
    let manifest_source = read(manifest_path)?;
    let base_dir = Path::new(manifest_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let manifest = match cspm::manifest::Manifest::parse(&manifest_source, &base_dir) {
        Ok(m) => m,
        Err(e) => {
            let d = cspm_diagnostic(sup::MANIFEST_ERROR, &e);
            eprint!("{}", d.render(manifest_path, &manifest_source));
            return Err(format!("cannot load manifest `{manifest_path}`"));
        }
    };
    let jobs = service::resolve_jobs(
        &manifest,
        &service::JobDefaults {
            threads: flags.threads,
            max_states: flags.max_states,
            timeout_ms: flags.timeout_ms,
            spec: flags.spec.clone(),
        },
    );

    // One executor (model store, checker, optional disk cache) runs every
    // job, so jobs over the same script reuse its compiled and normalised
    // models. Per-check checkpoints are resumed only under `--resume`.
    let resuming = flags.resume.is_some();
    let mut executor = executor(
        &flags,
        if resuming {
            fdrlite::ResumePolicy::Auto
        } else {
            fdrlite::ResumePolicy::Off
        },
    )?;
    if let Some(spec) = &flags.storage_faults {
        let Some(cache) = executor.cache() else {
            return Err(
                "`--storage-faults` needs `--cache-dir` (the fault hook lives on the cache)".into(),
            );
        };
        let (seed, every) = parse_storage_faults(spec)?;
        cache.set_fault_hook(Arc::new(faults::storage::StorageFaultEngine::new(
            seed,
            &[],
            every,
        )));
    }

    // The journal lives in the cache when there is one, else next to the
    // manifest. Entries are keyed by job content, so a resumed run replays
    // only jobs whose scripts, corpora and budgets are unchanged; a fresh
    // (non-`--resume`) run starts from an empty journal.
    let journal_path = match executor.cache() {
        Some(cache) => {
            let manifest_id = fs::canonicalize(manifest_path)
                .map_or_else(|_| manifest_path.clone(), |p| p.display().to_string());
            cache.root().join(format!(
                "jobs-{:016x}.journal",
                fdrlite::persist::fnv1a64(manifest_id.as_bytes())
            ))
        }
        None => PathBuf::from(format!("{manifest_path}.journal")),
    };
    let mut journal_diags = Vec::new();
    let mut journal = if resuming {
        service::journal::ServiceJournal::open(&journal_path, &mut journal_diags)
    } else {
        service::journal::ServiceJournal::fresh(&journal_path)
    };

    let defaults = RetryPolicy::default();
    let supervisor = sup::Supervisor::new(sup::SupervisorConfig {
        retry: RetryPolicy {
            max_attempts: manifest.run.retries.unwrap_or(defaults.max_attempts).max(1),
            base_delay_ms: manifest.run.retry_base_ms.unwrap_or(defaults.base_delay_ms),
            max_delay_ms: manifest.run.retry_max_ms.unwrap_or(defaults.max_delay_ms),
            seed: manifest.run.retry_seed.or(flags.seed).unwrap_or(0),
        },
        run_timeout_ms: manifest.run.run_timeout_ms,
    });
    let outcome = supervisor.run(&jobs, &mut journal, |job, ctx| {
        assert!(
            flags.force_panic.as_deref() != Some(job.name.as_str()),
            "forced panic (--force-panic)"
        );
        let job = service::ResolvedJob {
            timeout_ms: clamp_wall(job.timeout_ms, ctx.remaining_ms),
            ..job.clone()
        };
        let report = executor.run(&job, ctx.attempt);
        let notes = executor.take_notes();
        eprint!("{}", notes.findings);
        for token in notes.resume_tokens {
            eprintln!(
                "job {}: checkpoint saved; continue with `autocsp run --resume` \
                 (or `autocsp check --resume {token}`)",
                job.name
            );
        }
        report
    });

    // Diagnostics (SUP5xx, SRV603, STO4xx) go to stderr; stdout carries
    // only the deterministic verdict lines so disturbed and undisturbed
    // runs diff byte-identical.
    for d in journal_diags.iter().chain(&outcome.diagnostics) {
        eprint!("{}", d.render(manifest_path, &manifest_source));
    }
    if let Some(cache) = executor.cache() {
        let root = cache.root().display().to_string();
        for d in cache.take_diagnostics() {
            eprint!("{}", d.render(&root, ""));
        }
        if flags.stats {
            eprintln!(
                "disk cache: {} hit(s), {} miss(es), {} quarantined, {} evicted, {} lock(s) stolen",
                cache.disk_hits(),
                cache.disk_misses(),
                cache.quarantined(),
                cache.evicted(),
                cache.locks_stolen()
            );
        }
    }
    if flags.stats {
        let replayed = outcome.jobs.iter().filter(|j| j.replayed).count();
        eprintln!(
            "supervisor: {} job(s), {} replayed from journal, {} transient retry(ies), {} deferred",
            outcome.jobs.len(),
            replayed,
            outcome.retries,
            outcome.deferred.len()
        );
    }

    let json_mode = flags.format == OutputFormat::Json;
    let mut passed = 0_u32;
    let mut refuted = 0_u32;
    let mut inconclusive = 0_u32;
    let mut failed = 0_u32;
    for job in &outcome.jobs {
        if !json_mode {
            for line in &job.lines {
                println!("{line}");
            }
            println!("job {}  ...  {}", job.name, job.status);
        }
        match job.status {
            JobStatus::Passed => passed += 1,
            JobStatus::Refuted => refuted += 1,
            JobStatus::Inconclusive => inconclusive += 1,
            JobStatus::Failed => failed += 1,
        }
    }
    if json_mode {
        // One JSON object on stdout; everything else is on stderr. The
        // object is deterministic for a given manifest outcome, so
        // disturbed and resumed runs still diff byte-identical.
        let json = diag::json::object(|w| {
            w.key("manifest").string(manifest_path);
            w.key("jobs").array(|w| {
                for job in &outcome.jobs {
                    w.object(|w| {
                        w.key("name").string(&job.name);
                        w.key("status").string(job.status.label());
                        w.key("replayed").bool(job.replayed);
                        w.key("lines").array(|w| {
                            for line in &job.lines {
                                w.string(line);
                            }
                        });
                    });
                }
            });
            w.key("passed").number(passed);
            w.key("refuted").number(refuted);
            w.key("inconclusive").number(inconclusive);
            w.key("failed").number(failed);
            w.key("deferred").array(|w| {
                for name in &outcome.deferred {
                    w.string(name);
                }
            });
        });
        println!("{json}");
    } else {
        println!(
            "run: {} job(s): {passed} passed, {refuted} refuted, {inconclusive} inconclusive, \
             {failed} failed",
            outcome.jobs.len()
        );
    }
    if outcome.deferred.is_empty() {
        journal.remove();
    } else {
        eprintln!(
            "{} job(s) deferred: {}; finish with `autocsp run --resume {manifest_path}`",
            outcome.deferred.len(),
            outcome.deferred.join(", ")
        );
    }

    if outcome.any_failed() {
        eprintln!("{failed} job(s) failed (infrastructure)");
        return Ok(ExitCode::from(EXIT_INFRA));
    }
    if outcome.any_refuted() {
        return Err(format!("{refuted} job(s) refuted"));
    }
    if outcome.any_inconclusive() {
        return Ok(ExitCode::from(EXIT_INCONCLUSIVE));
    }
    Ok(ExitCode::SUCCESS)
}

fn compose(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let [gateway_path, ecu_path] = flags.positional.as_slice() else {
        return Err("compose needs a gateway CAPL file and an ECU CAPL file".into());
    };
    let db = flags
        .dbc
        .as_deref()
        .map(|p| candb::parse(&read(p)?).map_err(|e| e.to_string()))
        .transpose()?;

    let mut findings = Vec::new();
    let mut programs = Vec::new();
    for path in [gateway_path, ecu_path] {
        let source = read(path)?;
        let program = capl::parse(&source).map_err(|e| e.to_string())?;
        let mut diagnostics = lint::lint_program(&program);
        if let Some(db) = &db {
            diagnostics.extend(lint::cross_check(&program, db));
        }
        findings.push(FileFindings {
            file: path.clone(),
            source,
            diagnostics,
        });
        programs.push(program);
    }
    gate(&findings, flags.deny_warnings)?;

    let ecu = programs.pop().expect("two programs parsed");
    let gateway = programs.pop().expect("two programs parsed");
    let mut builder = SystemBuilder::new()
        .node(NodeSpec::gateway(
            &node_name_from(gateway_path, "VMG"),
            gateway,
        ))
        .node(NodeSpec::ecu(&node_name_from(ecu_path, "ECU"), ecu));
    if let Some(db) = db {
        builder = builder.database(db);
    }
    if let Some(capacity) = flags.buffered {
        builder = builder.buffered(capacity);
    }
    let out = builder.build().map_err(|e| e.to_string())?;
    emit(&flags.output, &out.script)?;
    Ok(ExitCode::SUCCESS)
}

/// Parse and validate a fault plan: parse errors and error-severity lints
/// (cross-checked against `db` when present) are fatal; warnings render to
/// stderr.
fn load_fault_plan(path: &str, db: Option<&candb::Database>) -> Result<FaultPlan, String> {
    let source = read(path)?;
    let plan = match FaultPlan::parse(&source) {
        Ok(plan) => plan,
        Err(parse_errors) => {
            for d in &parse_errors {
                eprint!("{}", d.render(path, &source));
            }
            return Err(format!("{} fault-plan error(s)", parse_errors.len()));
        }
    };
    let findings = lint_plan(&plan, db);
    for d in &findings {
        eprint!("{}", d.render(path, &source));
    }
    let errors = findings
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if errors > 0 {
        return Err(format!("{errors} fault-plan error(s)"));
    }
    Ok(plan)
}

fn simulate(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    if flags.positional.is_empty() {
        return Err("simulate needs at least one CAPL file".into());
    }
    let db = flags
        .dbc
        .as_deref()
        .map(|p| candb::parse(&read(p)?).map_err(|e| e.to_string()))
        .transpose()?;
    let plan = flags
        .faults
        .as_deref()
        .map(|p| load_fault_plan(p, db.as_ref()))
        .transpose()?;

    let mut sim = canoe_sim::Simulation::new(db);
    for path in &flags.positional {
        let program = capl::parse(&read(path)?).map_err(|e| e.to_string())?;
        sim.add_node(&node_name_from(path, "NODE"), program)
            .map_err(|e| e.to_string())?;
    }
    match &plan {
        Some(plan) => {
            faults::apply_plan(&mut sim, plan, flags.seed).map_err(|e| e.to_string())?;
        }
        None => {
            if let Some(seed) = flags.seed {
                sim.set_seed(seed);
            }
        }
    }
    sim.run_for(flags.for_ms * 1_000)
        .map_err(|e| e.to_string())?;
    for entry in sim.trace() {
        use canoe_sim::TraceEvent::*;
        let text = match &entry.event {
            Queued { node, message, .. } => format!("{node:>8}  queued    {message}"),
            Transmit {
                node, message, id, ..
            } => {
                format!("{node:>8}  transmit  {message} (0x{id:x})")
            }
            Receive { node, message, .. } => format!("{node:>8}  receive   {message}"),
            Log { node, text } => format!("{node:>8}  log       {text}"),
            TimerFired { node, timer } => format!("{node:>8}  timer     {timer}"),
            Intercepted { action, id } => format!("{:>8}  intercept {action} (0x{id:x})", "<mitm>"),
            Injected { message, id, .. } => {
                format!("{:>8}  inject    {message} (0x{id:x})", "<extern>")
            }
            Fault { fault, action, id } => {
                format!("{:>8}  fault     [{fault}] {action} (0x{id:x})", "<fault>")
            }
        };
        println!("{:>9} µs  {text}", entry.time_us);
    }

    if let Some(model_path) = &flags.conformance {
        let Some(plan) = &plan else {
            return Err("`--conformance` needs `--faults` (the plan's [[map]] rules)".into());
        };
        let Some(conf) = &plan.conformance else {
            return Err(format!(
                "fault plan `{}` has no [conformance] section",
                plan.name
            ));
        };
        let model_source = read(model_path)?;
        let loaded = cspm::Script::parse(&model_source)
            .map_err(|e| e.to_string())?
            .load()
            .map_err(|e| e.to_string())?;
        // One trace is just a batch of one: route through the batch engine so
        // `simulate --conformance` and `conform` share one code path (and one
        // set of stats counters).
        let store = fdrlite::ModelStore::new();
        let mut run = faults::batch::BatchRun::new(&loaded, &conf.spec, &Checker::new(), &store)
            .map_err(|e| e.to_string())?;
        let (index, events) = run.push_entries(sim.trace(), &conf.rules);
        let report = run.finish(flags.threads);
        eprintln!(
            "conformance: lifted {} event(s): ⟨{}⟩",
            events.len(),
            events.join(", ")
        );
        if flags.stats {
            eprintln!("conformance stats: {}", report.stats);
        }
        match &report.verdicts[index] {
            ConformanceVerdict::Conformant => {
                println!("conformance {} [T= ⟨trace⟩  ...  PASS", report.spec);
            }
            ConformanceVerdict::UnknownEvent { event, index } => {
                println!("conformance {} [T= ⟨trace⟩  ...  FAIL", report.spec);
                return Err(format!(
                    "trace event #{index} `{event}` is not in the model's alphabet"
                ));
            }
            ConformanceVerdict::Refuted(cex) => {
                println!("conformance {} [T= ⟨trace⟩  ...  FAIL", report.spec);
                println!("  {}", cex.display(loaded.alphabet()));
                return Err("simulated trace is not a trace of the model".into());
            }
            ConformanceVerdict::Inconclusive(inc) => {
                println!(
                    "conformance {} [T= ⟨trace⟩  ...  INCONCLUSIVE ({inc})",
                    report.spec
                );
                return Ok(ExitCode::from(EXIT_INCONCLUSIVE));
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn conform(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let Some((model_path, corpus_paths)) = flags.positional.split_first() else {
        return Err("conform needs a CSPm model file".into());
    };

    let spec_name = match (&flags.spec, &flags.faults) {
        (Some(spec), _) => spec.clone(),
        (None, Some(plan_path)) => {
            let plan = load_fault_plan(plan_path, None)?;
            let conf = plan.conformance.as_ref().ok_or_else(|| {
                format!("fault plan `{}` has no [conformance] section", plan.name)
            })?;
            conf.spec.clone()
        }
        (None, None) => {
            return Err(
                "conform needs `--spec <NAME>` or `--faults <plan>` (its [conformance] spec)"
                    .into(),
            )
        }
    };

    // Corpus sources in a deterministic order: positional files (command-line
    // order), then `--traces-dir` (sorted by file name), then stdin.
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in corpus_paths {
        sources.push((path.clone(), read(path)?));
    }
    if let Some(dir) = &flags.traces_dir {
        let paths = service::exec::corpus_files(Path::new(dir))
            .map_err(|e| format!("cannot read directory `{dir}`: {e}"))?;
        for path in paths {
            let path = path.display().to_string();
            let text = read(&path)?;
            sources.push((path, text));
        }
    }
    if flags.stdin {
        use std::io::Read as _;
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        sources.push(("<stdin>".to_owned(), text));
    }
    if sources.is_empty() {
        return Err(
            "conform needs a corpus: positional `.jsonl` files, `--traces-dir`, or `--stdin`"
                .into(),
        );
    }

    let job = ResolvedJob {
        spec: Some(spec_name),
        ..one_job(JobKind::Conform, model_path, &flags)
    };
    let (script, conformance) = Executor::new(&ExecConfig::default())?
        .conform(&job, &sources)
        .map_err(|e| e.to_string())?;
    let (report, origins) = (&conformance.report, &conformance.origins);
    let mut findings: Vec<FileFindings> = sources
        .into_iter()
        .zip(conformance.findings)
        .map(|((file, source), diagnostics)| FileFindings {
            file,
            source,
            diagnostics,
        })
        .collect();
    if origins.is_empty() {
        findings[0].diagnostics.push(
            Diagnostic::warning(
                faults::codes::CORPUS_EMPTY,
                Span::point(1, 1),
                "trace corpus contains no traces",
            )
            .with_note("every verdict set over an empty corpus is vacuously conformant"),
        );
    }
    for (verdict, origin) in report.verdicts.iter().zip(origins) {
        if let ConformanceVerdict::UnknownEvent { event, index } = verdict {
            findings[origin.source]
                .diagnostics
                .push(Diagnostic::warning(
                    faults::codes::CORPUS_UNKNOWN_EVENT,
                    Span::point(origin.line, 1),
                    format!(
                        "trace `{}` event #{index} `{event}` is not in the model's alphabet",
                        origin.label
                    ),
                ));
        }
    }
    for f in &mut findings {
        cspm::analyze::sort_diagnostics(&mut f.diagnostics);
    }
    for f in &findings {
        for d in &f.diagnostics {
            eprint!("{}", d.render(&f.file, &f.source));
        }
    }
    let (_, warnings) = tally(findings.iter().flat_map(|f| &f.diagnostics));

    let alphabet = script.loaded.alphabet();
    let refuted = report.stats.refuted;
    let unknown = report.stats.unknown_event;
    let inconclusive = report
        .verdicts
        .iter()
        .filter(|v| matches!(v, ConformanceVerdict::Inconclusive(_)))
        .count();
    let nonconformant = refuted + unknown;

    match flags.format {
        OutputFormat::Text => {
            for (verdict, origin) in report.verdicts.iter().zip(origins) {
                let label = &origin.label;
                match verdict {
                    ConformanceVerdict::Conformant => {}
                    ConformanceVerdict::Refuted(cex) => {
                        println!("trace {label}  ...  FAIL");
                        println!("  {}", cex.display(alphabet));
                    }
                    ConformanceVerdict::UnknownEvent { event, index } => {
                        println!("trace {label}  ...  FAIL");
                        println!("  (event #{index} `{event}` is not in the model's alphabet)");
                    }
                    ConformanceVerdict::Inconclusive(inc) => {
                        println!("trace {label}  ...  INCONCLUSIVE ({inc})");
                    }
                }
            }
            let outcome = if nonconformant > 0 { "FAIL" } else { "PASS" };
            println!(
                "conformance {} [T= corpus  ...  {outcome}: {} trace(s), {} conformant, \
                 {} refuted, {} unknown-event",
                report.spec, report.stats.traces, report.stats.conformant, refuted, unknown
            );
        }
        OutputFormat::Json => {
            // Deliberately timing-free: the object is a pure function of the
            // (model, corpus) pair, so runs at different `--threads` counts —
            // or on different machines — diff byte-identical.
            let json = diag::json::object(|w| {
                w.key("spec").string(&report.spec);
                w.key("traces").number(report.stats.traces);
                w.key("conformant").number(report.stats.conformant);
                w.key("refuted").number(refuted);
                w.key("unknown_event").number(unknown);
                w.key("verdicts").array(|w| {
                    for (verdict, origin) in report.verdicts.iter().zip(origins) {
                        w.object(|w| {
                            w.key("trace").string(&origin.label);
                            match verdict {
                                ConformanceVerdict::Conformant => {
                                    w.key("verdict").string("conformant");
                                }
                                ConformanceVerdict::Refuted(cex) => {
                                    w.key("verdict").string("refuted");
                                    w.key("counterexample")
                                        .string(&cex.display(alphabet).to_string());
                                }
                                ConformanceVerdict::UnknownEvent { event, index } => {
                                    w.key("verdict").string("unknown_event");
                                    w.key("event").string(event);
                                    w.key("index").number(index);
                                }
                                ConformanceVerdict::Inconclusive(inc) => {
                                    w.key("verdict").string("inconclusive");
                                    w.key("reason").string(&inc.to_string());
                                }
                            }
                        });
                    }
                });
            });
            println!("{json}");
        }
    }

    if flags.stats {
        eprintln!("conformance stats: {}", report.stats);
    }
    if let Some(path) = &flags.stats_json {
        fs::write(path, format!("{}\n", report.stats.to_json()))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }

    if nonconformant > 0 {
        Err(format!(
            "{nonconformant} of {} trace(s) do not conform to {}",
            report.stats.traces, report.spec
        ))
    } else if inconclusive > 0 {
        Ok(ExitCode::from(EXIT_INCONCLUSIVE))
    } else if flags.deny_warnings && warnings > 0 {
        Err(format!(
            "{warnings} corpus warning(s) denied (--deny-warnings)"
        ))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn replay_cmd(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let Some((cex_path, node_paths)) = flags.positional.split_first() else {
        return Err("replay needs a counterexample JSON file and at least one CAPL file".into());
    };
    if node_paths.is_empty() {
        return Err("replay needs at least one CAPL file (the node under test)".into());
    }
    let file = faults::replay::ReplayFile::parse(&read(cex_path)?).map_err(|e| e.to_string())?;
    let db = flags
        .dbc
        .as_deref()
        .map(|p| candb::parse(&read(p)?).map_err(|e| e.to_string()))
        .transpose()?
        .ok_or("replay needs `--dbc` to map events onto frames")?;

    let mut sim = canoe_sim::Simulation::new(Some(db.clone()));
    let mut first_node = None;
    for path in node_paths {
        let program = capl::parse(&read(path)?).map_err(|e| e.to_string())?;
        let name = node_name_from(path, "NODE");
        first_node.get_or_insert_with(|| name.clone());
        sim.add_node(&name, program).map_err(|e| e.to_string())?;
    }
    if let Some(seed) = flags.seed {
        sim.set_seed(seed);
    }

    let mut config = faults::replay::ReplayConfig::for_node(
        &flags
            .node
            .or(first_node)
            .ok_or("replay could not determine the node under test")?,
    );
    if !flags.stimulus.is_empty() {
        config.stimulus_prefixes = flags.stimulus.clone();
    }
    if !flags.expect.is_empty() {
        config.expect_prefixes = flags.expect.clone();
    }
    config.gap_us = flags.gap_us;

    eprintln!("replaying `{}` ({})", file.assertion, file.kind);
    let outcome =
        faults::replay::replay(&mut sim, &db, &file.events, &config).map_err(|e| e.to_string())?;
    println!(
        "injected ⟨{}⟩, expected ⟨{}⟩, observed ⟨{}⟩",
        outcome.injected.join(", "),
        outcome.expected.join(", "),
        outcome.observed.join(", ")
    );
    if !outcome.is_conclusive() {
        // Uniform exit-code contract: 3 whenever a run can neither confirm
        // nor refute (same as a budget-exhausted `check` assertion or an
        // inconclusive `simulate --conformance`).
        println!("replay INCONCLUSIVE: no expected responses to observe");
        Ok(ExitCode::from(EXIT_INCONCLUSIVE))
    } else if outcome.reproduced {
        println!("violation REPRODUCED on the simulated bus");
        Ok(ExitCode::SUCCESS)
    } else {
        Err("violation did not reproduce".into())
    }
}
