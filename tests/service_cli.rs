//! End-to-end acceptance of `autocsp serve`: the checking service survives a
//! SIGKILLed worker and a SIGTERMed service process with verdicts
//! byte-identical to a serial `autocsp run` over the same manifest. This is
//! the repo's headline robustness guarantee lifted to the deployment shape:
//! infrastructure loss costs time, never a verdict.
#![cfg(unix)]

use std::fmt::Write as _;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use diag::json::{self, Value};
use service::http::client_request;

fn autocsp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autocsp"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autocsp-serve-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// An interleaving of eight 4-event cycles: 65 536 reachable states, a few
/// seconds of serial exploration in a debug build — long enough that a
/// signal aimed at a busy worker reliably lands mid-exploration.
fn model_source() -> String {
    let procs = 8;
    let events: Vec<String> = (0..procs)
        .flat_map(|p| (0..4).map(move |i| format!("e{p}_{i}")))
        .collect();
    let mut out = format!("channel {}\n", events.join(", "));
    for p in 0..procs {
        let chain: Vec<String> = (0..4).map(|i| format!("e{p}_{i}")).collect();
        let _ = writeln!(out, "P{p} = {} -> P{p}", chain.join(" -> "));
    }
    let sys: Vec<String> = (0..procs).map(|p| format!("P{p}")).collect();
    let _ = writeln!(out, "SYS = {}", sys.join(" ||| "));
    let runall: Vec<String> = events.iter().map(|e| format!("{e} -> RUNALL")).collect();
    let _ = writeln!(out, "RUNALL = {}", runall.join(" [] "));
    out.push_str("assert RUNALL [T= SYS\n");
    out
}

const MANIFEST: &str = "[run]\nthreads = 1\n\n\
                        [[job]]\nname = \"big\"\nkind = \"check\"\nscript = \"big.csp\"\n";

fn write_inputs(dir: &Path) {
    fs::write(dir.join("big.csp"), model_source()).expect("write model");
    fs::write(dir.join("jobs.toml"), MANIFEST).expect("write manifest");
}

/// The serial `autocsp run` verdict lines for the manifest's one job —
/// the reference every service run must reproduce byte for byte.
fn reference_lines() -> &'static Vec<String> {
    static REF: OnceLock<Vec<String>> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = scratch("reference");
        write_inputs(&dir);
        let out = autocsp()
            .args([
                "run",
                dir.join("jobs.toml").to_str().unwrap(),
                "--format",
                "json",
                "--no-cache",
            ])
            .output()
            .expect("autocsp runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("run json");
        let job = &doc.get("jobs").unwrap().as_array().unwrap()[0];
        assert_eq!(job.get("status").and_then(Value::as_str), Some("passed"));
        job.get("lines")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|l| l.as_str().unwrap().to_string())
            .collect()
    })
}

/// Spawn `autocsp serve` with two workers, checkpointing every
/// `checkpoint_every` pairs, and read the bound address off its first
/// stdout line (the machine-readable handoff).
fn spawn_serve(dir: &Path, state: &Path, checkpoint_every: &str) -> (Child, String) {
    let mut child = autocsp()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--state-dir",
            state.to_str().unwrap(),
            "--scripts-root",
            dir.to_str().unwrap(),
            "--heartbeat-ms",
            "50",
            "--checkpoint-every",
            checkpoint_every,
            "--threads",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut line)
        .expect("read handoff line");
    let addr = line
        .trim()
        .strip_prefix("autocsp serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected handoff line: {line:?}"))
        .to_string();
    (child, addr)
}

fn signal(pid: u32, sig: &str) {
    let status = Command::new("kill")
        .args([sig, &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill {sig} {pid}");
}

fn submit(addr: &str) -> String {
    let (status, body) = client_request(addr, "POST", "/v1/jobs", MANIFEST).unwrap();
    assert_eq!(status, 202, "{body}");
    json::parse(&body)
        .unwrap()
        .get("jobs")
        .unwrap()
        .as_array()
        .unwrap()[0]
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

fn health(addr: &str) -> Value {
    let (status, body) = client_request(addr, "GET", "/v1/health", "").unwrap();
    assert_eq!(status, 200, "{body}");
    json::parse(&body).unwrap()
}

/// Poll `/v1/health` until some worker reports itself busy, returning its
/// pid. The 65k-state job keeps a worker busy for seconds, so this never
/// races the verdict.
fn wait_for_busy_worker(addr: &str) -> u32 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let doc = health(addr);
        let workers = doc.get("workers").unwrap().as_array().unwrap();
        if let Some(w) = workers
            .iter()
            .find(|w| w.get("busy").unwrap().as_str().is_some())
        {
            return u32::try_from(w.get("pid").unwrap().as_u64().unwrap()).unwrap();
        }
        assert!(Instant::now() < deadline, "no worker ever went busy");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_done_lines(addr: &str, id: &str) -> Vec<String> {
    let (status, body) =
        client_request(addr, "GET", &format!("/v1/jobs/{id}?wait=120"), "").unwrap();
    assert_eq!(status, 200, "{body}");
    let view = json::parse(&body).unwrap();
    assert_eq!(
        view.get("state").and_then(Value::as_str),
        Some("done"),
        "{body}"
    );
    assert_eq!(
        view.get("status").and_then(Value::as_str),
        Some("passed"),
        "{body}"
    );
    view.get("lines")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|l| l.as_str().unwrap().to_string())
        .collect()
}

#[test]
fn sigkilled_worker_hands_off_to_reference_verdicts() {
    let dir = scratch("kill");
    write_inputs(&dir);
    let state = dir.join("state");
    let (serve, addr) = spawn_serve(&dir, &state, "2000");

    let id = submit(&addr);
    let victim = wait_for_busy_worker(&addr);
    assert_ne!(
        victim,
        serve.id(),
        "victim must be a worker, not the service"
    );
    signal(victim, "-9");

    let lines = lines_after_worker_loss(serve, &addr, &id);
    assert_eq!(&lines, reference_lines(), "handed-off verdict diverged");
}

/// The verdict lines of job `id`, once the service has counted the worker
/// it lost; then the service exits cleanly on SIGTERM.
fn lines_after_worker_loss(mut serve: Child, addr: &str, id: &str) -> Vec<String> {
    let lines = wait_done_lines(addr, id);
    let lost = health(addr)
        .get("counters")
        .and_then(|c| c.get("workers_lost"))
        .and_then(Value::as_u64)
        .unwrap();
    assert!(lost >= 1, "the SIGKILL was never noticed");
    // Nothing pending: SIGTERM is a clean exit 0.
    signal(serve.id(), "-TERM");
    assert_eq!(serve.wait().expect("serve exits").code(), Some(0));
    lines
}

/// Eight interleaved 3-cycles against a 1,200-node cyclic specification
/// (`ring_script(8, 1200)` of tests/crash_matrix.rs): 2,624,401 pairs,
/// about 5 s of exploration in a debug build.
fn ring_source() -> String {
    let names: Vec<char> = ('a'..='h').collect();
    let channels: Vec<String> = names.iter().map(char::to_string).collect();
    let mut out = format!(
        "datatype T = t1 | t2 | t3\nchannel {} : T\n",
        channels.join(", ")
    );
    for n in &names {
        let u = n.to_ascii_uppercase();
        let _ = writeln!(out, "P{u} = {n}.t1 -> {n}.t2 -> {n}.t3 -> P{u}");
    }
    let m = 1200;
    for i in 0..m {
        let choices: Vec<String> = names
            .iter()
            .map(|n| format!("{n}?x -> SPEC{}", (i + 1) % m))
            .collect();
        let _ = writeln!(out, "SPEC{i} = {}", choices.join(" [] "));
    }
    let procs: Vec<String> = names
        .iter()
        .map(|n| format!("P{}", n.to_ascii_uppercase()))
        .collect();
    let _ = writeln!(out, "SYS = {}\nassert SPEC0 [T= SYS", procs.join(" ||| "));
    out
}

/// A scratch directory holding the ring and its manifest, and a serial
/// `autocsp run` of it, started to run beside the service under test.
fn ring_inputs(name: &str) -> (PathBuf, Child) {
    let dir = scratch(name);
    fs::write(dir.join("big.csp"), ring_source()).expect("write model");
    fs::write(dir.join("jobs.toml"), MANIFEST).expect("write manifest");
    let reference = autocsp()
        .arg("run")
        .arg(dir.join("jobs.toml"))
        .args(["--format", "json", "--no-cache"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("autocsp runs");
    (dir, reference)
}

/// The verdict lines of a reference run that [`ring_inputs`] started.
fn ring_reference(reference: Child) -> Vec<String> {
    let ran = reference.wait_with_output().expect("reference run");
    assert_eq!(ran.status.code(), Some(0));
    let mut ran = run_verdicts(&ran.stdout);
    assert_eq!(ran[0].1, "passed");
    ran.swap_remove(0).2
}

/// A worker killed once it has logged a checkpoint of a multi-second check
/// to the cache both workers share: the other worker takes the job over
/// from there, to the verdict of a serial `autocsp run`.
#[test]
fn sigkilled_worker_hands_a_checkpointed_check_to_the_other_worker() {
    let (dir, reference) = ring_inputs("kill-ring");
    let state = dir.join("state");
    let (serve, addr) = spawn_serve(&dir, &state, "200000");

    let id = submit(&addr);
    let victim = wait_for_busy_worker(&addr);
    let checkpoints = state.join("cache").join("checkpoints");
    let deadline = Instant::now() + Duration::from_secs(60);
    while fs::read_dir(&checkpoints).map_or(true, |mut d| d.next().is_none()) {
        assert!(Instant::now() < deadline, "no checkpoint was ever logged");
        std::thread::sleep(Duration::from_millis(10));
    }
    signal(victim, "-9");

    let lines = lines_after_worker_loss(serve, &addr, &id);
    assert_eq!(
        lines,
        ring_reference(reference),
        "handed-off verdict diverged"
    );
}

/// SIGTERM the service while a worker explores, then restart it on the
/// same state directory: the resumed job must reach the serial verdict,
/// on the 65,536-state interleaving and on the 2,624,401-pair ring.
#[test]
fn sigterm_drains_and_restart_resumes_to_reference_verdicts() {
    let dir = scratch("drain");
    write_inputs(&dir);
    let lines = drained_and_resumed_lines(&dir, "2000");
    assert_eq!(&lines, reference_lines(), "resumed verdict diverged");

    let (dir, reference) = ring_inputs("drain-ring");
    let lines = drained_and_resumed_lines(&dir, "200000");
    assert_eq!(
        lines,
        ring_reference(reference),
        "resumed ring verdict diverged"
    );
}

/// The verdict lines of the manifest's one job in `dir`, served, drained
/// by SIGTERM once a worker is busy, and finished by a restarted service.
fn drained_and_resumed_lines(dir: &Path, checkpoint_every: &str) -> Vec<String> {
    let state = dir.join("state");
    let (mut serve, addr) = spawn_serve(dir, &state, checkpoint_every);

    let id = submit(&addr);
    wait_for_busy_worker(&addr);
    signal(serve.id(), "-TERM");
    let status = serve.wait().expect("serve exits");
    // Mid-exploration SIGTERM drains the job to its checkpoint and defers
    // it (exit 3). If the verdict won an unlikely race, the exit is 0 and
    // the restart below simply replays it from the journal.
    assert!(
        matches!(status.code(), Some(0 | 3)),
        "unexpected serve exit {:?}",
        status.code()
    );

    let (mut serve, addr) = spawn_serve(dir, &state, checkpoint_every);
    let lines = wait_done_lines(&addr, &id);

    signal(serve.id(), "-TERM");
    let status = serve.wait().expect("serve exits");
    assert_eq!(status.code(), Some(0));
    lines
}

/// `(name, status, lines)` for every job of a `run --format json` object.
fn run_verdicts(stdout: &[u8]) -> Vec<(String, String, Vec<String>)> {
    let text = String::from_utf8_lossy(stdout);
    let doc = json::parse(text.trim()).unwrap_or_else(|e| panic!("{e}: {text}"));
    doc.get("jobs")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(verdict)
        .collect()
}

/// `(name, status, lines)` of one job object (a `run` job or a served
/// job view).
fn verdict(job: &Value) -> (String, String, Vec<String>) {
    let text = |key| job.get(key).and_then(Value::as_str).unwrap().to_string();
    let lines = job.get("lines").and_then(Value::as_array).unwrap();
    let lines = lines.iter().map(|l| l.as_str().unwrap().to_string());
    (text("name"), text("status"), lines.collect())
}

#[test]
fn every_job_kind_reads_the_same_from_run_and_serve() {
    let supervise = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/supervise");
    let manifest = fs::read_to_string(supervise.join("jobs.toml")).expect("example manifest");
    let dir = scratch("parity");
    let (mut serve, addr) = spawn_serve(&supervise, &dir.join("state"), "2000");

    let (status, body) = client_request(&addr, "POST", "/v1/jobs", &manifest).unwrap();
    assert_eq!(status, 202, "{body}");
    let accepted = json::parse(&body).unwrap();
    let served: Vec<_> = accepted
        .get("jobs")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|job| {
            let id = job.get("id").and_then(Value::as_str).unwrap();
            let (status, body) =
                client_request(&addr, "GET", &format!("/v1/jobs/{id}?wait=120"), "").unwrap();
            assert_eq!(status, 200, "{body}");
            let view = json::parse(&body).unwrap();
            assert_eq!(
                view.get("state").and_then(Value::as_str),
                Some("done"),
                "{body}"
            );
            verdict(&view)
        })
        .collect();
    signal(serve.id(), "-TERM");
    assert_eq!(serve.wait().expect("serve exits").code(), Some(0));

    let run = autocsp()
        .arg("run")
        .arg(supervise.join("jobs.toml"))
        .args(["--format", "json", "--no-cache"])
        .output()
        .expect("autocsp runs");
    let ran = run_verdicts(&run.stdout);
    assert_eq!(ran.len(), 11, "{ran:?}");
    // The example manifest covers every job kind.
    for kind in ["check", "conform", "analyze"] {
        assert!(manifest.contains(&format!("kind = \"{kind}\"")), "{kind}");
    }
    assert_eq!(served, ran, "serve and run disagree");
}

/// Held by every test that runs an in-process server. A server's shutdown
/// raises the process-wide interrupt flag, which would cut another such
/// test's check short.
fn in_process_server() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Submit `manifest`'s one job to the service at `addr` and wait for its
/// verdict: `(id, status, lines)`.
fn submit_and_wait(addr: &str, manifest: &str) -> (String, String, Vec<String>) {
    let (status, body) = client_request(addr, "POST", "/v1/jobs", manifest).unwrap();
    assert_eq!(status, 202, "{body}");
    let accepted = json::parse(&body).unwrap();
    let id = accepted.get("jobs").and_then(Value::as_array).unwrap()[0]
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let (status, body) =
        client_request(addr, "GET", &format!("/v1/jobs/{id}?wait=120"), "").unwrap();
    assert_eq!(status, 200, "{body}");
    let (_, status, lines) = verdict(&json::parse(&body).unwrap());
    (id, status, lines)
}

#[test]
fn a_script_edited_between_submissions_gets_the_verdict_of_its_new_content() {
    use service::exec::{ExecConfig, Executor};
    use service::server::{LauncherKind, Server, ServerConfig};

    const SCRIPT: &str = "channel a, b\nSPEC = a -> SPEC\nIMPL = a -> IMPL\nassert SPEC [T= IMPL\n";
    const MANIFEST: &str = "[[job]]\nname = \"spec\"\nkind = \"check\"\nscript = \"m.csp\"\n";
    let _server = in_process_server();
    let dir = scratch("edited");
    let script = dir.join("m.csp");
    fs::write(&script, SCRIPT).unwrap();
    // One worker, so both jobs run on the same long-lived executor.
    let mut config = ServerConfig::with_defaults(dir.join("state")).expect("server config");
    config.workers = 1;
    config.scripts_root = dir.clone();
    config.launcher = LauncherKind::InProcess {
        die_after_states: None,
    };
    let server = Server::start(config).expect("server starts");
    let addr = server.http_addr().to_string();

    let (first, status, _) = submit_and_wait(&addr, MANIFEST);
    assert_eq!(status, "passed");
    fs::write(
        &script,
        SCRIPT.replace("IMPL = a -> IMPL", "IMPL = b -> IMPL"),
    )
    .unwrap();
    let (second, status, lines) = submit_and_wait(&addr, MANIFEST);
    server.shutdown();
    fdrlite::clear_interrupt();
    assert_ne!(first, second, "the id keys the new content");

    let manifest = cspm::manifest::Manifest::parse(MANIFEST, &dir).unwrap();
    let job = &service::resolve_jobs(&manifest, &service::JobDefaults::default())[0];
    let fresh = Executor::new(&ExecConfig::default())
        .unwrap()
        .run(job, 1)
        .unwrap();
    assert_eq!(fresh.status.label(), "refuted");
    assert_eq!(
        (status.as_str(), lines),
        (fresh.status.label(), fresh.lines)
    );
}

#[test]
fn a_job_with_numbers_past_two_to_the_53_reaches_its_verdict() {
    use service::server::{LauncherKind, Server, ServerConfig};
    // 2^60 and 2^53 + 1: a JSON number carries neither exactly.
    const MANIFEST: &str = "[chaos]\nseed = 1152921504606846976\n\n[[job]]\nname = \"one\"\n\
        kind = \"check\"\nscript = \"one.csp\"\nmax_states = 9007199254740993\n";
    let _server = in_process_server();
    let dir = scratch("huge");
    fs::write(dir.join("one.csp"), "P = STOP\nassert P [T= P\n").unwrap();
    let mut config = ServerConfig::with_defaults(dir.join("state")).expect("server config");
    config.workers = 1;
    config.scripts_root = dir.clone();
    config.launcher = LauncherKind::InProcess {
        die_after_states: None,
    };
    let server = Server::start(config).expect("server starts");
    let addr = server.http_addr().to_string();
    let (status, body) = client_request(&addr, "POST", "/v1/jobs", MANIFEST).unwrap();
    assert_eq!(status, 202, "{body}");
    let accepted = json::parse(&body).unwrap();
    let id = accepted.get("jobs").and_then(Value::as_array).unwrap()[0]
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let (status, body) =
        client_request(&addr, "GET", &format!("/v1/jobs/{id}?wait=5"), "").unwrap();
    server.shutdown();
    fdrlite::clear_interrupt();
    assert_eq!(status, 200, "{body}");
    let job = json::parse(&body).unwrap();
    assert_eq!(
        job.get("state").and_then(Value::as_str),
        Some("done"),
        "{body}"
    );
    assert_eq!(verdict(&job).2, ["assert P [T= P  ...  PASS"], "{body}");
}

#[test]
fn an_in_process_worker_checks_the_deepest_nest_the_parser_accepts() {
    use service::server::{LauncherKind, Server, ServerConfig};
    const MANIFEST: &str = "[[job]]\nname = \"deep\"\nkind = \"check\"\nscript = \"deep.csp\"\n";

    // 126 parentheses around `a -> STOP`: its `STOP` sits 127 atoms deep,
    // one short of the parser's limit of 128. A debug-build parser needs
    // more stack for that than a default 2 MiB thread has, and an overflow
    // in an in-process worker would abort the whole server.
    let depth = 126;
    let script = format!(
        "channel a\nP = {}a -> STOP{}\nassert P [T= P\n",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let _server = in_process_server();
    let dir = scratch("deep");
    fs::write(dir.join("deep.csp"), script).unwrap();
    let mut config = ServerConfig::with_defaults(dir.join("state")).expect("server config");
    config.workers = 1;
    config.scripts_root = dir.clone();
    config.launcher = LauncherKind::InProcess {
        die_after_states: None,
    };
    let server = Server::start(config).expect("server starts");
    let addr = server.http_addr().to_string();
    let (_, status, lines) = submit_and_wait(&addr, MANIFEST);
    server.shutdown();
    fdrlite::clear_interrupt();
    assert_eq!(status, "passed", "{lines:?}");
}
