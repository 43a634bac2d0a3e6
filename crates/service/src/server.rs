//! The service front-end: HTTP listener, worker listener, dispatcher
//! and monitor threads around one [`Orchestrator`].
//!
//! ```text
//!  client ──HTTP──▶ :http ┐                      ┌─▶ worker 0 (process)
//!                         ├─ Orchestrator ──TCP──┤
//!  autocsp serve ─────────┘   (state machine)    └─▶ worker 1 (process)
//! ```
//!
//! Four long-lived threads, all stoppable:
//!
//! - **http-accept** — thread-per-connection request handling;
//! - **worker-accept** — authenticates `hello` frames and pumps
//!   result/error/heartbeat frames into the orchestrator;
//! - **dispatcher** — pairs ready jobs with idle workers and writes
//!   `job` frames (socket I/O outside the orchestrator lock);
//! - **monitor** — ticks the orchestrator (heartbeat deadlines, retry
//!   promotion), SIGKILLs wedged workers and respawns lost slots.
//!
//! Both accept loops block in `accept`, so a connection is served as
//! soon as it arrives; [`Server::shutdown`] sets the stop flag and then
//! wakes each loop with one connection.
//!
//! The same [`Server`] embeds in-process for tests and the bench
//! harness, where worker slots run as threads instead of child
//! processes ([`LauncherKind::InProcess`]).

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use diag::json;
use fdrlite::supervisor::RetryPolicy;

use crate::exec::ExecConfig;
use crate::http::{read_request, respond, Request, RequestError, MAX_BODY, MAX_HEAD};
use crate::orchestrator::{
    Accepted, Health, JobView, Orchestrator, OrchestratorConfig, SubmitError,
};
use crate::wire::{self, Frame};
use crate::worker::{run_worker, WorkerConfig};

/// Cap on `?wait=` long-polls (seconds).
const MAX_WAIT_S: u64 = 300;

/// How long a client has to send its whole request. Only reading the
/// request is bounded; a `?wait=` long-poll afterwards is not. Unit tests
/// shorten it so the slow-client test stays fast.
const REQUEST_TIMEOUT: Duration = if cfg!(test) {
    Duration::from_millis(300)
} else {
    Duration::from_secs(10)
};

/// How long an accept loop waits after a failed `accept` before the next.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// How long [`Server::shutdown`] waits to connect to a listener it wakes.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Stack of an in-process worker thread: what a main thread gets. A debug
/// build's CSPm parser needs ~26 KiB per nesting level, so its deepest
/// accepted nest would overflow a default 2 MiB thread and abort the whole
/// server.
const WORKER_STACK: usize = 8 << 20;

/// How worker slots are realised.
#[derive(Debug)]
pub enum LauncherKind {
    /// Spawn `exe worker …` child processes (production shape; the pids
    /// in `/v1/health` are real SIGKILL targets).
    Process {
        /// The `autocsp` binary to spawn.
        exe: PathBuf,
    },
    /// Run workers as threads in this process (tests and benches).
    InProcess {
        /// Hand the *first* spawned worker this sabotage budget: it
        /// checkpoints at that many states and drops its connection
        /// without reporting, simulating a SIGKILL mid-job.
        die_after_states: Option<u64>,
    },
}

/// Service configuration.
#[derive(Debug)]
pub struct ServerConfig {
    /// HTTP bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker slots to keep alive.
    pub workers: usize,
    /// State directory: journal, and the default cache location.
    pub state_dir: PathBuf,
    /// Shared persistent cache; defaults to `<state_dir>/cache`.
    pub cache_dir: Option<PathBuf>,
    /// Base directory for relative paths in submitted manifests.
    pub scripts_root: PathBuf,
    /// Admission cap on pending jobs.
    pub queue_cap: usize,
    /// Worker heartbeat interval (milliseconds).
    pub heartbeat_ms: u64,
    /// Engine checkpoint cadence (states between frontier snapshots).
    pub checkpoint_every: Option<u64>,
    /// Retry policy for transient failures and worker-loss reclaims.
    pub retry: RetryPolicy,
    /// Default worker threads per job.
    pub default_threads: usize,
    /// Default per-job state budget.
    pub default_max_states: Option<u64>,
    /// Default per-job wall budget (milliseconds).
    pub default_timeout_ms: Option<u64>,
    /// Worker realisation.
    pub launcher: LauncherKind,
}

impl ServerConfig {
    /// A config with production defaults around `state_dir`, spawning
    /// workers from the current executable.
    ///
    /// # Errors
    ///
    /// When the current executable cannot be resolved.
    pub fn with_defaults(state_dir: PathBuf) -> Result<ServerConfig, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot resolve current executable: {e}"))?;
        Ok(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            state_dir,
            cache_dir: None,
            scripts_root: PathBuf::from("."),
            queue_cap: 64,
            heartbeat_ms: 200,
            checkpoint_every: None,
            retry: RetryPolicy::default(),
            default_threads: 1,
            default_max_states: None,
            default_timeout_ms: None,
            launcher: LauncherKind::Process { exe },
        })
    }
}

enum WorkerHandle {
    Process(Child),
    /// In-process worker threads are detached: they end when their
    /// sockets close, and the test process reaps them on exit.
    Thread,
}

struct Slot {
    token: String,
    generation: u64,
    handle: Option<WorkerHandle>,
}

/// A running service. Dropping does not stop it — call
/// [`Server::shutdown`].
pub struct Server {
    orch: Arc<Orchestrator>,
    http_addr: std::net::SocketAddr,
    worker_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    slots: Arc<Mutex<Vec<Slot>>>,
}

impl Server {
    /// Bind the listeners, replay the journal, start the threads and
    /// begin spawning workers.
    ///
    /// # Errors
    ///
    /// Bind or state-directory failures, as a human-readable string.
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        std::fs::create_dir_all(&config.state_dir)
            .map_err(|e| format!("cannot create state dir: {e}"))?;
        let cache_dir = config
            .cache_dir
            .clone()
            .unwrap_or_else(|| config.state_dir.join("cache"));

        let mut diags = Vec::new();
        let journal = crate::journal::ServiceJournal::open(
            config.state_dir.join("service.journal"),
            &mut diags,
        );
        let orch = Arc::new(Orchestrator::new(
            OrchestratorConfig {
                queue_cap: config.queue_cap,
                retry: config.retry,
                heartbeat_ms: config.heartbeat_ms,
                default_threads: config.default_threads,
                default_max_states: config.default_max_states,
                default_timeout_ms: config.default_timeout_ms,
            },
            journal,
        ));
        // Replay diagnostics surface through the normal channel.
        if !diags.is_empty() {
            orch.adopt_diagnostics(diags);
        }

        let http_listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let http_addr = http_listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let worker_listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("cannot bind worker port: {e}"))?;
        let worker_addr = worker_listener
            .local_addr()
            .map_err(|e| format!("cannot read worker port: {e}"))?;

        let stop = Arc::new(AtomicBool::new(false));
        let slots = Arc::new(Mutex::new(Vec::<Slot>::new()));
        let scripts_root = config
            .scripts_root
            .canonicalize()
            .unwrap_or_else(|_| config.scripts_root.clone());
        let sabotage = Arc::new(Mutex::new(match &config.launcher {
            LauncherKind::InProcess { die_after_states } => *die_after_states,
            LauncherKind::Process { .. } => None,
        }));

        let mut threads = Vec::new();
        threads.push(spawn_named("svc-http", {
            let orch = Arc::clone(&orch);
            let stop = Arc::clone(&stop);
            move || http_accept_loop(&http_listener, &orch, &stop, &scripts_root)
        }));
        threads.push(spawn_named("svc-workers", {
            let orch = Arc::clone(&orch);
            let stop = Arc::clone(&stop);
            move || worker_accept_loop(&worker_listener, &orch, &stop)
        }));
        threads.push(spawn_named("svc-dispatch", {
            let orch = Arc::clone(&orch);
            let stop = Arc::clone(&stop);
            move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(dispatch) = orch.next_dispatch(Duration::from_millis(100)) {
                        if wire::send_line(&dispatch.stream, &dispatch.line).is_err() {
                            orch.worker_gone(&dispatch.token);
                        }
                    }
                }
            }
        }));
        threads.push(spawn_named("svc-monitor", {
            let orch = Arc::clone(&orch);
            let stop = Arc::clone(&stop);
            let slots = Arc::clone(&slots);
            let workers = config.workers;
            let launcher = config.launcher;
            let heartbeat_ms = config.heartbeat_ms;
            let exec = ExecConfig {
                cache_dir: Some(cache_dir),
                checkpoint_every: config.checkpoint_every,
            };
            let interval = Duration::from_millis(config.heartbeat_ms.clamp(10, 200) / 2 + 5);
            move || {
                while !stop.load(Ordering::Relaxed) {
                    let report = orch.tick();
                    let mut slots = slots.lock().expect("slot lock poisoned");
                    for (token, _pid) in &report.dead {
                        if let Some(slot) = slots.iter_mut().find(|s| &s.token == token) {
                            if let Some(WorkerHandle::Process(child)) = &mut slot.handle {
                                let _ = child.kill();
                                let _ = child.wait();
                            }
                        }
                    }
                    if !orch.draining() {
                        maintain_slots(
                            &mut slots,
                            workers,
                            &orch,
                            &launcher,
                            &worker_addr.to_string(),
                            &exec,
                            heartbeat_ms,
                            &sabotage,
                        );
                    }
                    // Reap exited children so kills do not leave zombies.
                    for slot in slots.iter_mut() {
                        if let Some(WorkerHandle::Process(child)) = &mut slot.handle {
                            let _ = child.try_wait();
                        }
                    }
                    drop(slots);
                    std::thread::sleep(interval);
                }
            }
        }));

        Ok(Server {
            orch,
            http_addr,
            worker_addr,
            stop,
            threads,
            slots,
        })
    }

    /// The bound HTTP address.
    pub fn http_addr(&self) -> std::net::SocketAddr {
        self.http_addr
    }

    /// The shared orchestrator (embedded tests poke it directly).
    pub fn orchestrator(&self) -> &Arc<Orchestrator> {
        &self.orch
    }

    /// Drain: stop admissions, interrupt in-flight jobs to checkpoints,
    /// wait (up to `timeout`) for workers to report, and return the
    /// number of jobs still pending — the caller's exit-code signal.
    pub fn drain(&self, timeout: Duration) -> usize {
        for stream in self.orch.begin_drain() {
            let _ = wire::send(&stream, &Frame::Shutdown);
        }
        let deadline = Instant::now() + timeout;
        while !self.orch.drain_complete() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.orch.pending_count()
    }

    /// Stop every thread and kill remaining worker processes. In-process
    /// worker threads end when their sockets close.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for stream in self.orch.begin_drain() {
            let _ = wire::send(&stream, &Frame::Shutdown);
        }
        // The accept loops block in `accept`: one connection each wakes
        // them to see the stop flag.
        for addr in [self.http_addr, self.worker_addr] {
            wake(addr);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        let mut slots = self.slots.lock().expect("slot lock poisoned");
        for slot in slots.iter_mut() {
            match slot.handle.take() {
                Some(WorkerHandle::Process(mut child)) => {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                Some(WorkerHandle::Thread) | None => {}
            }
        }
    }
}

/// Connect to the listener bound at `addr` (over loopback when it is
/// bound to an unspecified address), so its blocked `accept` returns.
fn wake(mut addr: std::net::SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            std::net::SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            std::net::SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
}

fn spawn_named(name: &str, body: impl FnOnce() + Send + 'static) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(body)
        .expect("cannot spawn service thread")
}

#[allow(clippy::too_many_arguments)]
fn maintain_slots(
    slots: &mut Vec<Slot>,
    want: usize,
    orch: &Arc<Orchestrator>,
    launcher: &LauncherKind,
    worker_addr: &str,
    exec: &ExecConfig,
    heartbeat_ms: u64,
    sabotage: &Arc<Mutex<Option<u64>>>,
) {
    while slots.len() < want {
        slots.push(Slot {
            token: String::new(),
            generation: 0,
            handle: None,
        });
    }
    for (index, slot) in slots.iter_mut().enumerate() {
        let alive = !slot.token.is_empty() && orch.knows_worker(&slot.token);
        if alive {
            continue;
        }
        if let Some(WorkerHandle::Process(child)) = &mut slot.handle {
            let _ = child.kill();
            let _ = child.wait();
        }
        slot.generation += 1;
        slot.token = format!("w{index}-g{}-{}", slot.generation, std::process::id());
        orch.expect_worker(&slot.token);
        slot.handle = launch_worker(
            launcher,
            worker_addr,
            &slot.token,
            exec,
            heartbeat_ms,
            sabotage,
        );
        if slot.handle.is_none() {
            // Spawn failure: forget the token so the grace timer does
            // not wait on a worker that never existed.
            slot.token.clear();
        }
    }
}

fn launch_worker(
    launcher: &LauncherKind,
    worker_addr: &str,
    token: &str,
    exec: &ExecConfig,
    heartbeat_ms: u64,
    sabotage: &Arc<Mutex<Option<u64>>>,
) -> Option<WorkerHandle> {
    match launcher {
        LauncherKind::Process { exe } => {
            let mut cmd = Command::new(exe);
            cmd.arg("worker")
                .arg("--connect")
                .arg(worker_addr)
                .arg("--token")
                .arg(token)
                .arg("--heartbeat-ms")
                .arg(heartbeat_ms.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            if let Some(dir) = &exec.cache_dir {
                cmd.arg("--cache-dir").arg(dir);
            }
            if let Some(every) = exec.checkpoint_every {
                cmd.arg("--checkpoint-every").arg(every.to_string());
            }
            cmd.spawn().ok().map(WorkerHandle::Process)
        }
        LauncherKind::InProcess { .. } => {
            let config = WorkerConfig {
                connect: worker_addr.to_string(),
                token: token.to_string(),
                exec: exec.clone(),
                heartbeat_ms,
                die_after_states: sabotage.lock().expect("sabotage lock poisoned").take(),
            };
            std::thread::Builder::new()
                .name(format!("svc-{token}"))
                .stack_size(WORKER_STACK)
                .spawn(move || {
                    let _ = run_worker(&config);
                })
                .ok()
                .map(|_| WorkerHandle::Thread)
        }
    }
}

// ---------------------------------------------------------------------------
// Worker connections
// ---------------------------------------------------------------------------

/// Accept worker connections until [`Server::shutdown`] sets `stop` and
/// wakes the blocked `accept`.
fn worker_accept_loop(listener: &TcpListener, orch: &Arc<Orchestrator>, stop: &Arc<AtomicBool>) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let orch = Arc::clone(orch);
                let _ = std::thread::Builder::new()
                    .name("svc-worker-conn".to_string())
                    .spawn(move || worker_connection(stream, &orch));
            }
            // Out of descriptors or similar: back off instead of spinning.
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

fn worker_connection(stream: TcpStream, orch: &Arc<Orchestrator>) {
    let Ok((writer, mut frames)) = wire::open(stream) else {
        return;
    };
    let Some(Ok(Frame::Hello { token, pid })) = frames.next() else {
        return; // not a worker; drop silently
    };
    if !orch.register_worker(&token, pid, writer) {
        return; // unknown token or draining: connection refused
    }
    for frame in frames {
        match frame {
            Ok(Frame::Heartbeat { busy }) => orch.heartbeat(&token, busy),
            Ok(Frame::Result { id, outcome }) => orch.worker_result(&token, id, outcome),
            Ok(Frame::Error {
                id,
                transient,
                message,
            }) => orch.worker_error(&token, id, transient, &message),
            Ok(_) | Err(_) => {} // tolerated; SRV607 is for the HTTP edge
        }
    }
    orch.worker_gone(&token);
}

// ---------------------------------------------------------------------------
// HTTP surface
// ---------------------------------------------------------------------------

/// Accept HTTP connections, one thread each, until [`Server::shutdown`]
/// sets `stop` and wakes the blocked `accept`.
fn http_accept_loop(
    listener: &TcpListener,
    orch: &Arc<Orchestrator>,
    stop: &Arc<AtomicBool>,
    scripts_root: &std::path::Path,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let orch = Arc::clone(orch);
                let scripts_root = scripts_root.to_path_buf();
                let _ = std::thread::Builder::new()
                    .name("svc-http-conn".to_string())
                    .spawn(move || {
                        let mut stream = stream;
                        match read_request(&mut stream, REQUEST_TIMEOUT) {
                            Ok(request) => {
                                handle_request(&mut stream, &request, &orch, &scripts_root);
                            }
                            Err(RequestError::HeadTooLarge) => error_response(
                                &mut stream,
                                431,
                                "Request Header Fields Too Large",
                                &format!("request head exceeds {MAX_HEAD} bytes"),
                            ),
                            Err(RequestError::BodyTooLarge) => error_response(
                                &mut stream,
                                413,
                                "Content Too Large",
                                &format!("request body exceeds {MAX_BODY} bytes"),
                            ),
                            Err(RequestError::Dropped) => {}
                        }
                    });
            }
            // Out of descriptors or similar: back off instead of spinning.
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

fn handle_request(
    stream: &mut TcpStream,
    request: &Request,
    orch: &Arc<Orchestrator>,
    scripts_root: &std::path::Path,
) {
    let outcome = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/jobs") => {
            let Ok(body) = std::str::from_utf8(&request.body) else {
                return error_response(stream, 400, "Bad Request", "body is not UTF-8");
            };
            match orch.submit(body, scripts_root) {
                Ok(accepted) => respond(
                    stream,
                    202,
                    "Accepted",
                    &[],
                    "application/json",
                    &render_accepted(&accepted),
                ),
                Err(SubmitError::Parse(message)) => {
                    return error_response(stream, 400, "Bad Request", &message)
                }
                Err(SubmitError::QueueFull { retry_after_s }) => respond(
                    stream,
                    429,
                    "Too Many Requests",
                    &[("Retry-After", retry_after_s.to_string())],
                    "application/json",
                    &json::object(|w| {
                        w.key("error").string("queue full");
                        w.key("code").string(crate::codes::QUEUE_FULL.0);
                        w.key("retry_after_s").number(retry_after_s);
                    }),
                ),
                Err(SubmitError::Draining) => {
                    return error_response(
                        stream,
                        503,
                        "Service Unavailable",
                        "service is draining",
                    )
                }
            }
        }
        ("GET", "/v1/jobs") => {
            let views = orch.job_views();
            let body = json::object(|w| {
                w.key("jobs").array(|w| {
                    for view in &views {
                        w.object(|w| job_fields(w, view));
                    }
                });
            });
            respond(stream, 200, "OK", &[], "application/json", &body)
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let token = &path["/v1/jobs/".len()..];
            let Some(id) = crate::parse_job_id(token) else {
                return error_response(stream, 400, "Bad Request", "malformed job id");
            };
            let wait_s = request
                .query_param("wait")
                .and_then(|v| v.parse::<u64>().ok())
                .map(|s| s.min(MAX_WAIT_S));
            let view = match wait_s {
                Some(s) => orch.wait_terminal(id, Duration::from_secs(s)),
                None => orch.job_view(id),
            };
            match view {
                Some(view) => respond(
                    stream,
                    200,
                    "OK",
                    &[],
                    "application/json",
                    &json::object(|w| job_fields(w, &view)),
                ),
                None => return error_response(stream, 404, "Not Found", "unknown job id"),
            }
        }
        ("GET", "/v1/health") => {
            let health = orch.health();
            respond(
                stream,
                200,
                "OK",
                &[],
                "application/json",
                &render_health(&health),
            )
        }
        _ => return error_response(stream, 404, "Not Found", "no such endpoint"),
    };
    let _ = outcome;
}

fn error_response(stream: &mut TcpStream, status: u16, reason: &str, message: &str) {
    let body = json::object(|w| {
        w.key("error").string(message);
    });
    let _ = respond(stream, status, reason, &[], "application/json", &body);
}

fn render_accepted(accepted: &[Accepted]) -> String {
    json::object(|w| {
        w.key("jobs").array(|w| {
            for a in accepted {
                w.object(|w| {
                    w.key("name").string(&a.name);
                    w.key("id").string(&crate::format_job_id(a.id));
                    w.key("state").string(a.state);
                    w.key("dedup").bool(a.dedup);
                });
            }
        });
    })
}

/// A job view's fields, for its JSON object.
fn job_fields(w: &mut json::Writer, view: &JobView) {
    w.key("id").string(&crate::format_job_id(view.id));
    w.key("name").string(&view.name);
    w.key("kind").string(view.kind);
    w.key("state").string(view.state);
    w.key("attempts").number(view.attempts);
    if let Some(outcome) = &view.outcome {
        w.key("status").string(outcome.status.label());
        w.key("interrupted").bool(outcome.interrupted);
        w.key("lines").array(|w| {
            for line in &outcome.lines {
                w.string(line);
            }
        });
    }
    if let Some(failure) = &view.failure {
        w.key("failure").string(failure);
    }
}

fn render_health(health: &Health) -> String {
    json::object(|w| {
        w.key("draining").bool(health.draining);
        w.key("queue_cap").number(health.queue_cap);
        w.key("queued").number(health.queued);
        w.key("delayed").number(health.delayed);
        w.key("running").number(health.running);
        w.key("deferred").number(health.deferred);
        w.key("done").number(health.done);
        w.key("failed").number(health.failed);
        w.key("workers").array(|w| {
            for worker in &health.workers {
                w.object(|w| {
                    w.key("token").string(&worker.token);
                    w.key("pid").number(worker.pid);
                    w.key("busy");
                    match worker.busy {
                        Some(id) => w.string(&crate::format_job_id(id)),
                        None => w.null(),
                    };
                });
            }
        });
        let c = &health.counters;
        w.key("counters").object(|w| {
            w.key("submitted").number(c.submitted);
            w.key("dedup_hits").number(c.dedup_hits);
            w.key("completed").number(c.completed);
            w.key("failed").number(c.failed);
            w.key("retried").number(c.retried);
            w.key("workers_lost").number(c.workers_lost);
            w.key("rejected").number(c.rejected);
            w.key("deferred").number(c.deferred);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client_request;
    use std::fs;
    use std::path::{Path, PathBuf};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "svc-server-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    const SCRIPT: &str = "channel a, b\n\
                          SPEC = a -> SPEC\n\
                          IMPL = a -> IMPL\n\
                          BAD = a -> b -> BAD\n\
                          assert SPEC [T= IMPL\n\
                          assert SPEC [T= BAD\n";

    fn test_config(dir: &Path, workers: usize) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            state_dir: dir.join("state"),
            cache_dir: None,
            scripts_root: dir.to_path_buf(),
            queue_cap: 16,
            heartbeat_ms: 50,
            checkpoint_every: Some(64),
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 1,
                max_delay_ms: 5,
                seed: 11,
            },
            default_threads: 1,
            default_max_states: None,
            default_timeout_ms: Some(30_000),
            launcher: LauncherKind::InProcess {
                die_after_states: None,
            },
        }
    }

    fn submit_and_wait(addr: &str, manifest: &str) -> Vec<(String, diag::json::Value)> {
        let (status, body) = client_request(addr, "POST", "/v1/jobs", manifest).unwrap();
        assert_eq!(status, 202, "{body}");
        let parsed = diag::json::parse(&body).unwrap();
        let jobs = parsed.get("jobs").unwrap().as_array().unwrap();
        let mut results = Vec::new();
        for job in jobs {
            let id = job.get("id").unwrap().as_str().unwrap().to_string();
            let (status, body) =
                client_request(addr, "GET", &format!("/v1/jobs/{id}?wait=30"), "").unwrap();
            assert_eq!(status, 200, "{body}");
            results.push((id, diag::json::parse(&body).unwrap()));
        }
        results
    }

    #[test]
    fn end_to_end_submit_poll_verdict() {
        let dir = tmpdir("e2e");
        fs::write(dir.join("m.csp"), SCRIPT).unwrap();
        let server = Server::start(test_config(&dir, 2)).unwrap();
        let addr = server.http_addr().to_string();

        let manifest = "[[job]]\nname = \"all\"\nkind = \"check\"\nscript = \"m.csp\"\n";
        let results = submit_and_wait(&addr, manifest);
        assert_eq!(results.len(), 1);
        let view = &results[0].1;
        assert_eq!(view.get("state").unwrap().as_str(), Some("done"));
        assert_eq!(view.get("status").unwrap().as_str(), Some("refuted"));
        let lines = view.get("lines").unwrap().as_array().unwrap();
        assert!(
            lines
                .iter()
                .any(|l| l.as_str().unwrap().contains("SPEC [T= IMPL  ...  PASS")),
            "{lines:?}"
        );
        assert!(lines
            .iter()
            .any(|l| l.as_str().unwrap().contains("SPEC [T= BAD  ...  FAIL")));

        // Identical resubmission is a dedup hit served from memory.
        let again = submit_and_wait(&addr, manifest);
        assert_eq!(again[0].0, results[0].0);
        let (_, health) = client_request(&addr, "GET", "/v1/health", "").unwrap();
        let health = diag::json::parse(&health).unwrap();
        let counters = health.get("counters").unwrap();
        assert_eq!(counters.get("dedup_hits").unwrap().as_u64(), Some(1));
        assert_eq!(counters.get("completed").unwrap().as_u64(), Some(1));

        server.shutdown();
        fdrlite::clear_interrupt();
    }

    #[test]
    fn malformed_submissions_are_rejected() {
        let dir = tmpdir("reject");
        let server = Server::start(test_config(&dir, 1)).unwrap();
        let addr = server.http_addr().to_string();

        let (status, _) = client_request(&addr, "POST", "/v1/jobs", "not toml [[").unwrap();
        assert_eq!(status, 400);
        let (status, _) = client_request(&addr, "GET", "/v1/jobs/zznotanid", "").unwrap();
        assert_eq!(status, 400);
        let (status, _) = client_request(&addr, "GET", "/v1/jobs/00000000000000ff", "").unwrap();
        assert_eq!(status, 404);
        let (status, _) = client_request(&addr, "GET", "/v1/nope", "").unwrap();
        assert_eq!(status, 404);

        server.shutdown();
        fdrlite::clear_interrupt();
    }

    /// Send `bytes` on a raw connection and read until the server closes
    /// it (or 5 s pass): the raw response, and how long the close took.
    fn raw_exchange(addr: &str, bytes: &[u8]) -> (String, Duration) {
        use std::io::{Read, Write};
        let start = std::time::Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(bytes).unwrap();
        let mut response = Vec::new();
        stream
            .read_to_end(&mut response)
            .expect("the server closes the connection within 5 s");
        (
            String::from_utf8_lossy(&response).into_owned(),
            start.elapsed(),
        )
    }

    #[test]
    fn http_limits_answer_or_close_every_abusive_request() {
        let dir = tmpdir("limits");
        let server = Server::start(test_config(&dir, 1)).unwrap();
        let addr = server.http_addr().to_string();

        // A request line that never ends: cut off at the head cap. It is
        // exactly `MAX_HEAD` bytes, so the server has read all of it when
        // it answers; closing on unread input would reset the connection
        // and lose the answer.
        let mut endless = b"GET /v1/health?pad=".to_vec();
        endless.resize(MAX_HEAD as usize, b'a');
        let (response, _) = raw_exchange(&addr, &endless);
        assert!(response.starts_with("HTTP/1.1 431 "), "{response}");

        // A body over the cap: refused from its Content-Length alone.
        let big = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let (response, _) = raw_exchange(&addr, big.as_bytes());
        assert!(response.starts_with("HTTP/1.1 413 "), "{response}");

        // A client that stalls — silent, or mid-request — is hung up on
        // once the request deadline passes.
        for stall in [&b""[..], b"GET /v1/health HTTP/1.1\r\n"] {
            let (response, waited) = raw_exchange(&addr, stall);
            assert_eq!(response, "");
            assert!(waited >= REQUEST_TIMEOUT, "{waited:?}");
        }

        server.shutdown();
        fdrlite::clear_interrupt();
    }

    #[test]
    fn long_polls_outlast_the_request_deadline() {
        // The deadline bounds reading a request, not answering it. With no
        // workers the job stays queued, so the poll waits its full second.
        let dir = tmpdir("longpoll");
        fs::write(dir.join("m.csp"), SCRIPT).unwrap();
        let server = Server::start(test_config(&dir, 0)).unwrap();
        let addr = server.http_addr().to_string();
        let manifest = "[[job]]\nname = \"all\"\nkind = \"check\"\nscript = \"m.csp\"\n";
        let (status, body) = client_request(&addr, "POST", "/v1/jobs", manifest).unwrap();
        assert_eq!(status, 202, "{body}");
        let parsed = diag::json::parse(&body).unwrap();
        let id = parsed.get("jobs").unwrap().as_array().unwrap()[0]
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let start = std::time::Instant::now();
        let (status, body) =
            client_request(&addr, "GET", &format!("/v1/jobs/{id}?wait=1"), "").unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(start.elapsed() > REQUEST_TIMEOUT);

        server.shutdown();
        fdrlite::clear_interrupt();
    }

    #[test]
    fn queue_overflow_is_fail_closed_429_with_retry_after() {
        let dir = tmpdir("overflow");
        fs::write(dir.join("m.csp"), SCRIPT).unwrap();
        let mut config = test_config(&dir, 1);
        config.queue_cap = 0; // everything overflows
        let server = Server::start(config).unwrap();
        let addr = server.http_addr().to_string();

        let manifest = "[[job]]\nname = \"all\"\nkind = \"check\"\nscript = \"m.csp\"\n";
        let (status, body) = client_request(&addr, "POST", "/v1/jobs", manifest).unwrap();
        assert_eq!(status, 429, "{body}");
        assert!(body.contains("SRV602"), "{body}");

        server.shutdown();
        fdrlite::clear_interrupt();
    }
}
