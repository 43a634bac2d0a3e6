//! The headline robustness property, as a property test: killing a worker
//! at an **arbitrary** point in its exploration never loses the job and
//! never changes the verdict. A sabotaged in-process worker checkpoints
//! after a proptest-chosen state budget and drops its connection without
//! reporting — indistinguishable from SIGKILL landing right after the
//! checkpoint write. The orchestrator must detect the death, reclaim the
//! job, and hand it to a healthy worker whose verdict lines are
//! byte-identical to an uninterrupted reference run — at 1 worker thread
//! and at 8.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use diag::json::Value;
use fdrlite::supervisor::RetryPolicy;
use proptest::prelude::*;
use service::http::client_request;
use service::server::{LauncherKind, Server, ServerConfig};

/// Sixty-five states under the paper-style interleaving — big enough that
/// every budget in the proptest range lands strictly mid-exploration.
const MODEL: &str = "\
channel a1, a2, a3, a4, b1, b2, b3, b4, c1, c2, c3, c4
PA = a1 -> a2 -> a3 -> a4 -> PA
PB = b1 -> b2 -> b3 -> b4 -> PB
PC = c1 -> c2 -> c3 -> c4 -> PC
SYS = PA ||| PB ||| PC
RUNALL = a1 -> RUNALL [] a2 -> RUNALL [] a3 -> RUNALL [] a4 -> RUNALL \
 [] b1 -> RUNALL [] b2 -> RUNALL [] b3 -> RUNALL [] b4 -> RUNALL \
 [] c1 -> RUNALL [] c2 -> RUNALL [] c3 -> RUNALL [] c4 -> RUNALL
assert RUNALL [T= SYS
assert SYS :[deadlock free]
";

const MANIFEST: &str = "[[job]]\nname = \"sys\"\nkind = \"check\"\nscript = \"m.csp\"\n";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "svc-handoff-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &Path, threads: usize, die_after_states: Option<u64>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        state_dir: dir.join("state"),
        cache_dir: None,
        scripts_root: dir.to_path_buf(),
        queue_cap: 16,
        heartbeat_ms: 25,
        checkpoint_every: Some(8),
        retry: RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 1,
            max_delay_ms: 5,
            seed: 11,
        },
        default_threads: threads,
        default_max_states: None,
        default_timeout_ms: Some(60_000),
        launcher: LauncherKind::InProcess { die_after_states },
    }
}

struct Run {
    status: String,
    lines: Vec<String>,
    workers_lost: u64,
}

/// Run the one-job manifest through a fresh farm and return the verdict.
/// The first worker launched (w0, which deterministically receives the
/// first dispatch) is the sabotaged one when `die_after_states` is set.
fn run_farm(tag: &str, threads: usize, die_after_states: Option<u64>) -> Run {
    let dir = tmpdir(tag);
    fs::write(dir.join("m.csp"), MODEL).unwrap();
    let server = Server::start(config(&dir, threads, die_after_states)).unwrap();
    // Dispatch goes to the lowest registered token: submit only once both
    // workers are up, so the first job reaches the sabotaged w0.
    let begin = std::time::Instant::now();
    while server.orchestrator().health().workers.len() < 2 {
        assert!(
            begin.elapsed() < std::time::Duration::from_secs(30),
            "workers did not register within 30 s"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let addr = server.http_addr().to_string();

    let (status, body) = client_request(&addr, "POST", "/v1/jobs", MANIFEST).unwrap();
    assert_eq!(status, 202, "{body}");
    let accepted = diag::json::parse(&body).unwrap();
    let id = accepted.get("jobs").unwrap().as_array().unwrap()[0]
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    let (status, body) =
        client_request(&addr, "GET", &format!("/v1/jobs/{id}?wait=60"), "").unwrap();
    assert_eq!(status, 200, "{body}");
    let view = diag::json::parse(&body).unwrap();
    assert_eq!(
        view.get("state").and_then(Value::as_str),
        Some("done"),
        "{body}"
    );

    let (_, health) = client_request(&addr, "GET", "/v1/health", "").unwrap();
    let health = diag::json::parse(&health).unwrap();
    let workers_lost = health
        .get("counters")
        .and_then(|c| c.get("workers_lost"))
        .and_then(Value::as_u64)
        .unwrap();

    let run = Run {
        status: view
            .get("status")
            .and_then(Value::as_str)
            .unwrap()
            .to_string(),
        lines: view
            .get("lines")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|l| l.as_str().unwrap().to_string())
            .collect(),
        workers_lost,
    };
    server.shutdown();
    fdrlite::clear_interrupt();
    let _ = fs::remove_dir_all(&dir);
    run
}

/// The uninterrupted single-thread reference verdict, computed once.
fn reference() -> &'static Run {
    static REF: OnceLock<Run> = OnceLock::new();
    REF.get_or_init(|| {
        let run = run_farm("reference", 1, None);
        assert_eq!(run.status, "passed", "{:?}", run.lines);
        assert_eq!(run.workers_lost, 0);
        run
    })
}

proptest! {
    // Each case boots two full worker farms; a handful of random budgets
    // is plenty — the budget range [1, 60] covers every checkpoint
    // boundary of the 65-state exploration.
    #![proptest_config(ProptestConfig { cases: 6 })]

    #[test]
    fn killed_worker_handoff_is_verdict_preserving(
        budget in 1_u64..60,
        thread_pick in 0_usize..2,
    ) {
        let threads = [1, 8][thread_pick];
        let reference = reference();
        let run = run_farm(&format!("kill-{budget}-t{threads}"), threads, Some(budget));
        // The sabotaged worker really died mid-job...
        prop_assert!(run.workers_lost >= 1, "sabotaged worker was never lost");
        // ...and the handed-off job still reached the reference verdict,
        // byte for byte, regardless of worker thread count.
        prop_assert_eq!(&run.status, &reference.status);
        prop_assert_eq!(&run.lines, &reference.lines);
    }
}
