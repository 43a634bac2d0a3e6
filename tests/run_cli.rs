//! End-to-end acceptance of `autocsp run`: the supervised job runtime over
//! a jobs.toml manifest. Covers the exit-code contract (0 passed, 1 refuted,
//! 3 inconclusive/deferred, 4 infrastructure), panic isolation, chaos-plan
//! retries, and the headline robustness guarantee — a run killed mid-flight
//! and completed with `--resume` produces verdicts byte-identical to an
//! undisturbed run.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use diag::json::{self, Value};

fn autocsp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autocsp"))
}

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    autocsp().args(args).output().expect("autocsp runs")
}

/// A scratch directory unique to this test binary invocation.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autocsp-run-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn manifest() -> String {
    example("supervise/jobs.toml").to_str().unwrap().to_owned()
}

/// The example manifest with absolute script paths, slowed down so a signal
/// reliably lands mid-run: the chaos plan makes every third job fail its
/// first attempt and the retry backoff is a few hundred milliseconds.
fn slow_manifest(dir: &Path) -> String {
    let model = example("faults/ota_model.csp");
    let x1373 = example("ota_x1373.csp");
    let traces = example("faults/traces");
    let toml = format!(
        r#"
[run]
threads = 1
retries = 3
retry_base_ms = 250
retry_max_ms = 400
retry_seed = 7

[chaos]
seed = 7
transient_attempts = 1
every_nth = 3

[[job]]
name = "honest-refines"
kind = "check"
script = "{model}"
assertion = "HONEST"

[[job]]
name = "replay-attack"
kind = "check"
script = "{model}"
assertion = "ATTACKED"

[[job]]
name = "x1373-traces"
kind = "check"
script = "{x1373}"
assertion = "[T= SYSTEM"

[[job]]
name = "x1373-deadlock"
kind = "check"
script = "{x1373}"
assertion = "deadlock"

[[job]]
name = "x1373-determinism"
kind = "check"
script = "{x1373}"
assertion = "deterministic"

[[job]]
name = "sessions-conform-honest"
kind = "conform"
script = "{model}"
spec = "HONEST"
corpus = "{traces}"

[[job]]
name = "sessions-single-update"
kind = "conform"
script = "{model}"
spec = "SINGLE_UPDATE"
corpus = "{traces}"

[[job]]
name = "analyze-ota"
kind = "analyze"
script = "{model}"
"#,
        model = model.display(),
        x1373 = x1373.display(),
        traces = traces.display(),
    );
    let path = dir.join("jobs.toml");
    fs::write(&path, toml).expect("write manifest");
    path.to_str().unwrap().to_owned()
}

// ---------------------------------------------------------------------------
// Verdicts and exit codes
// ---------------------------------------------------------------------------

#[test]
fn supervised_batch_reports_every_job_and_exits_one_on_refutation() {
    let out = run(&["run", &manifest()]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("run: 11 job(s): 8 passed, 3 refuted, 0 inconclusive, 0 failed"),
        "{text}"
    );
    assert!(text.contains("job honest-refines  ...  passed"), "{text}");
    assert!(text.contains("job replay-attack  ...  refuted"), "{text}");
    assert!(text.contains("job analyze-x1373  ...  passed"), "{text}");
    // The chaos plan forced transient failures; retries are stderr-only.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("SUP502"), "{err}");
    assert!(!text.contains("SUP502"), "retry noise must not hit stdout");
}

#[test]
fn all_passing_manifest_exits_zero() {
    let dir = scratch("pass");
    let model = example("faults/ota_model.csp");
    let toml = format!(
        "[[job]]\nname = \"honest\"\nkind = \"check\"\nscript = \"{}\"\nassertion = \"HONEST\"\n\
         \n[[job]]\nname = \"analyze\"\nkind = \"analyze\"\nscript = \"{}\"\n",
        model.display(),
        model.display()
    );
    let path = dir.join("pass.toml");
    fs::write(&path, toml).unwrap();
    let out = run(&["run", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("run: 2 job(s): 2 passed, 0 refuted, 0 inconclusive, 0 failed"),
        "{text}"
    );
}

#[test]
fn broken_manifest_reports_sup510() {
    let dir = scratch("bad");
    let path = dir.join("bad.toml");
    fs::write(&path, "[[job]\nname = oops").unwrap();
    let out = run(&["run", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("SUP510"), "{err}");
}

#[test]
fn job_with_missing_script_fails_without_sinking_the_run() {
    let dir = scratch("missing");
    let model = example("faults/ota_model.csp");
    let toml = format!(
        "[[job]]\nname = \"ghost\"\nkind = \"check\"\nscript = \"{}\"\n\
         \n[[job]]\nname = \"honest\"\nkind = \"check\"\nscript = \"{}\"\nassertion = \"HONEST\"\n",
        dir.join("no-such-script.csp").display(),
        model.display()
    );
    let path = dir.join("missing.toml");
    fs::write(&path, toml).unwrap();
    let out = run(&["run", path.to_str().unwrap()]);
    // The broken job is infrastructure (exit 4); the healthy job still ran.
    assert_eq!(out.status.code(), Some(4));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("job ghost  ...  failed"), "{text}");
    assert!(text.contains("job honest  ...  passed"), "{text}");
    assert!(
        text.contains("run: 2 job(s): 1 passed, 0 refuted, 0 inconclusive, 1 failed"),
        "{text}"
    );
}

// ---------------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------------

#[test]
fn forced_panic_is_isolated_and_exits_four() {
    let out = run(&["run", &manifest(), "--force-panic", "x1373-deadlock"]);
    assert_eq!(out.status.code(), Some(4));
    let text = String::from_utf8_lossy(&out.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("SUP501"), "{err}");
    assert!(err.contains("the run continues"), "{err}");
    assert!(text.contains("job x1373-deadlock  ...  failed"), "{text}");
    // Every other job still ran to its normal verdict.
    assert!(
        text.contains("run: 11 job(s): 7 passed, 3 refuted, 0 inconclusive, 1 failed"),
        "{text}"
    );
    assert!(text.contains("job analyze-x1373  ...  passed"), "{text}");
}

// ---------------------------------------------------------------------------
// Determinism: chaos retries and thread counts never change verdicts
// ---------------------------------------------------------------------------

#[test]
fn verdicts_are_byte_identical_across_runs_and_thread_counts() {
    let one = run(&["run", &manifest(), "--threads", "1"]);
    let again = run(&["run", &manifest(), "--threads", "1"]);
    let eight = run(&["run", &manifest(), "--threads", "8"]);
    assert_eq!(one.stdout, again.stdout, "re-run must be byte-identical");
    assert_eq!(one.stdout, eight.stdout, "thread count must not leak");
}

// ---------------------------------------------------------------------------
// Crash safety: SIGKILL mid-run, then `--resume`
// ---------------------------------------------------------------------------

#[cfg(unix)]
#[test]
fn kill_nine_then_resume_matches_undisturbed_run() {
    use std::os::unix::process::ExitStatusExt as _;

    let dir = scratch("kill");
    let path = slow_manifest(&dir);

    let baseline = run(&["run", &path]);
    assert_eq!(baseline.status.code(), Some(1), "{baseline:?}");

    // The journal sits next to the manifest, or under `--cache-dir` when
    // there is one; each cache round starts from an empty cache.
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let rounds: [(u64, &[&str]); 5] = [
        (300, &[]),
        (550, &[]),
        (800, &[]),
        (550, &["--cache-dir", cache, "--threads", "1"]),
        (550, &["--cache-dir", cache, "--threads", "8"]),
    ];
    for (round, (kill_ms, extra)) in rounds.into_iter().enumerate() {
        let _ = fs::remove_dir_all(cache);
        // Fresh journal for each round (`run` without --resume resets it).
        let mut child = autocsp()
            .args(["run", &path])
            .args(extra)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn");
        std::thread::sleep(std::time::Duration::from_millis(kill_ms));
        let _ = child.kill(); // SIGKILL: no chance to clean up
        let killed = child.wait().expect("wait for the killed run");
        assert_eq!(
            killed.signal(),
            Some(9),
            "round {round}: the kill must land mid-run"
        );

        let resumed = autocsp()
            .args(["run", &path, "--resume", "--stats"])
            .args(extra)
            .output()
            .expect("autocsp runs");
        assert_eq!(resumed.status.code(), Some(1), "round {round}");
        let err = String::from_utf8_lossy(&resumed.stderr);
        assert!(
            err.contains("replayed from journal"),
            "round {round}: {err}"
        );
        assert_eq!(
            String::from_utf8_lossy(&baseline.stdout),
            String::from_utf8_lossy(&resumed.stdout),
            "round {round}: resumed verdicts must match the undisturbed run"
        );
    }
}

#[test]
fn seeded_storage_faults_cost_retries_never_verdicts() {
    let dir = scratch("storage-faults");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let baseline = run(&["run", &manifest(), "--threads", "1"]);
    assert_eq!(baseline.status.code(), Some(1), "{baseline:?}");

    // The first run writes through a fault hook that corrupts every other
    // cache write; the second reads the poisoned cache back. The damage
    // shows only as quarantine warnings on stderr.
    let faulty = run(&[
        "run",
        &manifest(),
        "--cache-dir",
        cache,
        "--storage-faults",
        "1373:2",
    ]);
    let poisoned = run(&["run", &manifest(), "--cache-dir", cache]);
    assert_eq!(faulty.status.code(), Some(1), "{faulty:?}");
    assert_eq!(poisoned.status.code(), Some(1), "{poisoned:?}");
    assert_eq!(
        String::from_utf8_lossy(&baseline.stdout),
        String::from_utf8_lossy(&faulty.stdout)
    );
    assert_eq!(
        String::from_utf8_lossy(&baseline.stdout),
        String::from_utf8_lossy(&poisoned.stdout)
    );
    let err = String::from_utf8_lossy(&poisoned.stderr);
    assert!(err.contains("STO401"), "{err}");
}

#[cfg(unix)]
#[test]
fn resume_replays_journaled_verdicts_instead_of_rechecking() {
    let dir = scratch("journal");
    let path = slow_manifest(&dir);

    // Let the run get partway, kill it, then resume with --stats to see the
    // replay counter. The kill window is wide (retry backoff keeps the run
    // alive for over a second), but even a race where the run finished or
    // barely started keeps the assertions below meaningful.
    let mut child = autocsp()
        .args(["run", &path])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn");
    std::thread::sleep(std::time::Duration::from_millis(700));
    let _ = child.kill();
    let _ = child.wait();

    let resumed = run(&["run", &path, "--resume", "--stats"]);
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert!(err.contains("replayed from journal"), "{err}");

    // A completed resume clears the journal: a second `--resume` re-runs
    // everything and still lands on the same verdicts.
    let fresh = run(&["run", &path]);
    let again = run(&["run", &path, "--resume"]);
    assert_eq!(fresh.stdout, again.stdout);
}

// ---------------------------------------------------------------------------
// Replay by content: `--resume` never serves a verdict for stale content
// ---------------------------------------------------------------------------

/// A ten-way interleaving against a 200-state cyclic spec: about twelve
/// million product pairs, far more than any build explores within the
/// run budget of [`deferring_manifest`].
fn budget_eater(dir: &Path) -> PathBuf {
    let names: Vec<String> = (0..10).map(|i| format!("c{i}")).collect();
    let mut src = format!(
        "datatype T = t1 | t2 | t3\nchannel {} : T\n",
        names.join(", ")
    );
    for n in &names {
        let _ = writeln!(src, "P{n} = {n}.t1 -> {n}.t2 -> {n}.t3 -> P{n}");
    }
    for i in 0..200 {
        let next = (i + 1) % 200;
        let arms: Vec<String> = names.iter().map(|n| format!("{n}?x -> S{next}")).collect();
        let _ = writeln!(src, "S{i} = {}", arms.join(" [] "));
    }
    let procs: Vec<String> = names.iter().map(|n| format!("P{n}")).collect();
    let _ = writeln!(src, "SYS = {}", procs.join(" ||| "));
    src.push_str("assert S0 [T= SYS\n");
    let path = dir.join("eater.csp");
    fs::write(&path, src).expect("write model");
    path
}

/// A manifest whose first run deterministically leaves a journal behind.
/// Job `first` (defined by `first_job`) runs and is journaled; the budget
/// eater's wall budget is clamped to what is left of `run_timeout_ms`, so
/// it ends inconclusive and is journaled too; the last job is then
/// deferred, which keeps the journal for `--resume`.
fn deferring_manifest(dir: &Path, first_job: &str) -> String {
    let model = example("faults/ota_model.csp");
    let toml = format!(
        r#"
[run]
threads = 1
run_timeout_ms = 1500

[[job]]
name = "first"
{first_job}

[[job]]
name = "eater"
kind = "check"
script = "{eater}"
max_states = 1000000000

[[job]]
name = "deferred"
kind = "check"
script = "{model}"
assertion = "HONEST"
"#,
        eater = budget_eater(dir).display(),
        model = model.display(),
    );
    let path = dir.join("jobs.toml");
    fs::write(&path, toml).expect("write manifest");
    path.to_str().unwrap().to_owned()
}

/// `(status, lines, replayed)` of job `name` in `run --format json` output.
fn job_verdict(out: &Output, name: &str) -> (String, Vec<String>, bool) {
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = json::parse(text.trim()).unwrap_or_else(|e| panic!("{e}: {text}"));
    let job = doc
        .get("jobs")
        .and_then(Value::as_array)
        .and_then(|jobs| {
            jobs.iter()
                .find(|j| j.get("name").and_then(Value::as_str) == Some(name))
        })
        .unwrap_or_else(|| panic!("no job `{name}`: {text}"));
    let lines = job
        .get("lines")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|l| l.as_str().unwrap().to_owned())
        .collect();
    (
        job.get("status")
            .and_then(Value::as_str)
            .unwrap()
            .to_owned(),
        lines,
        job.get("replayed").and_then(Value::as_bool).unwrap(),
    )
}

/// Run `path` with `first_args`, assert job `first` reached `before` and
/// the journal was kept, apply `change`, then `--resume` (without
/// `first_args`): job `first` must run again and read exactly like a fresh
/// run of the changed content, `after`.
fn resume_reruns_changed_job(
    path: &str,
    first_args: &[&str],
    before: &str,
    change: impl FnOnce(),
    after: &str,
) {
    let json_run = |extra: &[&str]| {
        let mut args = vec!["run", path, "--format", "json"];
        args.extend_from_slice(extra);
        run(&args)
    };
    let first = json_run(first_args);
    assert_eq!(first.status.code(), Some(3), "{first:?}");
    assert_eq!(job_verdict(&first, "first").0, before, "{first:?}");
    assert_eq!(job_verdict(&first, "eater").0, "inconclusive");
    assert!(Path::new(&format!("{path}.journal")).exists());

    change();
    let resumed = json_run(&["--resume"]);
    let (status, lines, replayed) = job_verdict(&resumed, "first");
    assert!(!replayed, "stale verdict replayed: {resumed:?}");
    assert!(
        job_verdict(&resumed, "eater").2,
        "unchanged job must replay"
    );
    assert_eq!(status, after);

    let fresh = json_run(&[]);
    let (fresh_status, fresh_lines, _) = job_verdict(&fresh, "first");
    assert_eq!((status, lines), (fresh_status, fresh_lines));
}

#[test]
fn resume_reruns_a_conform_job_whose_corpus_changed() {
    let dir = scratch("stale-corpus");
    let traces = dir.join("traces");
    fs::create_dir_all(&traces).unwrap();
    let corpus = traces.join("sessions.jsonl");
    fs::write(
        &corpus,
        "{\"id\":\"s\",\"events\":[\"rec.reqSw\",\"send.rptSw\"]}\n",
    )
    .unwrap();
    let path = deferring_manifest(
        &dir,
        &format!(
            "kind = \"conform\"\nscript = \"{}\"\nspec = \"HONEST\"\ncorpus = \"{}\"",
            example("faults/ota_model.csp").display(),
            traces.display()
        ),
    );
    // Same path, new bytes: a report before any request is nonconformant.
    let change = || fs::write(&corpus, "{\"id\":\"s\",\"events\":[\"send.rptSw\"]}\n").unwrap();
    resume_reruns_changed_job(&path, &[], "passed", change, "refuted");
}

#[test]
fn resume_reruns_a_job_whose_cli_budget_changed() {
    let dir = scratch("stale-budget");
    let path = deferring_manifest(
        &dir,
        &format!(
            "kind = \"check\"\nscript = \"{}\"\nassertion = \"HONEST\"",
            example("faults/ota_model.csp").display()
        ),
    );
    // The first run's `--max-states 5` cuts the check short; the resume
    // drops it, so the job must be checked in full.
    resume_reruns_changed_job(
        &path,
        &["--max-states", "5"],
        "inconclusive",
        || {},
        "passed",
    );
}
