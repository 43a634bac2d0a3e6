//! Crash safety of `autocsp check --cache-dir`: a budget-cut or killed
//! check resumes to the reference verdicts, at any thread count; a warm
//! cache compiles nothing; truncated cache entries are quarantined
//! (`STO401`) without changing a verdict.
//!
//! `bigkill.csp` pairs a small implementation (8 interleaved 3-cycles,
//! 3^8 states) with a 240-node cyclic specification, so the product walk
//! (524,881 pairs), the part checkpointing protects, dominates each run.
//! `small.csp` (6,561 pairs) is fast at any thread count; `fdmix.csp` has
//! one passing assertion per semantic model, so the cache legs also cover
//! the failures-family normal forms.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn autocsp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autocsp"))
        .args(args)
        .output()
        .expect("autocsp runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A `[T=` script: `k` interleaved 3-cycles against an `m`-node cyclic
/// specification that accepts any event at every node.
fn ring_script(k: usize, m: usize) -> String {
    let names: Vec<char> = (b'a'..).take(k).map(char::from).collect();
    let channels: Vec<String> = names.iter().map(char::to_string).collect();
    let mut lines = vec![
        "datatype T = t1 | t2 | t3".to_owned(),
        format!("channel {} : T", channels.join(", ")),
    ];
    for n in &names {
        let u = n.to_ascii_uppercase();
        lines.push(format!("P{u} = {n}.t1 -> {n}.t2 -> {n}.t3 -> P{u}"));
    }
    for i in 0..m {
        let choices: Vec<String> = names
            .iter()
            .map(|n| format!("{n}?x -> SPEC{}", (i + 1) % m))
            .collect();
        lines.push(format!("SPEC{i} = {}", choices.join(" [] ")));
    }
    let system = names[1..]
        .iter()
        .fold(format!("P{}", names[0].to_ascii_uppercase()), |acc, n| {
            format!("({acc} ||| P{})", n.to_ascii_uppercase())
        });
    lines.push(format!("SYS = {system}"));
    lines.push("assert SPEC0 [T= SYS".to_owned());
    lines.join("\n") + "\n"
}

const FDMIX: &str = "\
datatype T = t1 | t2 | t3
channel a, b : T
PA = a.t1 -> a.t2 -> PA
PB = b.t1 -> b.t3 -> PB
SYS = PA ||| PB
RUNSPEC = a?x -> RUNSPEC [] b?x -> RUNSPEC
assert RUNSPEC [T= SYS
assert SYS [F= SYS
assert SYS [FD= SYS
";

struct Workloads {
    dir: PathBuf,
    big: String,
    small: String,
    fdmix: String,
    /// `check bigkill.csp` without a cache, at one thread.
    ref_big: String,
    /// `check small.csp --threads 8` without a cache.
    ref_small: String,
}

fn workloads() -> &'static Workloads {
    static WORKLOADS: OnceLock<Workloads> = OnceLock::new();
    WORKLOADS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("crash-matrix");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        let write = |name: &str, text: &str| {
            let path = dir.join(name);
            fs::write(&path, text).expect("workload written");
            path.to_str().expect("a UTF-8 temp path").to_owned()
        };
        let big = write("bigkill.csp", &ring_script(8, 240));
        let small = write("small.csp", &ring_script(8, 1));
        let fdmix = write("fdmix.csp", FDMIX);
        let ref_big = autocsp(&["check", &big]);
        let ref_small = autocsp(&["check", &small, "--threads", "8"]);
        for reference in [&ref_big, &ref_small] {
            assert!(reference.status.success(), "{reference:?}");
        }
        Workloads {
            ref_big: stdout(&ref_big),
            ref_small: stdout(&ref_small),
            dir,
            big,
            small,
            fdmix,
        }
    })
}

/// A fresh cache directory for one leg.
fn cache(leg: &str) -> String {
    let path = workloads().dir.join(leg);
    let _ = fs::remove_dir_all(&path);
    path.to_str().expect("a UTF-8 temp path").to_owned()
}

/// Checkpoint files left in a cache directory.
fn checkpoints(cache: &str) -> Vec<PathBuf> {
    fs::read_dir(Path::new(cache).join("checkpoints"))
        .map(|dir| dir.map(|entry| entry.expect("dir entry").path()).collect())
        .unwrap_or_default()
}

/// Cut `model` at `max_states` on `cut_threads`, then resume its token on
/// `resume_threads`: stdout must equal `reference` and no checkpoint may
/// be left behind.
fn cut_and_resume(
    model: &str,
    max_states: &str,
    cut_threads: &str,
    resume_threads: &str,
    reference: &str,
) {
    let dir = cache(&format!("cut-{cut_threads}-{resume_threads}"));
    let cut = autocsp(&[
        "check",
        model,
        "--threads",
        cut_threads,
        "--cache-dir",
        &dir,
        "--max-states",
        max_states,
    ]);
    assert_eq!(cut.status.code(), Some(3), "{cut:?}");
    let cut_out = stdout(&cut);
    assert!(cut_out.contains("checkpoint saved"), "{cut_out}");
    let token = cut_out
        .split("--resume ")
        .nth(1)
        .and_then(|rest| rest.split('`').next())
        .expect("the cut prints a resume token");
    let resumed = autocsp(&[
        "check",
        model,
        "--threads",
        resume_threads,
        "--cache-dir",
        &dir,
        "--resume",
        token,
    ]);
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(
        stdout(&resumed),
        reference,
        "cut at {cut_threads} thread(s), resumed at {resume_threads}"
    );
    assert_eq!(
        checkpoints(&dir),
        Vec::<PathBuf>::new(),
        "cut at {cut_threads} thread(s), resumed at {resume_threads}"
    );
}

#[test]
fn budget_cut_then_resume_token_matches_the_reference_at_1_and_8_threads() {
    let w = workloads();
    cut_and_resume(&w.big, "200000", "1", "1", &w.ref_big);
    cut_and_resume(&w.small, "3000", "8", "8", &w.ref_small);
}

#[test]
fn a_cut_resumes_at_the_other_thread_count() {
    let w = workloads();
    cut_and_resume(&w.big, "200000", "8", "1", &w.ref_big);
    cut_and_resume(&w.big, "200000", "1", "8", &w.ref_big);
}

#[test]
fn sigkill_mid_exploration_then_resume_auto_matches_the_reference() {
    use std::os::unix::process::ExitStatusExt as _;

    let w = workloads();
    let dir = cache("kill");
    let mut child = Command::new(env!("CARGO_BIN_EXE_autocsp"))
        .args([
            "check",
            &w.big,
            "--cache-dir",
            &dir,
            "--checkpoint-every",
            "100000",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("autocsp starts");
    // Kill at the first checkpoint: checkpoints are renamed into place
    // whole, and four more slices remain to be explored.
    let deadline = Instant::now() + Duration::from_secs(300);
    while checkpoints(&dir).is_empty() {
        let exited = child.try_wait().expect("poll the check");
        assert!(
            exited.is_none(),
            "the check ended before its first checkpoint: {exited:?}"
        );
        assert!(Instant::now() < deadline, "no checkpoint within 300 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill(); // SIGKILL: no chance to clean up
    let killed = child.wait().expect("wait for the killed check");
    assert_eq!(
        killed.signal(),
        Some(9),
        "the kill must land mid-check: {killed:?}"
    );
    assert!(!checkpoints(&dir).is_empty());

    let resumed = autocsp(&["check", &w.big, "--cache-dir", &dir, "--resume", "auto"]);
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(stdout(&resumed), w.ref_big);
}

/// Two `--stats` runs of `model` over one fresh cache: the second must
/// print the same verdicts, be served from disk and compile nothing. Then
/// every cache entry is truncated by four bytes: a third run must still
/// print the same verdicts, reporting and quarantining the damage.
fn warm_then_corrupted(model: &str, threads: &str, leg: &str) {
    let dir = cache(leg);
    let json = workloads().dir.join(format!("{leg}.json"));
    let json = json.to_str().expect("a UTF-8 temp path");
    let run = |extra: &[&str]| {
        let mut args = vec![
            "check",
            model,
            "--threads",
            threads,
            "--cache-dir",
            &dir,
            "--stats",
        ];
        args.extend_from_slice(extra);
        let out = autocsp(&args);
        assert!(out.status.success(), "{out:?}");
        out
    };
    let cold = run(&[]);
    let warm = run(&["--stats-json", json]);
    assert_eq!(stdout(&cold), stdout(&warm));
    let warm_err = stderr(&warm);
    assert!(
        warm_err.split("disk cache: ").skip(1).any(|rest| rest
            .split_once(" hit(s), 0 miss(es)")
            .is_some_and(|(hits, _)| hits.parse::<u64>().is_ok_and(|n| n > 0))),
        "the warm run must be served from disk: {warm_err}"
    );
    let stats = fs::read_to_string(json).expect("--stats-json writes its file");
    assert!(
        !has_nonzero(&stats, "\"store_misses\":"),
        "the warm run recompiled something: {stats}"
    );

    let mut truncated = 0;
    for entry in fs::read_dir(&dir).expect("cache dir listable") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|x| x.to_str()) == Some("bin") {
            let len = fs::metadata(&path).expect("entry metadata").len();
            let file = fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .expect("entry opens");
            file.set_len(len.saturating_sub(4))
                .expect("entry truncated");
            truncated += 1;
        }
    }
    assert!(truncated > 0, "the warm cache holds entries to truncate");
    let corrupted = run(&[]);
    assert_eq!(stdout(&cold), stdout(&corrupted));
    let err = stderr(&corrupted);
    assert!(err.contains("STO401"), "{err}");
    assert!(
        err.match_indices(" quarantined").any(|(at, _)| {
            let count = err[..at].rsplit(|c: char| !c.is_ascii_digit()).next();
            count.is_some_and(|n| n.parse::<u64>().is_ok_and(|n| n > 0))
        }),
        "the damage must be counted as quarantined: {err}"
    );
    let quarantine = fs::read_dir(Path::new(&dir).join("quarantine")).expect("quarantine exists");
    assert!(quarantine
        .map(|entry| entry.expect("dir entry").path())
        .any(|path| path.extension().and_then(|x| x.to_str()) == Some("bin")));
}

/// Does any `key` in `json` carry a nonzero number?
fn has_nonzero(json: &str, key: &str) -> bool {
    json.split(key)
        .skip(1)
        .any(|rest| rest.starts_with(|c: char| c.is_ascii_digit() && c != '0'))
}

#[test]
fn warm_cache_compiles_nothing_and_truncated_entries_are_quarantined() {
    warm_then_corrupted(&workloads().small, "1", "warm");
}

#[test]
fn all_model_script_warm_and_corrupted_at_8_threads() {
    warm_then_corrupted(&workloads().fdmix, "8", "warmfd");
}
