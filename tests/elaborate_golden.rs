//! Pins what `Script::load` elaborates, byte for byte: for every CSPm
//! example under `examples/` and for the CSPm `autocsp translate` emits
//! for the fault-injection ECUs, the alphabet in `EventId` order, the
//! definitions in `DefId` order with their bodies, and every assertion's
//! resolved operands. Event and definition numbering, and every process
//! the elaborator builds, must not change with how it is implemented.
//!
//! The goldens live in `examples/elaborate/`. Regenerate them from the
//! repository root with
//! `cargo test --test elaborate_golden -- --ignored`.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every CSPm example, as `(golden name, source)`, in a fixed order.
fn models() -> Vec<(String, String)> {
    let mut scripts = Vec::new();
    let mut dirs = vec![root().join("examples")];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("examples/ is readable") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "csp") {
                scripts.push(path);
            }
        }
    }
    scripts.sort();
    let mut models: Vec<(String, String)> = scripts
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root()).expect("under the root");
            (
                golden_name(rel),
                fs::read_to_string(path).expect("readable"),
            )
        })
        .collect();
    for ecu in ["ecu", "vmg"] {
        let can = format!("examples/faults/{ecu}.can");
        let out = Command::new(env!("CARGO_BIN_EXE_autocsp"))
            .current_dir(root())
            .args(["translate", &can, "--dbc", "examples/faults/net.dbc"])
            .output()
            .expect("autocsp runs");
        assert!(out.status.success(), "translate {can}: {out:?}");
        let script = String::from_utf8(out.stdout).expect("UTF-8 CSPm");
        models.push((format!("translated_{ecu}"), script));
    }
    models
}

/// `examples/faults/ota_model.csp` → `faults_ota_model`.
fn golden_name(rel: &Path) -> String {
    let rel = rel
        .strip_prefix("examples")
        .unwrap_or(rel)
        .with_extension("");
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("_")
}

/// The elaboration of `source`, one fact per line.
fn elaboration(source: &str) -> String {
    let script = cspm::Script::parse(source).expect("example parses");
    let loaded = script.load().expect("example elaborates");
    let mut out = String::from("alphabet\n");
    let alphabet = loaded.alphabet();
    for i in 0..alphabet.len() {
        let _ = writeln!(out, "  {i} {}", alphabet.name(csp::EventId::from_index(i)));
    }
    out.push_str("definitions\n");
    let defs = loaded.definitions();
    for d in defs.ids() {
        let body = match defs.body(d) {
            Ok(body) => format!("{body:?}"),
            Err(e) => format!("<{e}>"),
        };
        let _ = writeln!(out, "  {} {} = {body}", d.index(), defs.name(d));
    }
    out.push_str("assertions\n");
    for a in loaded.assertions() {
        let _ = writeln!(out, "  {}\n    {:?}", a.description, a.kind);
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    root()
        .join("examples/elaborate")
        .join(format!("{name}.txt"))
}

#[test]
fn elaboration_matches_its_goldens() {
    let models = models();
    assert!(models.len() >= 6, "{} models", models.len());
    for (name, source) in models {
        let path = golden_path(&name);
        let expected =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            elaboration(&source) == expected,
            "{name}: elaboration differs from {}",
            path.display()
        );
    }
}

/// Rewrites every golden from the current elaborator.
#[test]
#[ignore = "rewrites the goldens"]
fn bless_elaboration_goldens() {
    fs::create_dir_all(root().join("examples/elaborate")).expect("golden directory");
    for (name, source) in models() {
        fs::write(golden_path(&name), elaboration(&source)).expect("golden written");
    }
}
