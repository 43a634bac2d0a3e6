//! Properties of `diag::toml`, the one reader of fault plans and
//! `jobs.toml` manifests: the reader and both formats answer any input
//! with a value or positioned errors, never a panic; the documented plan
//! and manifest parse; and where the two formats' old readers disagreed,
//! the shared reader follows TOML.

use std::fs;
use std::path::{Path, PathBuf};

use cspm::manifest::Manifest;
use cspm::CspmError;
use diag::toml;
use diag::{Code, Diagnostic};
use faults::FaultPlan;
use proptest::prelude::*;

const CODE: Code = Code("TST000");

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `examples/faults/*.toml` and `examples/supervise/*.toml`.
fn fixtures() -> Vec<String> {
    let mut docs = Vec::new();
    for dir in ["examples/faults", "examples/supervise"] {
        for entry in fs::read_dir(root().join(dir)).expect("examples dir") {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|ext| ext == "toml") {
                docs.push(fs::read_to_string(path).expect("fixture"));
            }
        }
    }
    docs.sort();
    assert_eq!(docs.len(), 5);
    docs
}

/// The ```` ```toml ```` blocks of a document, in order.
fn toml_blocks(doc: &str) -> Vec<String> {
    let text = fs::read_to_string(root().join(doc)).expect("doc");
    let mut blocks = Vec::new();
    let mut open: Option<String> = None;
    for line in text.lines() {
        match (&mut open, line.trim_end()) {
            (None, "```toml") => open = Some(String::new()),
            (Some(block), "```") => {
                blocks.push(std::mem::take(block));
                open = None;
            }
            (Some(block), _) => {
                block.push_str(line);
                block.push('\n');
            }
            (None, _) => {}
        }
    }
    blocks
}

/// Whether `len` characters from `line:col` lie on a line of `src`. A
/// length of 0 is a bare position, which may sit just past the line's
/// end. Line 0 is "no position".
fn inside(src: &str, line: u32, col: u32, len: u32) -> bool {
    if line == 0 {
        return true;
    }
    let Some(text) = src.lines().nth(line as usize - 1) else {
        return false;
    };
    col >= 1 && (col - 1 + len) as usize <= text.chars().count()
}

fn check_diagnostics(src: &str, errors: &[Diagnostic]) -> Result<(), TestCaseError> {
    prop_assert!(!errors.is_empty());
    for d in errors {
        prop_assert!(
            inside(src, d.span.line, d.span.col, d.span.len.max(1)),
            "{d:?} outside {src:?}"
        );
    }
    Ok(())
}

/// Feed `src` to the reader and both formats: none may panic, and every
/// error must be positioned inside `src`.
fn read_all_three(src: &str) -> Result<(), TestCaseError> {
    if let Err(errors) = toml::parse(src, CODE) {
        check_diagnostics(src, &errors)?;
    }
    if let Err(errors) = FaultPlan::parse(src) {
        check_diagnostics(src, &errors)?;
    }
    match Manifest::parse(src, Path::new("base")) {
        Ok(_) => {}
        Err(CspmError::Parse { pos, .. }) => {
            prop_assert!(inside(src, pos.line, pos.col, 0), "{pos} outside {src:?}");
        }
        Err(other) => prop_assert!(false, "not a parse error: {other}"),
    }
    Ok(())
}

/// The bytes the TOML subset is made of, so random inputs reach past the
/// first line.
fn arb_tomlish_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(b'['),
        Just(b']'),
        Just(b'='),
        Just(b'"'),
        Just(b'#'),
        Just(b','),
        Just(b'\n'),
        Just(b' '),
        Just(b'0'),
        Just(b'x'),
        Just(b'_'),
        Just(b'-'),
        Just(b'.'),
        Just(b'k'),
        any::<u8>(),
    ]
}

#[test]
fn the_documented_plan_and_manifest_parse() {
    let plans = toml_blocks("docs/FAULTS.md");
    assert_eq!(plans.len(), 1, "docs/FAULTS.md shows one plan");
    let plan = FaultPlan::parse(&plans[0]).unwrap_or_else(|errors| {
        panic!("docs/FAULTS.md plan: {errors:?}");
    });
    assert_eq!(plan.name, "x1373-replay-attack");
    assert_eq!(plan.faults.len(), 1);
    assert_eq!(plan.conformance.expect("conformance").rules.len(), 2);

    // The manifest and its `[chaos]` section are shown in two blocks.
    let blocks = toml_blocks("docs/SUPERVISION.md");
    assert_eq!(blocks.len(), 2, "docs/SUPERVISION.md shows two blocks");
    let manifest = Manifest::parse(&blocks.concat(), Path::new("docs"))
        .unwrap_or_else(|e| panic!("docs/SUPERVISION.md manifest: {e}"));
    assert_eq!(manifest.jobs.len(), 3);
    assert_eq!(manifest.run.retry_seed, Some(7));
    assert_eq!(manifest.chaos.expect("chaos").every_nth, 3);
}

#[test]
fn a_comment_after_a_quoted_string_is_accepted_in_fault_plans() {
    let plan = FaultPlan::parse(concat!(
        "[plan]\n",
        "name = \"p\"  # the plan's \"name\"\n",
        "[[fault]]\n",
        "name = \"f\" # ok\n",
        "kind = \"drop\"\n",
    ))
    .expect("comments after strings are comments");
    assert_eq!(plan.name, "p");
    assert_eq!(plan.faults[0].name, "f");
}

#[test]
fn a_repeated_key_is_a_duplicate_key_error_in_both_formats() {
    let errors = FaultPlan::parse("[plan]\nname = \"p\"\nseed = 1\nseed = 2\n").unwrap_err();
    let found: Vec<(u32, &str)> = errors
        .iter()
        .map(|d| (d.span.line, d.message.as_str()))
        .collect();
    assert_eq!(found, [(4, "duplicate key `seed`")]);

    let err = Manifest::parse(
        "[[job]]\nname = \"a\"\nscript = \"a.csp\"\nscript = \"b.csp\"\n",
        Path::new("."),
    )
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        "parse error at 4:1: duplicate key `script`"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_get_positioned_errors_not_panics(
        bytes in proptest::collection::vec(arb_tomlish_byte(), 0..96)
    ) {
        read_all_three(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn mutated_fixtures_get_positioned_errors_not_panics(
        fixture in any::<usize>(),
        donor in any::<usize>(),
        edits in proptest::collection::vec(
            (any::<usize>(), 0_u8..5, arb_tomlish_byte(), any::<usize>(), 0_usize..40),
            1..6,
        ),
    ) {
        let docs = fixtures();
        let mut bytes = docs[fixture % docs.len()].clone().into_bytes();
        let donor = docs[donor % docs.len()].as_bytes();
        for (at, op, byte, from, len) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                // Flip one byte, insert one or remove one.
                0 if at < bytes.len() => bytes[at] ^= byte | 1,
                1 => bytes.insert(at, byte),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                // Splice in a run of another fixture.
                3 => {
                    let from = from % donor.len();
                    let run = &donor[from..(from + len).min(donor.len())];
                    bytes.splice(at..at, run.iter().copied());
                }
                _ => bytes.truncate(at),
            }
        }
        read_all_three(&String::from_utf8_lossy(&bytes))?;
    }
}

#[test]
fn every_fixture_reads_cleanly_in_its_own_format() {
    for doc in fixtures() {
        assert!(toml::parse(&doc, CODE).is_ok(), "{doc}");
        if doc.contains("[plan]") {
            assert!(FaultPlan::parse(&doc).is_ok(), "{doc}");
        } else {
            assert!(Manifest::parse(&doc, Path::new("base")).is_ok(), "{doc}");
        }
    }
}
