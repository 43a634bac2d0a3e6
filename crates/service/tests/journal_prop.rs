//! The job journal's log format under crashes. Whatever byte a crash
//! cuts the file at, reopening it replays exactly the records written
//! wholly before the cut, the last record of each id winning, and warns
//! (`SRV603`) only when the cut tore a record. Arbitrary bytes never
//! panic the reader.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use diag::Diagnostic;
use fdrlite::supervisor::{JobReport, JobStatus};
use proptest::prelude::*;
use service::journal::{JournalEntry, ServiceJournal};
use service::{codes, ResolvedJob};

/// The journal's file header: its magic.
const HEADER: usize = 8;

fn tmppath(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "svc-journal-prop-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir.join("service.journal")
}

/// A journal entry whose content varies with `version`: pending, done or
/// failed, with a varying number of verdict lines.
fn entry(id: u64, version: u32) -> JournalEntry {
    let outcome = (version % 3 == 1).then(|| JobReport {
        status: JobStatus::Refuted,
        lines: (0..version % 4)
            .map(|i| format!("assert S{i} [T= I{version}  ...  FAIL"))
            .collect(),
        interrupted: false,
    });
    JournalEntry {
        id,
        job: ResolvedJob {
            name: format!("job-{id}"),
            kind: cspm::manifest::JobKind::Check,
            script: format!("m{id}.csp").into(),
            spec: None,
            corpus: None,
            assertion: version.is_multiple_of(2).then(|| format!("I{version}")),
            threads: 1,
            max_states: None,
            timeout_ms: Some(u64::from(version)),
            chaos: None,
        },
        attempts: version % 5,
        outcome,
        failure: (version % 3 == 2).then(|| format!("failed at version {version}")),
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Record { id: u64, version: u32 },
    Remove { id: u64 },
}

fn op() -> impl Strategy<Value = Op> {
    (0_u8..4, 0_u64..6, any::<u32>()).prop_map(|(kind, id, version)| {
        if kind == 0 {
            Op::Remove { id }
        } else {
            Op::Record { id, version }
        }
    })
}

/// Last-writer-wins over `records`, in first-recorded order: what a
/// journal replaying them must hold.
fn last_writer_wins(records: &[JournalEntry]) -> Vec<JournalEntry> {
    let mut out: Vec<JournalEntry> = Vec::new();
    for record in records {
        match out.iter_mut().find(|e| e.id == record.id) {
            Some(slot) => *slot = record.clone(),
            None => out.push(record.clone()),
        }
    }
    out
}

/// The byte offset at which each record of a log ends: after the header,
/// each record is a little-endian `u32` length and that many bytes.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = HEADER;
    while pos < bytes.len() {
        let n = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        pos += 4 + n as usize;
        ends.push(pos);
    }
    assert_eq!(pos, bytes.len(), "records must tile the log");
    ends
}

fn journal_errors(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.code == codes::JOURNAL_ERROR)
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_cut_log_replays_exactly_the_whole_records_before_the_cut(
        ops in proptest::collection::vec(op(), 1..24),
        cut in any::<u64>(),
        on_a_boundary in any::<bool>(),
    ) {
        let path = tmppath("cut");
        let mut diags = Vec::new();
        let mut journal = ServiceJournal::open(&path, &mut diags);
        // The records in the file, in file order: `record` appends one,
        // and `remove_entry` of a journaled id rewrites the file with one
        // record per remaining entry.
        let mut records: Vec<JournalEntry> = Vec::new();
        for op in &ops {
            match *op {
                Op::Record { id, version } => {
                    journal.record(entry(id, version)).unwrap();
                    records.push(entry(id, version));
                }
                Op::Remove { id } => {
                    let held = journal.lookup(id).is_some();
                    journal.remove_entry(id).unwrap();
                    if held {
                        records = journal.entries().to_vec();
                    }
                }
            }
            let model = last_writer_wins(&records);
            prop_assert_eq!(journal.entries(), model.as_slice());
        }
        prop_assume!(path.exists());

        let bytes = fs::read(&path).unwrap();
        let ends = record_ends(&bytes);
        prop_assert_eq!(ends.len(), records.len());
        // Half the cuts fall between records, the rest anywhere.
        let cut = if on_a_boundary {
            let boundaries: Vec<usize> = std::iter::once(HEADER).chain(ends.iter().copied()).collect();
            boundaries[usize::try_from(cut % boundaries.len() as u64).unwrap()]
        } else {
            usize::try_from(cut % (bytes.len() as u64 + 1)).unwrap()
        };
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        let torn = cut < HEADER || !(cut == HEADER || ends.contains(&cut));

        let crashed = tmppath("cut-reopen");
        fs::write(&crashed, &bytes[..cut]).unwrap();
        let mut diags = Vec::new();
        let back = ServiceJournal::open(&crashed, &mut diags);
        let model = last_writer_wins(&records[..whole]);
        prop_assert_eq!(back.entries(), model.as_slice());
        prop_assert!(journal_errors(&diags) == usize::from(torn), "cut {cut} of {ends:?}: {diags:?}");

        // Opening compacted the log: it reopens to the same entries, one
        // record per id, and warns no more.
        let mut diags = Vec::new();
        let again = ServiceJournal::open(&crashed, &mut diags);
        prop_assert!(diags.is_empty(), "{diags:?}");
        prop_assert_eq!(again.entries(), back.entries());
        prop_assert_eq!(record_ends(&fs::read(&crashed).unwrap()).len(), back.entries().len());
    }

    #[test]
    fn opening_arbitrary_bytes_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        framed in any::<bool>(),
    ) {
        // Half the cases start with a valid header, so the record reader
        // sees the arbitrary bytes too.
        let mut file = if framed { b"AUTOSRV\x02".to_vec() } else { Vec::new() };
        file.extend_from_slice(&bytes);
        let path = tmppath("bytes");
        fs::write(&path, &file).unwrap();
        let mut diags = Vec::new();
        let _ = ServiceJournal::open(&path, &mut diags);
    }

    #[test]
    fn opening_a_damaged_log_never_panics(
        ops in proptest::collection::vec(op(), 1..12),
        flips in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..6),
    ) {
        let path = tmppath("damaged");
        let mut diags = Vec::new();
        let mut journal = ServiceJournal::open(&path, &mut diags);
        for op in &ops {
            match *op {
                Op::Record { id, version } => journal.record(entry(id, version)).unwrap(),
                Op::Remove { id } => journal.remove_entry(id).unwrap(),
            }
        }
        prop_assume!(path.exists());
        let mut bytes = fs::read(&path).unwrap();
        for (at, value) in flips {
            let at = usize::try_from(at % bytes.len() as u64).unwrap();
            bytes[at] = value;
        }
        fs::write(&path, &bytes).unwrap();
        let mut diags = Vec::new();
        let back = ServiceJournal::open(&path, &mut diags);
        prop_assert!(back.entries().len() <= journal.entries().len());
    }
}
