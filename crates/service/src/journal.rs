//! The crash-safe job journal.
//!
//! Every job that `autocsp serve` accepts, and every job that
//! `autocsp run` finishes, is recorded in one binary file: the service
//! keeps it at `<state-dir>/service.journal`, a run next to its cache or
//! manifest. Entries are keyed by the job's content id
//! ([`crate::exec::job_content_key`]), so a replayed verdict always
//! belongs to the content that produced it.
//!
//! The file is an [`fdrlite::persist::RecordLog`], the append-only log the
//! engines' checkpoints use too, under the magic `AUTOSRV\x02`: one record
//! per [`ServiceJournal::record`] call, each one entry in the model cache's
//! codec with its own checksum, so a `record` call writes one entry's bytes
//! however many jobs the journal holds. This module keeps only the entry
//! codec and the index: replay applies the records in file order, and the
//! last record of an id wins. A torn or corrupt record (a write that a
//! crash cut short) ends replay there with one
//! [`crate::codes::JOURNAL_ERROR`] warning, keeping the records before it.
//! [`ServiceJournal::open`] then compacts the file to one record per id
//! with one atomic rewrite. That rewrite and
//! [`ServiceJournal::remove_entry`] are the only full rewrites, apart from
//! a journal's first write and the recovery from a failed append that
//! could not be cut back.
//!
//! On restart the journal is replayed: completed jobs serve their
//! verdicts verbatim (so a client polling across a restart sees no
//! difference), and pending jobs re-enter the queue — after their
//! content keys are re-derived from disk, so a script edited while the
//! service was down drops the stale entry ([`crate::codes::JOURNAL_ERROR`])
//! instead of running the wrong content under the old id.

use std::collections::HashMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};

use diag::{Diagnostic, Span};
use fdrlite::persist::{corrupt, Dec, DecResult, Enc, EntryError, RecordLog, Torn};
use fdrlite::supervisor::{JobReport, JobStatus};

use crate::{ChaosCfg, ResolvedJob};

/// Magic of the service journal file, and of each of its records.
const MAGIC: &[u8; 8] = b"AUTOSRV\x02";

/// One journaled job: the resolved definition plus, once the job reaches
/// a terminal state, its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The job's content key (its public id).
    pub id: u64,
    /// The resolved job, re-dispatchable as-is.
    pub job: ResolvedJob,
    /// Attempts consumed so far.
    pub attempts: u32,
    /// The verdict, once the job is done; `None` while pending or failed.
    pub outcome: Option<JobReport>,
    /// The `SRV6xx` failure message for failed entries.
    pub failure: Option<String>,
}

/// The journal: an in-memory entry list mirrored crash-safely to an
/// append-only log on disk.
pub struct ServiceJournal {
    records: RecordLog,
    /// Entries in first-recorded order.
    entries: Vec<JournalEntry>,
    /// Position of each id in `entries`.
    index: HashMap<u64, usize>,
    /// The log, open for appends. `None` before the first write, and
    /// after a failed append could not be cut back to a whole record; the
    /// next write then rewrites the whole file.
    log: Option<File>,
}

/// An optional value: a `0`/`1` flag, then the value `put` writes.
fn enc_opt<T>(e: &mut Enc, v: Option<T>, put: impl FnOnce(&mut Enc, T)) {
    e.u8(u8::from(v.is_some()));
    if let Some(v) = v {
        put(e, v);
    }
}

fn dec_opt<'a, T>(
    d: &mut Dec<'a>,
    get: impl FnOnce(&mut Dec<'a>) -> DecResult<T>,
) -> DecResult<Option<T>> {
    d.flag("bad option tag")?.then(|| get(d)).transpose()
}

fn encode_entry(e: &mut Enc, entry: &JournalEntry) {
    let job = &entry.job;
    e.u64(entry.id);
    e.text(&job.name);
    e.text(job.kind.label());
    e.text(&job.script.display().to_string());
    enc_opt(e, job.spec.as_deref(), Enc::text);
    let corpus = job.corpus.as_ref().map(|p| p.display().to_string());
    enc_opt(e, corpus.as_deref(), Enc::text);
    enc_opt(e, job.assertion.as_deref(), Enc::text);
    e.u64(job.threads as u64);
    enc_opt(e, job.max_states, Enc::u64);
    enc_opt(e, job.timeout_ms, Enc::u64);
    enc_opt(e, job.chaos.as_ref(), |e, c| {
        e.u64(c.seed);
        e.u32(c.transient_attempts);
        e.u64(c.every_nth);
    });
    e.u32(entry.attempts);
    enc_opt(e, entry.outcome.as_ref(), |e, out| {
        e.text(out.status.label());
        e.u8(u8::from(out.interrupted));
        e.u32(u32::try_from(out.lines.len()).unwrap_or(u32::MAX));
        out.lines.iter().for_each(|line| e.text(line));
    });
    enc_opt(e, entry.failure.as_deref(), Enc::text);
}

/// The entry [`encode_entry`] wrote, its fields read in that order.
fn decode_entry(d: &mut Dec<'_>) -> DecResult<JournalEntry> {
    Ok(JournalEntry {
        id: d.u64()?,
        job: ResolvedJob {
            name: d.text()?,
            kind: match d.text()?.as_str() {
                "check" => cspm::manifest::JobKind::Check,
                "conform" => cspm::manifest::JobKind::Conform,
                "analyze" => cspm::manifest::JobKind::Analyze,
                _ => return corrupt("unknown job kind"),
            },
            script: PathBuf::from(d.text()?),
            spec: dec_opt(d, Dec::text)?,
            corpus: dec_opt(d, Dec::text)?.map(PathBuf::from),
            assertion: dec_opt(d, Dec::text)?,
            threads: usize::try_from(d.u64()?)
                .map_err(|_| EntryError::Corrupt("thread count out of range"))?,
            max_states: dec_opt(d, Dec::u64)?,
            timeout_ms: dec_opt(d, Dec::u64)?,
            chaos: dec_opt(d, |d| {
                Ok(ChaosCfg {
                    seed: d.u64()?,
                    transient_attempts: d.u32()?,
                    every_nth: d.u64()?,
                })
            })?,
        },
        attempts: d.u32()?,
        outcome: dec_opt(d, |d| {
            let Some(status) = JobStatus::from_label(&d.text()?) else {
                return corrupt("unknown status label");
            };
            Ok(JobReport {
                status,
                interrupted: d.u8()? != 0,
                lines: (0..d.len(1)?).map(|_| d.text()).collect::<DecResult<_>>()?,
            })
        })?,
        failure: dec_opt(d, Dec::text)?,
    })
}

/// One log record: the entry's encoding.
fn encode_record(entry: &JournalEntry) -> Vec<u8> {
    let mut e = Enc::new(MAGIC);
    encode_entry(&mut e, entry);
    RecordLog::record(&e.finish())
}

impl ServiceJournal {
    fn empty(path: &Path) -> ServiceJournal {
        let tmp = path.with_extension("journal.tmp");
        ServiceJournal {
            records: RecordLog::new(path.to_path_buf(), tmp, MAGIC),
            entries: Vec::new(),
            index: HashMap::new(),
            log: None,
        }
    }

    /// Open (or create) the journal at `path`, replay it and compact it.
    /// A missing file is an empty journal. An unreadable file, or one in
    /// another format, is *also* an empty journal plus a
    /// [`crate::codes::JOURNAL_ERROR`] warning in `diags`; a torn or
    /// corrupt record keeps the entries recorded before it, with the same
    /// warning. At worst jobs are resubmitted, never trusted from bad
    /// bytes.
    pub fn open(path: impl AsRef<Path>, diags: &mut Vec<Diagnostic>) -> ServiceJournal {
        let mut journal = ServiceJournal::empty(path.as_ref());
        let path = journal.records.path().display().to_string();
        let bytes = match fs::read(journal.records.path()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return journal,
            Err(e) => {
                diags.push(Diagnostic::warning(
                    crate::codes::JOURNAL_ERROR,
                    Span::unknown(),
                    format!("cannot read journal `{path}`: {e}; starting empty"),
                ));
                return journal;
            }
        };
        let mut replayed = Vec::new();
        let stop = journal.records.replay(&bytes, |d| {
            decode_entry(d).map(|entry| replayed.push(entry))
        });
        replayed.into_iter().for_each(|entry| journal.apply(entry));
        if let Err(stop) = stop {
            let why = match stop {
                Torn::Header => {
                    "is unusable (magic or version mismatch); starting empty".to_string()
                }
                Torn::Record(offset, why) => format!(
                    "has a torn or corrupt record at byte {offset} ({why}); keeping the {} \
                     entr(ies) recorded before it",
                    journal.entries.len()
                ),
            };
            diags.push(
                Diagnostic::warning(
                    crate::codes::JOURNAL_ERROR,
                    Span::unknown(),
                    format!("journal `{path}` {why}"),
                )
                .with_note("verdicts journaled after that point are lost; affected jobs run again"),
            );
        }
        if let Err(d) = journal.rewrite() {
            diags.push(d);
        }
        journal
    }

    /// Start an empty journal at `path`, discarding any file left there
    /// (a fresh `autocsp run` replays nothing).
    pub fn fresh(path: impl AsRef<Path>) -> ServiceJournal {
        let journal = ServiceJournal::empty(path.as_ref());
        journal.records.remove();
        journal
    }

    /// Insert `entry`, or replace the entry with its id in place.
    fn apply(&mut self, entry: JournalEntry) {
        match self.index.get(&entry.id) {
            Some(&i) => self.entries[i] = entry,
            None => {
                self.index.insert(entry.id, self.entries.len());
                self.entries.push(entry);
            }
        }
    }

    /// The journaled entries, replay order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// The entry with content id `id`, if journaled.
    pub fn lookup(&self, id: u64) -> Option<&JournalEntry> {
        self.index.get(&id).map(|&i| &self.entries[i])
    }

    /// Record (insert or update by id) one entry by appending one record
    /// to the log.
    ///
    /// # Errors
    ///
    /// A [`crate::codes::JOURNAL_ERROR`] warning when the record could not
    /// be written; the log is cut back to its last whole record. The
    /// in-memory state stays correct for this process; only resuming
    /// after a crash suffers, so callers report it and carry on.
    pub fn record(&mut self, entry: JournalEntry) -> Result<(), Diagnostic> {
        let record = encode_record(&entry);
        self.apply(entry);
        if self.log.is_none() {
            // No log is open: write the whole file, this entry included.
            return self.rewrite();
        }
        RecordLog::append(&mut self.log, &record).map_err(|e| self.write_error(&e))
    }

    /// Rewrite the whole file, one record per entry, atomically, and open
    /// it for appends.
    fn rewrite(&mut self) -> Result<(), Diagnostic> {
        self.log = None;
        let records = self.entries.iter().map(encode_record);
        let log = self
            .records
            .rewrite(records)
            .map_err(|e| self.write_error(&e))?;
        self.log = Some(log);
        Ok(())
    }

    fn write_error(&self, e: &std::io::Error) -> Diagnostic {
        Diagnostic::warning(
            crate::codes::JOURNAL_ERROR,
            Span::unknown(),
            format!(
                "cannot write journal `{}`: {e}",
                self.records.path().display()
            ),
        )
        .with_note("a crash now would run this job again instead of replaying it")
    }

    /// Drop the entry with `id` (a stale pending job whose on-disk
    /// content changed) and rewrite the file.
    ///
    /// # Errors
    ///
    /// As for [`ServiceJournal::record`].
    pub fn remove_entry(&mut self, id: u64) -> Result<(), Diagnostic> {
        let Some(i) = self.index.remove(&id) else {
            return Ok(());
        };
        self.entries.remove(i);
        for slot in self.index.values_mut() {
            if *slot > i {
                *slot -= 1;
            }
        }
        self.rewrite()
    }

    /// Remove the journal file (a drained service or a finished run with
    /// nothing pending).
    pub fn remove(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.log = None;
        self.records.remove();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmppath(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "svc-journal-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir.join("service.journal")
    }

    fn entry(id: u64, outcome: Option<JobReport>) -> JournalEntry {
        JournalEntry {
            id,
            job: ResolvedJob {
                name: format!("job-{id}"),
                kind: cspm::manifest::JobKind::Conform,
                script: "m.csp".into(),
                spec: Some("SYSTEM".into()),
                corpus: Some("traces".into()),
                assertion: None,
                threads: 2,
                max_states: Some(1000),
                timeout_ms: None,
                chaos: Some(ChaosCfg {
                    seed: 9,
                    transient_attempts: 1,
                    every_nth: 2,
                }),
            },
            attempts: 1,
            outcome,
            failure: None,
        }
    }

    #[test]
    fn entries_round_trip_across_reopen() {
        let path = tmppath("roundtrip");
        let mut diags = Vec::new();
        let mut j = ServiceJournal::open(&path, &mut diags);
        j.record(entry(1, None)).unwrap();
        j.record(entry(
            2,
            Some(JobReport {
                status: JobStatus::Passed,
                lines: vec!["assert A  ...  PASS".into()],
                interrupted: false,
            }),
        ))
        .unwrap();
        // Updating a pending entry to done replaces it in place.
        j.record(entry(
            1,
            Some(JobReport {
                status: JobStatus::Refuted,
                lines: vec!["assert B  ...  FAIL".into(), "  <a>".into()],
                interrupted: false,
            }),
        ))
        .unwrap();

        let back = ServiceJournal::open(&path, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(back.entries().len(), 2);
        assert_eq!(back.entries(), j.entries());
    }

    #[test]
    fn corrupt_journal_degrades_to_empty_with_diag() {
        let path = tmppath("corrupt");
        let mut diags = Vec::new();
        let mut j = ServiceJournal::open(&path, &mut diags);
        j.record(entry(1, None)).unwrap();
        // Flip a payload byte: checksum fails, journal starts empty.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let back = ServiceJournal::open(&path, &mut diags);
        assert!(back.entries().is_empty());
        assert!(diags.iter().any(|d| d.code == crate::codes::JOURNAL_ERROR));
    }

    #[test]
    fn remove_clears_disk_state() {
        let path = tmppath("remove");
        let mut diags = Vec::new();
        let mut j = ServiceJournal::open(&path, &mut diags);
        j.record(entry(5, None)).unwrap();
        assert!(path.exists());
        j.remove();
        assert!(!path.exists());
        assert!(j.entries().is_empty());
    }

    #[test]
    fn failed_writes_are_reported_not_ignored() {
        let path = tmppath("unwritable")
            .join("missing-dir")
            .join("jobs.journal");
        let mut diags = Vec::new();
        let mut j = ServiceJournal::open(&path, &mut diags);
        let err = j.record(entry(3, None)).unwrap_err();
        assert_eq!(err.code, crate::codes::JOURNAL_ERROR);
        // The in-memory state still holds the entry.
        assert_eq!(j.lookup(3).map(|e| e.id), Some(3));
    }

    fn done(id: u64, assertion: &str) -> JournalEntry {
        entry(
            id,
            Some(JobReport {
                status: JobStatus::Passed,
                lines: vec![format!("assert {assertion}  ...  PASS")],
                interrupted: false,
            }),
        )
    }

    /// The byte offset at which each record of the log at `path` ends.
    fn record_ends(path: &Path) -> Vec<usize> {
        let bytes = fs::read(path).unwrap();
        let mut ends = Vec::new();
        let mut pos = MAGIC.len();
        while pos < bytes.len() {
            let n = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            pos += 4 + n as usize;
            ends.push(pos);
        }
        ends
    }

    fn journal_errors(diags: &[Diagnostic]) -> usize {
        diags
            .iter()
            .filter(|d| d.code == crate::codes::JOURNAL_ERROR)
            .count()
    }

    #[test]
    fn a_torn_last_record_keeps_every_earlier_entry() {
        let path = tmppath("torn");
        let mut diags = Vec::new();
        let mut j = ServiceJournal::open(&path, &mut diags);
        j.record(entry(1, None)).unwrap();
        j.record(entry(2, None)).unwrap();
        j.record(done(1, "A")).unwrap();
        j.record(entry(3, None)).unwrap();
        let ends = record_ends(&path);
        assert_eq!(ends.len(), 4);
        // A crash cut the last append short.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..ends[3] - 5]).unwrap();
        let back = ServiceJournal::open(&path, &mut diags);
        assert_eq!(journal_errors(&diags), 1, "{diags:?}");
        assert_eq!(back.entries(), [done(1, "A"), entry(2, None)]);
    }

    #[test]
    fn a_flipped_byte_in_a_middle_record_keeps_the_records_before_it() {
        let path = tmppath("flip");
        let mut diags = Vec::new();
        let mut j = ServiceJournal::open(&path, &mut diags);
        for id in 1..=3 {
            j.record(entry(id, None)).unwrap();
        }
        let ends = record_ends(&path);
        let mut bytes = fs::read(&path).unwrap();
        bytes[(ends[0] + ends[1]) / 2] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let back = ServiceJournal::open(&path, &mut diags);
        assert_eq!(journal_errors(&diags), 1, "{diags:?}");
        assert_eq!(back.entries(), [entry(1, None)]);
    }

    #[test]
    fn a_journal_in_the_previous_format_opens_empty_with_a_warning() {
        let path = tmppath("v1");
        // An empty journal as the whole-file format wrote it.
        let mut e = Enc::new(b"AUTOSRV\x01");
        e.u32(0);
        fs::write(&path, e.finish()).unwrap();
        let mut diags = Vec::new();
        let back = ServiceJournal::open(&path, &mut diags);
        assert!(back.entries().is_empty());
        assert_eq!(journal_errors(&diags), 1, "{diags:?}");
    }

    #[test]
    fn reopening_compacts_superseded_records_to_one_per_id() {
        let path = tmppath("compact");
        let mut diags = Vec::new();
        let mut j = ServiceJournal::open(&path, &mut diags);
        j.record(entry(1, None)).unwrap();
        j.record(entry(2, None)).unwrap();
        j.record(done(1, "A")).unwrap();
        j.record(done(2, "B")).unwrap();
        assert_eq!(record_ends(&path).len(), 4);
        let back = ServiceJournal::open(&path, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(back.entries(), [done(1, "A"), done(2, "B")]);
        let mut compacted = MAGIC.to_vec();
        for e in back.entries() {
            compacted.extend(encode_record(e));
        }
        assert_eq!(fs::read(&path).unwrap(), compacted);
    }

    #[test]
    fn a_failed_append_leaves_the_file_readable() {
        let path = tmppath("failed-append");
        let mut diags = Vec::new();
        let mut j = ServiceJournal::open(&path, &mut diags);
        j.record(entry(1, None)).unwrap();
        j.record(entry(2, None)).unwrap();
        // A read-only handle makes the next append fail.
        j.log = Some(File::open(&path).unwrap());
        let err = j.record(done(1, "A")).unwrap_err();
        assert_eq!(err.code, crate::codes::JOURNAL_ERROR);
        let back = ServiceJournal::open(&path, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(back.entries(), [entry(1, None), entry(2, None)]);
        // The next write brings the file up to date, the failed update
        // included.
        j.record(entry(3, None)).unwrap();
        let back = ServiceJournal::open(&path, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(back.entries(), j.entries());
        assert_eq!(back.entries().len(), 3);
    }

    #[test]
    fn a_record_appends_one_entry_however_many_are_journaled() {
        let path = tmppath("append-size");
        let mut diags = Vec::new();
        let mut j = ServiceJournal::open(&path, &mut diags);
        j.record(entry(0, None)).unwrap();
        for id in 1..50 {
            let before = fs::metadata(&path).unwrap().len();
            j.record(entry(id, None)).unwrap();
            let grown = fs::metadata(&path).unwrap().len() - before;
            assert_eq!(grown, encode_record(&entry(id, None)).len() as u64);
        }
    }
    /// `entry(1, None)`, `done(2, "B")` and `done(1, "A")` as the
    /// `AUTOSRV\x02` log has always recorded them: journals on disk must
    /// keep opening, so these bytes never change under this magic.
    const PINNED_JOURNAL: &str = concat!(
        "4155544f535256027d0000004155544f53525602010000000100000000000000",
        "050000006a6f622d3107000000636f6e666f726d050000006d2e637370010600",
        "000053595354454d010600000074726163657300020000000000000001e80300",
        "0000000000000109000000000000000100000002000000000000000100000000",
        "001dfddb7115f104e3a30000004155544f535256020100000002000000000000",
        "00050000006a6f622d3207000000636f6e666f726d050000006d2e6373700106",
        "00000053595354454d010600000074726163657300020000000000000001e803",
        "0000000000000001090000000000000001000000020000000000000001000000",
        "0106000000706173736564000100000013000000617373657274204220202e2e",
        "2e2020504153530079816bf4b9dcd706a30000004155544f5352560201000000",
        "0100000000000000050000006a6f622d3107000000636f6e666f726d05000000",
        "6d2e637370010600000053595354454d01060000007472616365730002000000",
        "0000000001e80300000000000000010900000000000000010000000200000000",
        "0000000100000001060000007061737365640001000000130000006173736572",
        "74204120202e2e2e2020504153530028fce67fb40b52b0",
    );

    #[test]
    fn journal_bytes_are_pinned_and_open_back() {
        let path = tmppath("pinned");
        let mut diags = Vec::new();
        let mut j = ServiceJournal::open(&path, &mut diags);
        for e in [entry(1, None), done(2, "B"), done(1, "A")] {
            j.record(e).unwrap();
        }
        let hex: String = fs::read(&path)
            .unwrap()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, PINNED_JOURNAL);
        // The pinned bytes open with every entry, whichever build wrote them.
        let pinned = tmppath("pinned-open");
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PINNED_JOURNAL[i..i + 2], 16).unwrap())
            .collect();
        fs::write(&pinned, bytes).unwrap();
        let back = ServiceJournal::open(&pinned, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(back.entries(), [done(1, "A"), done(2, "B")]);
    }
}
