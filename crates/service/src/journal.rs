//! The crash-safe job journal.
//!
//! Every job that `autocsp serve` accepts, and every job that
//! `autocsp run` finishes, is recorded in one binary file: the service
//! keeps it at `<state-dir>/service.journal`, a run next to its cache or
//! manifest. Entries are keyed by the job's content id
//! ([`crate::exec::job_content_key`]), so a replayed verdict always
//! belongs to the content that produced it.
//!
//! The file is an append-only log: an 8-byte magic, then one record per
//! [`ServiceJournal::record`] call. A record is a little-endian `u32`
//! length followed by one entry in the model cache's codec
//! (`fdrlite::persist::{Enc, Dec}`: magic + version header, trailing
//! FNV-1a checksum), so a `record` call writes one entry's bytes however
//! many jobs the journal holds. Replay reads the records in file order,
//! and the last record of an id wins. A torn or corrupt record (a write
//! that a crash cut short) ends replay there with one
//! [`crate::codes::JOURNAL_ERROR`] warning; each record before it carries
//! its own checksum, so those are kept. [`ServiceJournal::open`] then
//! compacts the file to one record per id with one atomic temp-file +
//! rename rewrite. That rewrite and [`ServiceJournal::remove_entry`] are
//! the only full rewrites, apart from a journal's first write and the
//! recovery from a failed append that could not be cut back.
//!
//! On restart the journal is replayed: completed jobs serve their
//! verdicts verbatim (so a client polling across a restart sees no
//! difference), and pending jobs re-enter the queue — after their
//! content keys are re-derived from disk, so a script edited while the
//! service was down drops the stale entry ([`crate::codes::JOURNAL_ERROR`])
//! instead of running the wrong content under the old id.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use diag::{Diagnostic, Span};
use fdrlite::persist::{corrupt, Dec, DecResult, Enc, EntryError};
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
    path: PathBuf,
    /// Entries in first-recorded order.
    entries: Vec<JournalEntry>,
    /// Position of each id in `entries`.
    index: HashMap<u64, usize>,
    /// The log, open for appends. `None` before the first write, and
    /// after a failed append could not be cut back to a whole record; the
    /// next write then rewrites the whole file.
    log: Option<File>,
    /// Length of the log up to the end of its last whole record.
    len: u64,
}

fn enc_opt_text(e: &mut Enc, v: Option<&str>) {
    match v {
        Some(s) => {
            e.u8(1);
            e.text(s);
        }
        None => e.u8(0),
    }
}

fn dec_opt_text(d: &mut Dec<'_>) -> DecResult<Option<String>> {
    Ok(match d.u8()? {
        0 => None,
        1 => Some(d.text()?),
        _ => return corrupt("bad option tag"),
    })
}

fn enc_opt_u64(e: &mut Enc, v: Option<u64>) {
    match v {
        Some(n) => {
            e.u8(1);
            e.u64(n);
        }
        None => e.u8(0),
    }
}

fn dec_opt_u64(d: &mut Dec<'_>) -> DecResult<Option<u64>> {
    Ok(match d.u8()? {
        0 => None,
        1 => Some(d.u64()?),
        _ => return corrupt("bad option tag"),
    })
}

fn encode_entry(e: &mut Enc, entry: &JournalEntry) {
    e.u64(entry.id);
    e.text(&entry.job.name);
    e.text(entry.job.kind.label());
    e.text(&entry.job.script.display().to_string());
    enc_opt_text(e, entry.job.spec.as_deref());
    enc_opt_text(
        e,
        entry
            .job
            .corpus
            .as_ref()
            .map(|p| p.display().to_string())
            .as_deref(),
    );
    enc_opt_text(e, entry.job.assertion.as_deref());
    e.u64(entry.job.threads as u64);
    enc_opt_u64(e, entry.job.max_states);
    enc_opt_u64(e, entry.job.timeout_ms);
    match &entry.job.chaos {
        Some(c) => {
            e.u8(1);
            e.u64(c.seed);
            e.u32(c.transient_attempts);
            e.u64(c.every_nth);
        }
        None => e.u8(0),
    }
    e.u32(entry.attempts);
    match &entry.outcome {
        Some(out) => {
            e.u8(1);
            e.text(out.status.label());
            e.u8(u8::from(out.interrupted));
            e.u32(u32::try_from(out.lines.len()).unwrap_or(u32::MAX));
            for line in &out.lines {
                e.text(line);
            }
        }
        None => e.u8(0),
    }
    enc_opt_text(e, entry.failure.as_deref());
}

fn decode_entry(d: &mut Dec<'_>) -> DecResult<JournalEntry> {
    let id = d.u64()?;
    let name = d.text()?;
    let kind = match d.text()?.as_str() {
        "check" => cspm::manifest::JobKind::Check,
        "conform" => cspm::manifest::JobKind::Conform,
        "analyze" => cspm::manifest::JobKind::Analyze,
        _ => return corrupt("unknown job kind"),
    };
    let script = PathBuf::from(d.text()?);
    let spec = dec_opt_text(d)?;
    let corpus = dec_opt_text(d)?.map(PathBuf::from);
    let assertion = dec_opt_text(d)?;
    let threads =
        usize::try_from(d.u64()?).map_err(|_| EntryError::Corrupt("thread count out of range"))?;
    let max_states = dec_opt_u64(d)?;
    let timeout_ms = dec_opt_u64(d)?;
    let chaos = match d.u8()? {
        0 => None,
        1 => Some(ChaosCfg {
            seed: d.u64()?,
            transient_attempts: d.u32()?,
            every_nth: d.u64()?,
        }),
        _ => return corrupt("bad option tag"),
    };
    let attempts = d.u32()?;
    let outcome = match d.u8()? {
        0 => None,
        1 => {
            let status_label = d.text()?;
            let Some(status) = JobStatus::from_label(&status_label) else {
                return corrupt("unknown status label");
            };
            let interrupted = d.u8()? != 0;
            let n = d.len(1)?;
            let mut lines = Vec::with_capacity(n);
            for _ in 0..n {
                lines.push(d.text()?);
            }
            Some(JobReport {
                status,
                lines,
                interrupted,
            })
        }
        _ => return corrupt("bad option tag"),
    };
    let failure = dec_opt_text(d)?;
    Ok(JournalEntry {
        id,
        job: ResolvedJob {
            name,
            kind,
            script,
            spec,
            corpus,
            assertion,
            threads,
            max_states,
            timeout_ms,
            chaos,
        },
        attempts,
        outcome,
        failure,
    })
}

/// One log record: the entry's encoding, length-prefixed.
fn encode_record(entry: &JournalEntry) -> Vec<u8> {
    let mut e = Enc::new(MAGIC);
    encode_entry(&mut e, entry);
    let payload = e.finish();
    let mut record = Vec::with_capacity(4 + payload.len());
    record.extend_from_slice(
        &u32::try_from(payload.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes(),
    );
    record.extend_from_slice(&payload);
    record
}

/// Decode one record's payload (its bytes after the length prefix).
fn decode_record(payload: &[u8]) -> DecResult<JournalEntry> {
    let mut d = Dec::open(payload, MAGIC)?;
    let entry = decode_entry(&mut d)?;
    d.done()?;
    Ok(entry)
}

fn describe(e: EntryError) -> String {
    match e {
        EntryError::Corrupt(why) => why.to_string(),
        EntryError::Version => "magic or version mismatch".to_string(),
    }
}

impl ServiceJournal {
    fn empty(path: &Path) -> ServiceJournal {
        ServiceJournal {
            path: path.to_path_buf(),
            entries: Vec::new(),
            index: HashMap::new(),
            log: None,
            len: 0,
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
        let bytes = match fs::read(&journal.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return journal,
            Err(e) => {
                diags.push(Diagnostic::warning(
                    crate::codes::JOURNAL_ERROR,
                    Span::unknown(),
                    format!(
                        "cannot read journal `{}`: {e}; starting empty",
                        journal.path.display()
                    ),
                ));
                return journal;
            }
        };
        if let Err(why) = journal.replay(&bytes) {
            diags.push(
                Diagnostic::warning(
                    crate::codes::JOURNAL_ERROR,
                    Span::unknown(),
                    format!("journal `{}` {why}", journal.path.display()),
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
        let _ = fs::remove_file(&journal.path);
        journal
    }

    /// Apply every whole record of the log `bytes` in file order. On a
    /// bad header or a torn or corrupt record, stop there and say why.
    fn replay(&mut self, bytes: &[u8]) -> Result<(), String> {
        let Some(mut rest) = bytes.strip_prefix(MAGIC.as_slice()) else {
            return Err("is unusable (magic or version mismatch); starting empty".to_string());
        };
        while !rest.is_empty() {
            let offset = bytes.len() - rest.len();
            let stop = |why: &str| {
                format!(
                    "has a torn or corrupt record at byte {offset} ({why}); keeping the {} \
                     entr(ies) recorded before it",
                    self.entries.len()
                )
            };
            if rest.len() < 4 {
                return Err(stop("truncated length prefix"));
            }
            let (prefix, tail) = rest.split_at(4);
            let n = u32::from_le_bytes(prefix.try_into().expect("4-byte slice")) as usize;
            if tail.len() < n {
                return Err(stop("truncated record"));
            }
            let (payload, tail) = tail.split_at(n);
            let entry = decode_record(payload).map_err(|e| stop(&describe(e)))?;
            self.apply(entry);
            rest = tail;
        }
        Ok(())
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
        let Some(log) = self.log.as_mut() else {
            // No log is open: write the whole file, this entry included.
            return self.rewrite();
        };
        if let Err(e) = log.write_all(&record) {
            // Cut off whatever part of the record reached the file, so the
            // records appended after it stay readable.
            if log.set_len(self.len).is_err() {
                self.log = None;
            }
            return Err(self.write_error(&e));
        }
        self.len += record.len() as u64;
        Ok(())
    }

    /// Rewrite the whole file, one record per entry, atomically (temp
    /// file + rename), and open it for appends.
    fn rewrite(&mut self) -> Result<(), Diagnostic> {
        let mut bytes = MAGIC.to_vec();
        for entry in &self.entries {
            bytes.extend_from_slice(&encode_record(entry));
        }
        self.log = None;
        let tmp = self.path.with_extension("journal.tmp");
        let log = fs::write(&tmp, &bytes)
            .and_then(|()| fs::rename(&tmp, &self.path))
            .and_then(|()| OpenOptions::new().append(true).open(&self.path))
            .map_err(|e| self.write_error(&e))?;
        self.log = Some(log);
        self.len = bytes.len() as u64;
        Ok(())
    }

    fn write_error(&self, e: &std::io::Error) -> Diagnostic {
        Diagnostic::warning(
            crate::codes::JOURNAL_ERROR,
            Span::unknown(),
            format!("cannot write journal `{}`: {e}", self.path.display()),
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
        self.len = 0;
        let _ = fs::remove_file(&self.path);
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
}
