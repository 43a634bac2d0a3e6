//! The crash-safe job journal.
//!
//! Every job that `autocsp serve` accepts, and every job that
//! `autocsp run` finishes, is recorded in one binary file: the service
//! keeps it at `<state-dir>/service.journal`, a run next to its cache or
//! manifest. It uses the same codec discipline as the model cache
//! (`fdrlite::persist::{Enc, Dec}`: magic + version header, trailing
//! FNV-1a checksum, atomic temp-file + rename rewrites). Entries are
//! keyed by the job's content id ([`crate::exec::job_content_key`]), so
//! a replayed verdict always belongs to the content that produced it.
//!
//! On restart the journal is replayed: completed jobs serve their
//! verdicts verbatim (so a client polling across a restart sees no
//! difference), and pending jobs re-enter the queue — after their
//! content keys are re-derived from disk, so a script edited while the
//! service was down drops the stale entry ([`crate::codes::JOURNAL_ERROR`])
//! instead of running the wrong content under the old id.

use std::fs;
use std::path::{Path, PathBuf};

use diag::{Diagnostic, Span};
use fdrlite::persist::{corrupt, Dec, DecResult, Enc};
use fdrlite::supervisor::{JobReport, JobStatus};

use crate::{ChaosCfg, ResolvedJob};

/// Magic of the service journal file.
const MAGIC: &[u8; 8] = b"AUTOSRV\x01";

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

/// The journal: an in-memory entry list mirrored crash-safely to disk.
pub struct ServiceJournal {
    path: PathBuf,
    entries: Vec<JournalEntry>,
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
    let threads = usize::try_from(d.u64()?)
        .map_err(|_| fdrlite::persist::EntryError::Corrupt("thread count out of range"))?;
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

impl ServiceJournal {
    /// Open (or create) the journal at `path`. A missing file is an
    /// empty journal; an unreadable or corrupt one is *also* an empty
    /// journal plus a [`crate::codes::JOURNAL_ERROR`] warning in `diags`
    /// — at worst jobs are resubmitted, never trusted from bad bytes.
    pub fn open(path: impl AsRef<Path>, diags: &mut Vec<Diagnostic>) -> ServiceJournal {
        let path = path.as_ref().to_path_buf();
        let mut journal = ServiceJournal {
            path,
            entries: Vec::new(),
        };
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
        match Self::decode(&bytes) {
            Ok(entries) => journal.entries = entries,
            Err(why) => diags.push(
                Diagnostic::warning(
                    crate::codes::JOURNAL_ERROR,
                    Span::unknown(),
                    format!(
                        "journal `{}` is unusable ({why}); starting empty",
                        journal.path.display()
                    ),
                )
                .with_note("journaled verdicts are lost; affected jobs run again"),
            ),
        }
        journal
    }

    /// Start an empty journal at `path`, discarding any file left there
    /// (a fresh `autocsp run` replays nothing).
    pub fn fresh(path: impl AsRef<Path>) -> ServiceJournal {
        let path = path.as_ref().to_path_buf();
        let _ = fs::remove_file(&path);
        ServiceJournal {
            path,
            entries: Vec::new(),
        }
    }

    fn decode(bytes: &[u8]) -> Result<Vec<JournalEntry>, String> {
        let mut d = Dec::open(bytes, MAGIC).map_err(|e| match e {
            fdrlite::persist::EntryError::Corrupt(why) => why.to_string(),
            fdrlite::persist::EntryError::Version => "magic or version mismatch".to_string(),
        })?;
        let n = d.len(8).map_err(|_| "bad entry count")?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(decode_entry(&mut d).map_err(|e| match e {
                fdrlite::persist::EntryError::Corrupt(why) => why.to_string(),
                fdrlite::persist::EntryError::Version => "version mismatch".to_string(),
            })?);
        }
        d.done().map_err(|_| "trailing bytes")?;
        Ok(entries)
    }

    /// The journaled entries, replay order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// The entry with content id `id`, if journaled.
    pub fn lookup(&self, id: u64) -> Option<&JournalEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Record (insert or update by id) one entry and rewrite the file
    /// atomically.
    ///
    /// # Errors
    ///
    /// A [`crate::codes::JOURNAL_ERROR`] warning when the file could not
    /// be written. The in-memory state stays correct for this process;
    /// only resuming after a crash suffers, so callers report it and
    /// carry on.
    pub fn record(&mut self, entry: JournalEntry) -> Result<(), Diagnostic> {
        match self.entries.iter_mut().find(|e| e.id == entry.id) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
        self.rewrite()
    }

    fn rewrite(&self) -> Result<(), Diagnostic> {
        let mut e = Enc::new(MAGIC);
        e.u32(u32::try_from(self.entries.len()).unwrap_or(u32::MAX));
        for entry in &self.entries {
            encode_entry(&mut e, entry);
        }
        let bytes = e.finish();
        let tmp = self.path.with_extension("journal.tmp");
        fs::write(&tmp, &bytes)
            .and_then(|()| fs::rename(&tmp, &self.path))
            .map_err(|e| {
                Diagnostic::warning(
                    crate::codes::JOURNAL_ERROR,
                    Span::unknown(),
                    format!("cannot write journal `{}`: {e}", self.path.display()),
                )
                .with_note("a crash now would run this job again instead of replaying it")
            })
    }

    /// Drop the entry with `id` (a stale pending job whose on-disk
    /// content changed) and rewrite the file.
    ///
    /// # Errors
    ///
    /// As for [`ServiceJournal::record`].
    pub fn remove_entry(&mut self, id: u64) -> Result<(), Diagnostic> {
        let before = self.entries.len();
        self.entries.retain(|e| e.id != id);
        if self.entries.len() == before {
            return Ok(());
        }
        self.rewrite()
    }

    /// Remove the journal file (a drained service or a finished run with
    /// nothing pending).
    pub fn remove(&mut self) {
        self.entries.clear();
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
}
