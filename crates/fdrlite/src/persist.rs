//! Crash-safe on-disk persistence for the checking stack.
//!
//! Two durable artifact families live here:
//!
//! 1. **Model cache** — compiled [`Lts`]s and normalised specifications,
//!    content-addressed by a 128-bit structural hash of the process term
//!    (plus the definitions table) together with every checker bound that
//!    shaped the artifact. Entries are written atomically
//!    (temp-file + rename), carry a versioned header with the full key
//!    echoed back, and end in a FNV-1a checksum over everything before it.
//!    Any integrity failure — torn write, truncation, bit flip, stale
//!    version — quarantines the entry, records a [`diag::Diagnostic`]
//!    warning, and falls back to recompiling. A corrupt cache can cost
//!    time, never correctness.
//!
//! 2. **Checkpoints** — the frontier of an interrupted refinement check,
//!    keyed by a deterministic *check id* derived from both model hashes,
//!    the semantic model and the compile bounds. A checkpoint is a
//!    [`RecordLog`], the append-only log the service's job journal uses
//!    too: each record holds the visited pairs found since the record
//!    before it, the pending tasks with their visible depths, the depth of
//!    a recorded violation and the counters. A checkpoint resumes on the
//!    engine the requested thread count selects, whichever engine wrote
//!    it, to a verdict bit-identical to an uninterrupted one; see
//!    `docs/PERSISTENCE.md` for the exact guarantees.
//!
//! Concurrent `autocsp` invocations may share one cache directory. A write
//! is one temp file under a name no other writer uses, renamed into place,
//! and takes no lock: the rename is what makes it atomic, so a reader sees
//! either the old complete entry or the new complete entry, and the
//! checksum rejects anything else. Only the size cap takes a lock. Each
//! handle keeps a running total of the cache's size (what its last
//! directory scan found, plus what it has written since). It scans the
//! directory at its first write, then again only when that total passes
//! the cap or when it has written 1/16 of the cap since its last scan. A
//! scan and the evictions it makes hold an advisory exclusive lock: a
//! `store.lock` file created with `create_new` and stamped with the
//! holder's pid + wall-clock. A lone writer holds the cap exactly; `k`
//! handles on one directory can exceed it by at most `k/16` of it between
//! scans. A lock file left
//! behind by a process that died without dropping its guard is detected
//! as *stale* (dead pid, or an ancient stamp) and stolen with an
//! [`STALE_LOCK`] warning, so one crash never wedges every later scan.
//!
//! An [`Lts`] is persisted whole: its transitions plus its Ω bitset, the
//! only state fact any checking path reads (deadlock and `✓` handling).

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use csp::{Definitions, EventId, Label, Lts, Process, StateId};
use diag::{Code, Diagnostic, Span};

use crate::checker::RefinementModel;
use crate::normalise::{AcceptanceId, NormNodeId, NormalisedLts};

/// `STO401` — a cache entry failed its checksum or structural validation
/// and was quarantined; the model was recompiled.
pub const CORRUPT_ENTRY: Code = Code("STO401");
/// `STO402` — a cache entry carries an unknown magic/format version and
/// was quarantined (stale tool version or foreign file).
pub const STALE_VERSION: Code = Code("STO402");
/// `STO403` — a cache I/O operation failed; the run degraded to
/// compiling (or checking) without the cache.
pub const CACHE_IO: Code = Code("STO403");
/// `STO404` — entries were evicted to keep the cache under its size cap.
pub const EVICTED: Code = Code("STO404");
/// `STO405` — a checkpoint was rejected (corrupt, version-mismatched or
/// keyed to a different check, down to its first record); the run
/// restarted from scratch.
pub const BAD_CHECKPOINT: Code = Code("STO405");
/// `STO406` — a `store.lock` left behind by a dead (or long-vanished)
/// process was detected as stale and stolen; writers proceed normally.
pub const STALE_LOCK: Code = Code("STO406");

const MAGIC_MODEL: &[u8; 8] = b"FDRLMDL\x02";
const MAGIC_NORM: &[u8; 8] = b"FDRLNRM\x03";
const MAGIC_CKPT: &[u8; 8] = b"FDRLCKP\x03";
const FORMAT_VERSION: u32 = 1;

/// Default cache capacity: 256 MiB of `.bin` payload.
pub const DEFAULT_CAPACITY: u64 = 256 << 20;

/// A handle scans the cache directory again once it has written
/// 1/`RESCAN_SHARE` of the cap since its last scan, whatever its running
/// total says: the bytes other handles wrote meanwhile are what its total
/// misses.
const RESCAN_SHARE: u64 = 16;

/// Numbers the temp files of this process, so no two writers, in one
/// process or in several, ever share one.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a over a byte slice; the trailing checksum of every entry.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A 128-bit structural hash: two independently mixed accumulators.
///
/// 64 bits of structural hash would make an accidental collision — and
/// with it a *wrong verdict served from cache* — merely improbable;
/// 128 bits makes it negligible.
struct Hasher128 {
    a: u64,
    b: u64,
}

impl Hasher128 {
    fn new() -> Hasher128 {
        Hasher128 {
            a: FNV_OFFSET,
            b: 0x9ae1_6a3b_2f90_404f,
        }
    }

    fn u8(&mut self, v: u8) {
        self.a = (self.a ^ u64::from(v)).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ u64::from(v).wrapping_mul(MIX))
            .rotate_left(29)
            .wrapping_mul(FNV_PRIME);
    }

    fn u32(&mut self, v: u32) {
        v.to_le_bytes().into_iter().for_each(|b| self.u8(b));
    }

    fn u64(&mut self, v: u64) {
        v.to_le_bytes().into_iter().for_each(|b| self.u8(b));
    }

    fn h128(&mut self, v: [u64; 2]) {
        self.u64(v[0]);
        self.u64(v[1]);
    }

    fn finish(self) -> [u64; 2] {
        // A final avalanche so short inputs still differ in every bit.
        let mut a = self.a ^ self.b.rotate_left(31);
        a ^= a >> 33;
        a = a.wrapping_mul(0xff51_afd7_ed55_8ccd);
        a ^= a >> 33;
        let mut b = self.b ^ self.a.rotate_left(17);
        b ^= b >> 29;
        b = b.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        b ^= b >> 32;
        [a, b]
    }
}

/// The 128-bit content address of a process term under a definitions table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelHash(pub(crate) [u64; 2]);

impl ModelHash {
    /// 32-hex-digit rendering, used in cache file names and tokens.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl fmt::Display for ModelHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Structural content hash of `p` together with the full definitions table
/// (recursion bodies are part of a term's meaning).
///
/// Shared subtrees (`Arc` children) are memoised by pointer, so the walk is
/// linear in the number of distinct nodes. Event and definition identity is
/// hashed by *index*: two scripts that intern the same structure over the
/// same indices denote the same transition system, whatever the events are
/// named.
pub fn content_hash(p: &Process, defs: &Definitions) -> ModelHash {
    let mut memo: HashMap<usize, [u64; 2]> = HashMap::new();
    let mut h = Hasher128::new();
    h.h128(subtree_hash(p, &mut memo));
    hash_defs(&mut h, defs, &mut memo);
    ModelHash(h.finish())
}

/// Content fingerprint of a definitions table alone — the defs-dependent
/// half of [`content_hash`]. A `Var(i)` term means something different
/// under every definitions table, so in-memory caches shared across
/// scripts must key compiled artifacts by this fingerprint as well as by
/// the interned term: two scripts easily intern structurally identical
/// terms whose definitions differ.
pub(crate) fn defs_fingerprint(defs: &Definitions) -> u64 {
    let mut h = Hasher128::new();
    hash_defs(&mut h, defs, &mut HashMap::new());
    h.finish()[0]
}

/// Every body of `defs` into `h`, a declared but undefined one as a mark.
fn hash_defs(h: &mut Hasher128, defs: &Definitions, memo: &mut HashMap<usize, [u64; 2]>) {
    h.u32(defs.len() as u32);
    for id in defs.ids() {
        match defs.body(id) {
            Ok(body) => {
                h.u8(1);
                h.h128(child_hash(body, memo));
            }
            Err(_) => h.u8(0),
        }
    }
}

fn child_hash(p: &Arc<Process>, memo: &mut HashMap<usize, [u64; 2]>) -> [u64; 2] {
    let key = Arc::as_ptr(p) as usize;
    if let Some(&h) = memo.get(&key) {
        return h;
    }
    let h = subtree_hash(p, memo);
    memo.insert(key, h);
    h
}

fn subtree_hash(p: &Process, memo: &mut HashMap<usize, [u64; 2]>) -> [u64; 2] {
    let mut h = Hasher128::new();
    match p {
        Process::Stop => h.u8(0),
        Process::Skip => h.u8(1),
        Process::Omega => h.u8(2),
        Process::Prefix(e, q) => {
            h.u8(3);
            h.u32(e.index() as u32);
            h.h128(child_hash(q, memo));
        }
        Process::ExternalChoice(children) | Process::InternalChoice(children) => {
            h.u8(if matches!(p, Process::ExternalChoice(_)) {
                4
            } else {
                5
            });
            h.u32(children.len() as u32);
            for c in children {
                h.h128(child_hash(c, memo));
            }
        }
        Process::Parallel { sync, left, right } => {
            h.u8(7);
            h.u32(sync.len() as u32);
            sync.iter().for_each(|e| h.u32(e.index() as u32));
            h.h128(child_hash(left, memo));
            h.h128(child_hash(right, memo));
        }
        Process::Hide(q, set) => {
            h.u8(8);
            h.u32(set.len() as u32);
            set.iter().for_each(|e| h.u32(e.index() as u32));
            h.h128(child_hash(q, memo));
        }
        Process::Rename(q, map) => {
            h.u8(9);
            let pairs: Vec<(EventId, EventId)> = map.iter().collect();
            h.u32(pairs.len() as u32);
            for (from, to) in pairs {
                h.u32(from.index() as u32);
                h.u32(to.index() as u32);
            }
            h.h128(child_hash(q, memo));
        }
        Process::Seq(a, b) | Process::Interrupt(a, b) | Process::Timeout(a, b) => {
            h.u8(match p {
                Process::Seq(..) => 6,
                Process::Interrupt(..) => 10,
                _ => 11,
            });
            h.h128(child_hash(a, memo));
            h.h128(child_hash(b, memo));
        }
        Process::Var(d) => {
            h.u8(12);
            h.u32(d.index() as u32);
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Why an entry was rejected; the message is surfaced in the diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryError {
    /// Checksum/bounds/structure failure: quarantine under [`CORRUPT_ENTRY`].
    Corrupt(&'static str),
    /// Unknown magic or format version: quarantine under [`STALE_VERSION`].
    Version,
}

impl EntryError {
    /// The reason, as surfaced in a diagnostic.
    pub fn why(self) -> &'static str {
        match self {
            EntryError::Corrupt(why) => why,
            EntryError::Version => "unknown magic or format version",
        }
    }
}

/// Result alias used throughout the codec.
pub type DecResult<T> = Result<T, EntryError>;

/// Shorthand for a [`EntryError::Corrupt`] rejection.
pub fn corrupt<T>(why: &'static str) -> DecResult<T> {
    Err(EntryError::Corrupt(why))
}

/// Little-endian encoder of one entry: magic + format version header,
/// fields, trailing FNV-1a checksum. Cache entries, checkpoint records and
/// the service's journal records all use it.
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Start an entry with the given 8-byte magic and the format version.
    pub fn new(magic: &[u8; 8]) -> Enc {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(magic);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        Enc { buf }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A length-prefixed UTF-8 string.
    pub fn text(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).unwrap_or(u32::MAX));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append the trailing checksum and return the finished entry.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Bounds-checked little-endian decoder over a checksum-verified slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Verify the trailing checksum and the magic/version header, then
    /// return a decoder positioned after the header.
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] on checksum/bounds failures,
    /// [`EntryError::Version`] on a magic or version mismatch.
    pub fn open(bytes: &'a [u8], magic: &[u8; 8]) -> DecResult<Dec<'a>> {
        if bytes.len() < 8 + 4 + 8 {
            return corrupt("entry truncated below header size");
        }
        let (body, sum) = bytes.split_at(bytes.len() - 8);
        let expect = u64::from_le_bytes(sum.try_into().expect("8-byte slice"));
        if fnv1a64(body) != expect {
            return corrupt("checksum mismatch");
        }
        if &body[..8] != magic {
            return Err(EntryError::Version);
        }
        let version = u32::from_le_bytes(body[8..12].try_into().expect("4-byte slice"));
        if version != FORMAT_VERSION {
            return Err(EntryError::Version);
        }
        Ok(Dec { buf: body, pos: 12 })
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] at end of entry.
    pub fn u8(&mut self) -> DecResult<u8> {
        let Some(&v) = self.buf.get(self.pos) else {
            return corrupt("unexpected end of entry");
        };
        self.pos += 1;
        Ok(v)
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] at end of entry.
    pub fn u32(&mut self) -> DecResult<u32> {
        let Some(raw) = self.buf.get(self.pos..self.pos + 4) else {
            return corrupt("unexpected end of entry");
        };
        self.pos += 4;
        Ok(u32::from_le_bytes(raw.try_into().expect("4-byte slice")))
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] at end of entry.
    pub fn u64(&mut self) -> DecResult<u64> {
        let Some(raw) = self.buf.get(self.pos..self.pos + 8) else {
            return corrupt("unexpected end of entry");
        };
        self.pos += 8;
        Ok(u64::from_le_bytes(raw.try_into().expect("8-byte slice")))
    }

    /// A `0`/`1` byte as a flag.
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] with `why` on any other byte, or at end of
    /// entry.
    pub fn flag(&mut self, why: &'static str) -> DecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => corrupt(why),
        }
    }

    /// A length-prefixed UTF-8 string written by [`Enc::text`].
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] on truncation or invalid UTF-8.
    pub fn text(&mut self) -> DecResult<String> {
        let n = self.u32()? as usize;
        let Some(raw) = self.buf.get(self.pos..self.pos + n) else {
            return corrupt("unexpected end of entry");
        };
        self.pos += n;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => corrupt("string is not valid UTF-8"),
        }
    }

    /// A length prefix that must leave at least `min_per_item` bytes per
    /// item in the remaining input (rejects absurd lengths early).
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] when the prefix exceeds the entry size.
    pub fn len(&mut self, min_per_item: usize) -> DecResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_per_item) > self.buf.len() - self.pos {
            return corrupt("length prefix exceeds entry size");
        }
        Ok(n)
    }

    /// Assert the whole payload has been consumed.
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] when trailing bytes remain.
    pub fn done(&self) -> DecResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            corrupt("trailing bytes after payload")
        }
    }
}

// ---------------------------------------------------------------------------
// Record logs
// ---------------------------------------------------------------------------

/// An append-only log of checksummed records, the one way the service's
/// job journal and a check's checkpoints reach disk: an 8-byte magic, then
/// records, each a little-endian `u32` length and one [`Enc`] entry under
/// the same magic. A log is written whole by [`RecordLog::rewrite`], a temp
/// file renamed into place, and grows only through the handle that returns.
pub struct RecordLog {
    path: PathBuf,
    tmp: PathBuf,
    magic: &'static [u8; 8],
}

/// Where [`RecordLog::replay`] stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Torn {
    /// The file does not start with the log's magic.
    Header,
    /// The record at this byte offset is torn, corrupt or rejected, for
    /// this reason.
    Record(usize, &'static str),
}

impl RecordLog {
    /// The log at `path` under `magic`, rewritten through `tmp` (on the
    /// same file system). Touches nothing on disk.
    pub fn new(path: PathBuf, tmp: PathBuf, magic: &'static [u8; 8]) -> RecordLog {
        RecordLog { path, tmp, magic }
    }

    /// The log's file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// One record: the finished [`Enc`] entry `entry`, length-prefixed.
    pub fn record(entry: &[u8]) -> Vec<u8> {
        let len = u32::try_from(entry.len()).unwrap_or(u32::MAX);
        [&len.to_le_bytes(), entry].concat()
    }

    /// Hand each record of the log `bytes` to `apply` in file order, its
    /// checksum and header verified, and check that `apply` read it all.
    ///
    /// # Errors
    ///
    /// Where replay stopped, after the records before it were applied.
    pub fn replay(
        &self,
        bytes: &[u8],
        mut apply: impl FnMut(&mut Dec<'_>) -> DecResult<()>,
    ) -> Result<(), Torn> {
        let mut rest = bytes
            .strip_prefix(self.magic.as_slice())
            .ok_or(Torn::Header)?;
        while !rest.is_empty() {
            let offset = bytes.len() - rest.len();
            let torn = |why| Torn::Record(offset, why);
            let (len, tail) = rest
                .split_first_chunk::<4>()
                .ok_or(torn("truncated length prefix"))?;
            let (entry, tail) = (tail.split_at_checked(u32::from_le_bytes(*len) as usize))
                .ok_or(torn("truncated record"))?;
            Dec::open(entry, self.magic)
                .and_then(|mut dec| apply(&mut dec).and_then(|()| dec.done()))
                .map_err(|e| torn(e.why()))?;
            rest = tail;
        }
        Ok(())
    }

    /// Replace the log with one of `records` (from [`RecordLog::record`]),
    /// atomically, and return it open for appends.
    ///
    /// # Errors
    ///
    /// Any write or rename error; the old log is left as it was.
    pub fn rewrite<R: AsRef<[u8]>>(
        &self,
        records: impl IntoIterator<Item = R>,
    ) -> std::io::Result<File> {
        let mut bytes = self.magic.to_vec();
        records
            .into_iter()
            .for_each(|r| bytes.extend_from_slice(r.as_ref()));
        let written = File::create(&self.tmp)
            .and_then(|mut log| log.write_all(&bytes).map(|()| log))
            .and_then(|log| fs::rename(&self.tmp, &self.path).map(|()| log));
        if written.is_err() {
            let _ = fs::remove_file(&self.tmp);
        }
        written
    }

    /// Append `record` (from [`RecordLog::record`]) through `log`, a handle
    /// [`RecordLog::rewrite`] returned.
    ///
    /// # Errors
    ///
    /// Any write error, or `log` being closed. What part of the record
    /// reached the file is cut off again, so later records stay readable;
    /// when that fails too, `log` is closed and the log must be rewritten.
    pub fn append(log: &mut Option<File>, record: &[u8]) -> std::io::Result<()> {
        let Some(file) = log.as_mut() else {
            return Err(std::io::Error::other("the log is not open"));
        };
        let end = file.seek(SeekFrom::End(0))?;
        let Err(e) = file.write_all(record) else {
            return Ok(());
        };
        if file.set_len(end).is_err() {
            *log = None;
        }
        Err(e)
    }

    /// Delete the log's file, if there is one.
    pub fn remove(&self) {
        let _ = fs::remove_file(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// Disk key of a compiled model: content hash + every bound that shaped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ModelKey {
    pub hash: ModelHash,
    pub max_states: u64,
}

impl ModelKey {
    fn file_name(&self) -> String {
        format!("m-{}-{:x}.bin", self.hash.to_hex(), self.max_states)
    }

    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.hash.0[0]);
        enc.u64(self.hash.0[1]);
        enc.u64(self.max_states);
    }

    fn check_echo(&self, dec: &mut Dec<'_>) -> DecResult<()> {
        let echo = ModelKey {
            hash: ModelHash([dec.u64()?, dec.u64()?]),
            max_states: dec.u64()?,
        };
        if echo != *self {
            return corrupt("key echo does not match requested key");
        }
        Ok(())
    }
}

/// Disk key of a normalised specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct NormDiskKey {
    pub model: ModelKey,
    pub max_norm_nodes: u64,
}

impl NormDiskKey {
    fn file_name(&self) -> String {
        format!(
            "n-{}-{:x}-{:x}.bin",
            self.model.hash.to_hex(),
            self.model.max_states,
            self.max_norm_nodes
        )
    }
}

// ---------------------------------------------------------------------------
// LTS / normal-form payloads
// ---------------------------------------------------------------------------

fn encode_lts(enc: &mut Enc, lts: &Lts) {
    let n = lts.state_count();
    enc.u32(n as u32);
    let mut omega = vec![0u8; n.div_ceil(8)];
    for s in lts.state_ids() {
        if lts.is_omega(s) {
            omega[s.index() / 8] |= 1 << (s.index() % 8);
        }
    }
    enc.buf.extend_from_slice(&omega);
    for s in lts.state_ids() {
        let edges = lts.edges(s);
        enc.u32(edges.len() as u32);
        for &(label, target) in edges {
            match label {
                Label::Tau => enc.u8(0),
                Label::Tick => enc.u8(1),
                Label::Event(e) => {
                    enc.u8(2);
                    enc.u32(e.index() as u32);
                }
            }
            enc.u32(target.index() as u32);
        }
    }
}

fn decode_lts(dec: &mut Dec<'_>) -> DecResult<Lts> {
    let n = dec.len(1)?;
    if n == 0 {
        return corrupt("empty state table");
    }
    let mut omega = vec![false; n];
    for chunk in 0..n.div_ceil(8) {
        let byte = dec.u8()?;
        for bit in 0..8 {
            let idx = chunk * 8 + bit;
            if idx < n {
                omega[idx] = byte & (1 << bit) != 0;
            } else if byte & (1 << bit) != 0 {
                return corrupt("omega bitset has bits past the state count");
            }
        }
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut edges: Vec<(Label, StateId)> = Vec::new();
    for _ in 0..n {
        let e = dec.len(5)?;
        let row = edges.len();
        for _ in 0..e {
            let label = match dec.u8()? {
                0 => Label::Tau,
                1 => Label::Tick,
                2 => Label::Event(EventId::from_index(dec.u32()? as usize)),
                _ => return corrupt("unknown edge label tag"),
            };
            let target = dec.u32()? as usize;
            if target >= n {
                return corrupt("edge target out of range");
            }
            edges.push((label, StateId::from_index(target)));
        }
        if !edges[row..].windows(2).all(|w| w[0] < w[1]) {
            return corrupt("edge list not strictly sorted");
        }
        offsets.push(edges.len() as u32);
    }
    Ok(Lts::from_parts(&omega, offsets, edges))
}

// Normal forms are stored in the flat CSR/bitset layout the checker runs
// on (format `FDRLNRM\x03`): acceptance pool first (word width, then
// deduplicated `tick + words` rows), then per node its sorted after-edges,
// the tick/divergence flags and its `AcceptanceId` range. Entries of the
// older formats (`\x01` from the pre-flattening codec, `\x02` whose key
// echo ends in a retired flag byte) are rejected as [`EntryError::Version`]
// — the stale-version quarantine path — never decoded into a wrong
// artifact.

fn encode_norm(enc: &mut Enc, norm: &NormalisedLts) {
    let n = norm.node_count();
    enc.u32(n as u32);
    enc.u32(norm.acc_wps);
    enc.u32(norm.pool_ticks.len() as u32);
    for (row, &tick) in norm.pool_ticks.iter().enumerate() {
        enc.u8(u8::from(tick));
        let wps = norm.acc_wps as usize;
        for &word in &norm.pool_words[row * wps..(row + 1) * wps] {
            enc.u64(word);
        }
    }
    for node in 0..n {
        let (lo, hi) = (
            norm.after_off[node] as usize,
            norm.after_off[node + 1] as usize,
        );
        enc.u32((hi - lo) as u32);
        for i in lo..hi {
            enc.u32(norm.after_ev[i].index() as u32);
            enc.u32(norm.after_tgt[i].index() as u32);
        }
        enc.u8(u8::from(norm.tick_ok[node]));
        enc.u8(u8::from(norm.div_flag[node]));
        let (alo, ahi) = (norm.acc_off[node] as usize, norm.acc_off[node + 1] as usize);
        enc.u32((ahi - alo) as u32);
        for id in &norm.acc_ids[alo..ahi] {
            enc.u32(id.index() as u32);
        }
    }
}

fn decode_norm(dec: &mut Dec<'_>) -> DecResult<NormalisedLts> {
    let n = dec.len(1)?;
    if n == 0 {
        return corrupt("empty normal form");
    }
    let acc_wps = dec.u32()?;
    let pool_len = dec.len(1 + 8 * acc_wps as usize)?;
    let mut pool_words: Vec<u64> = Vec::with_capacity(pool_len * acc_wps as usize);
    let mut pool_ticks: Vec<bool> = Vec::with_capacity(pool_len);
    for _ in 0..pool_len {
        pool_ticks.push(dec.flag("acceptance tick flag out of range")?);
        for _ in 0..acc_wps {
            pool_words.push(dec.u64()?);
        }
    }
    let mut after_off = vec![0u32];
    let mut after_ev: Vec<EventId> = Vec::new();
    let mut after_tgt: Vec<NormNodeId> = Vec::new();
    let mut tick_ok: Vec<bool> = Vec::with_capacity(n);
    let mut div_flag: Vec<bool> = Vec::with_capacity(n);
    let mut acc_off = vec![0u32];
    let mut acc_ids: Vec<AcceptanceId> = Vec::new();
    for _ in 0..n {
        let after_len = dec.len(8)?;
        let mut prev: Option<u32> = None;
        for _ in 0..after_len {
            let event = dec.u32()?;
            if prev.is_some_and(|p| p >= event) {
                return corrupt("after-table events not strictly sorted");
            }
            prev = Some(event);
            let target = dec.u32()? as usize;
            if target >= n {
                return corrupt("after-table target out of range");
            }
            after_ev.push(EventId::from_index(event as usize));
            after_tgt.push(NormNodeId::from_index(target));
        }
        after_off.push(after_ev.len() as u32);
        tick_ok.push(dec.flag("tick flag out of range")?);
        div_flag.push(dec.flag("divergence flag out of range")?);
        let acc_len = dec.len(4)?;
        for _ in 0..acc_len {
            let id = dec.u32()? as usize;
            if id >= pool_len {
                return corrupt("acceptance id out of pool range");
            }
            acc_ids.push(AcceptanceId::from_index(id));
        }
        acc_off.push(acc_ids.len() as u32);
    }
    Ok(NormalisedLts {
        after_off,
        after_ev,
        after_tgt,
        tick_ok,
        div_flag,
        acc_off,
        acc_ids,
        acc_wps,
        pool_words,
        pool_ticks,
    })
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// Identity of one refinement check: both content hashes, the semantic
/// model and the compile bounds. Deliberately excludes the *budget*
/// (`max_states` / `max_wall_ms` of [`crate::CheckOptions`]) and the
/// thread count, so a run interrupted under one budget or thread count can
/// resume under another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CheckId(pub(crate) [u64; 2]);

impl CheckId {
    /// The resume token carried in `Verdict::Inconclusive`.
    pub fn token(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }

    /// Parse a token back into an id (32 hex digits).
    pub fn from_token(token: &str) -> Option<CheckId> {
        if token.len() != 32 || !token.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let a = u64::from_str_radix(&token[..16], 16).ok()?;
        let b = u64::from_str_radix(&token[16..], 16).ok()?;
        Some(CheckId([a, b]))
    }
}

impl fmt::Display for CheckId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.token())
    }
}

/// Everything that determines a check's identity (see [`CheckId`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CheckIdParts {
    pub spec: ModelHash,
    pub impl_: ModelHash,
    pub model: RefinementModel,
    pub max_states: u64,
    pub max_norm_nodes: u64,
    pub max_product: u64,
}

impl CheckIdParts {
    pub(crate) fn id(&self) -> CheckId {
        let mut h = Hasher128::new();
        h.h128(self.spec.0);
        h.h128(self.impl_.0);
        h.u8(model_tag(self.model));
        h.u64(self.max_states);
        h.u64(self.max_norm_nodes);
        h.u64(self.max_product);
        CheckId(h.finish())
    }
}

/// The on-disk tag of a model: that of its product walk, so an `[FD=`
/// check shares the identity and checkpoints of the `[F=` walk.
fn model_tag(model: RefinementModel) -> u8 {
    match model.walk() {
        RefinementModel::Traces => 0,
        _ => 1,
    }
}

/// The continuation state of an interrupted product walk, written and read
/// by both engines: the visited pairs, the pending tasks with their
/// visible depths, the visible depth of a recorded violation (`u32::MAX`
/// when none), and the counters so far. A *whole* frontier (`base` 0)
/// lists every visited pair; each record of a checkpoint log lists the
/// pairs found since the record before it.
///
/// A visited pair that is not pending has been expanded. No parent
/// pointers or per-pair depths are kept: a violation found after a resume
/// is settled by the canonical bounded re-walk, which needs only its depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Frontier {
    /// Visited pairs the checkpoint log lists before `visited`.
    pub base: u64,
    /// `(impl state, spec node)` for visited pairs, pending ones included,
    /// in the order the engine lists them.
    pub visited: Vec<(u32, u32)>,
    /// The leading pairs of `visited` the log already holds: its next
    /// record leaves them out.
    pub logged: u64,
    /// `(impl state, spec node, visible depth)` for every pending task.
    pub pending: Vec<(u32, u32, u32)>,
    pub discovered: u64,
    pub violation: u32,
    pub expansions: u64,
    pub transitions: u64,
    /// Batches received, in the slot an earlier engine's steal count held.
    pub batches: u64,
    pub frontier_peak: u64,
}

impl Frontier {
    /// Structural validity against the models the resume will run over.
    pub(crate) fn validate(&self, impl_states: usize, norm_nodes: usize) -> bool {
        let ok = |s: u32, n: u32| (s as usize) < impl_states && (n as usize) < norm_nodes;
        !self.visited.is_empty()
            && self.visited.iter().all(|&(s, n)| ok(s, n))
            && self.pending.iter().all(|&(s, n, _)| ok(s, n))
    }
}

/// The checkpoint record of `f` for check `id`, walked in `model`: the
/// check's identity and walk model, then `f` without its logged pairs.
fn encode_record(id: CheckId, model: RefinementModel, f: &Frontier) -> Vec<u8> {
    let logged = f.logged as usize;
    let mut enc = Enc::new(MAGIC_CKPT);
    id.0.into_iter().for_each(|half| enc.u64(half));
    enc.u8(model_tag(model));
    enc.u64(f.base + logged as u64);
    enc.u32((f.visited.len() - logged) as u32);
    for &(s, n) in &f.visited[logged..] {
        enc.u32(s);
        enc.u32(n);
    }
    enc.u32(f.pending.len() as u32);
    for &(s, n, v) in &f.pending {
        enc.u32(s);
        enc.u32(n);
        enc.u32(v);
    }
    enc.u64(f.discovered);
    enc.u32(f.violation);
    for counter in [f.expansions, f.transitions, f.batches, f.frontier_peak] {
        enc.u64(counter);
    }
    enc.finish()
}

fn decode_record(dec: &mut Dec<'_>, id: CheckId, model: RefinementModel) -> DecResult<Frontier> {
    if CheckId([dec.u64()?, dec.u64()?]) != id {
        return corrupt("checkpoint is keyed to a different check");
    }
    if dec.u8()? != model_tag(model) {
        return corrupt("checkpoint is for another refinement model");
    }
    Ok(Frontier {
        base: dec.u64()?,
        visited: (0..dec.len(8)?)
            .map(|_| Ok((dec.u32()?, dec.u32()?)))
            .collect::<DecResult<_>>()?,
        logged: 0,
        pending: (0..dec.len(12)?)
            .map(|_| Ok((dec.u32()?, dec.u32()?, dec.u32()?)))
            .collect::<DecResult<_>>()?,
        discovered: dec.u64()?,
        violation: dec.u32()?,
        expansions: dec.u64()?,
        transitions: dec.u64()?,
        batches: dec.u64()?,
        frontier_peak: dec.u64()?,
    })
}

// ---------------------------------------------------------------------------
// Persistence configuration
// ---------------------------------------------------------------------------

/// How a [`crate::ModelStore`] treats existing checkpoints when a check
/// starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumePolicy {
    /// Never resume; existing checkpoints are left alone.
    Off,
    /// Resume any check that has a valid checkpoint on disk.
    Auto,
    /// Resume only the check whose identity matches this token
    /// (`autocsp check --resume <token>`); every other check runs fresh.
    Token(CheckId),
}

/// Persistence configuration attached to a [`crate::ModelStore`]: where
/// artifacts and checkpoints live, how often to checkpoint, and whether to
/// resume.
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// The on-disk cache backing the store.
    pub cache: Arc<PersistentCache>,
    /// Write a checkpoint every this many newly discovered product states
    /// during long refinements, so an interrupted process loses at most one
    /// segment of work. `None` checkpoints only when a budget runs out.
    pub checkpoint_every: Option<u64>,
    /// Checkpoint-resume policy for this run.
    pub resume: ResumePolicy,
}

// ---------------------------------------------------------------------------
// Storage-fault hook
// ---------------------------------------------------------------------------

/// Interception point for deterministic storage-fault injection
/// (`crates/faults`). The hook sees every encoded cache entry, and the
/// entry of every checkpoint record, immediately before it is written.
///
/// Return `false` to suppress the write entirely (simulating a crash
/// before the rename, or a record lost from a checkpoint log); return
/// `true` to proceed with the (possibly mutated) bytes. Mutations model
/// torn writes, truncation, bit flips and stale-version headers — all of
/// which the load path must reject or survive.
pub trait StorageFaultHook: Send + Sync {
    /// Possibly corrupt `bytes` for the entry `name`; `false` drops the
    /// write on the floor.
    fn corrupt(&self, name: &str, bytes: &mut Vec<u8>) -> bool;
}

// ---------------------------------------------------------------------------
// Store locking
// ---------------------------------------------------------------------------

/// Bounded wait for a live `store.lock` holder: attempts × retry sleep.
const LOCK_ATTEMPTS: u32 = 20;
const LOCK_RETRY_MS: u64 = 5;
/// A stamped lock older than this is stale even if its pid looks alive
/// (pid reuse): a handle holds the lock for one directory scan and its
/// evictions, never minutes.
const STALE_LOCK_MICROS: u64 = 600_000_000;
/// An unparsable lock file (holder died between `create_new` and the
/// stamp write) is stale once its mtime is this old.
const UNSTAMPED_LOCK_MICROS: u64 = 5_000_000;

/// Wall-clock micros since the epoch (0 if the clock is unreadable).
fn now_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Is the process with this pid still alive? Answered via `/proc` where
/// available; `None` when it cannot be determined (non-procfs platforms).
fn pid_alive(pid: u32) -> Option<bool> {
    if Path::new("/proc").is_dir() {
        Some(Path::new(&format!("/proc/{pid}")).exists())
    } else {
        None
    }
}

/// Decide whether an existing `store.lock` is a leftover from a dead
/// process (stealable) or held by a live writer (wait for it).
fn lock_is_stale(path: &Path) -> bool {
    let content = fs::read_to_string(path).unwrap_or_default();
    let mut parts = content.split_whitespace();
    let pid = parts.next().and_then(|p| p.parse::<u32>().ok());
    match pid.zip(parts.next().and_then(|s| s.parse::<u64>().ok())) {
        Some((pid, stamp)) => {
            let aged = now_micros().saturating_sub(stamp) > STALE_LOCK_MICROS;
            match pid_alive(pid) {
                Some(false) => true, // holder is gone — classic stale lock
                _ => aged,           // alive (maybe a reused pid) or unknown: trust the stamp
            }
        }
        None => {
            // No stamp yet: give the creating process a grace period
            // (measured by mtime) before declaring the file abandoned.
            let age = fs::metadata(path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .map_or(0, |d| {
                    now_micros().saturating_sub(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
                });
            age > UNSTAMPED_LOCK_MICROS
        }
    }
}

/// Holds the advisory store lock; removes `store.lock` on drop.
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// What one handle knows of the cache's size between directory scans.
#[derive(Debug, Default)]
struct SizeTally {
    /// The `.bin` bytes the last scan left, plus the bytes written since;
    /// `None` before the handle's first scan.
    total: Option<u64>,
    /// Bytes written since the last scan.
    since_scan: u64,
    /// Directory scans so far.
    scans: u64,
}

impl SizeTally {
    /// Count a written entry of `len` bytes; whether a scan is due under
    /// the cap `cap`.
    fn add(&mut self, len: u64, cap: u64) -> bool {
        self.since_scan += len;
        self.total = self.total.map(|total| total + len);
        self.total.is_none_or(|total| total > cap) || self.since_scan >= cap / RESCAN_SHARE
    }
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// A crash-safe, size-capped, content-addressed cache directory.
///
/// See the module docs for the format and concurrency story. All methods
/// are infallible from the caller's point of view: any I/O or integrity
/// problem degrades to a miss (plus a diagnostic), never an error or a
/// wrong artifact.
pub struct PersistentCache {
    root: PathBuf,
    max_bytes: u64,
    hook: Mutex<Option<Arc<dyn StorageFaultHook>>>,
    diags: Mutex<Vec<Diagnostic>>,
    tally: Mutex<SizeTally>,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    quarantined: AtomicU64,
    evicted: AtomicU64,
    locks_stolen: AtomicU64,
}

impl fmt::Debug for PersistentCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PersistentCache")
            .field("root", &self.root)
            .field("max_bytes", &self.max_bytes)
            .finish_non_exhaustive()
    }
}

impl PersistentCache {
    /// Open (creating if needed) a cache directory with the
    /// [`DEFAULT_CAPACITY`] size cap.
    ///
    /// # Errors
    ///
    /// Only directory creation can fail; everything after open degrades
    /// gracefully instead of erroring.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<PersistentCache> {
        PersistentCache::with_capacity(dir, DEFAULT_CAPACITY)
    }

    /// Open with an explicit size cap in bytes.
    ///
    /// # Errors
    ///
    /// Only directory creation can fail.
    pub fn with_capacity(
        dir: impl AsRef<Path>,
        max_bytes: u64,
    ) -> std::io::Result<PersistentCache> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(root.join("quarantine"))?;
        fs::create_dir_all(root.join("checkpoints"))?;
        Ok(PersistentCache {
            root,
            max_bytes,
            hook: Mutex::new(None),
            diags: Mutex::new(Vec::new()),
            tally: Mutex::new(SizeTally::default()),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            locks_stolen: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Install a storage-fault interception hook (testing/fault-injection).
    pub fn set_fault_hook(&self, hook: Arc<dyn StorageFaultHook>) {
        *self.hook.lock().expect("hook lock poisoned") = Some(hook);
    }

    /// Drain the diagnostics accumulated since the last call.
    pub fn take_diagnostics(&self) -> Vec<Diagnostic> {
        std::mem::take(&mut *self.diags.lock().expect("diag lock poisoned"))
    }

    /// Entries served from disk so far.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a recompile so far.
    pub fn disk_misses(&self) -> u64 {
        self.disk_misses.load(Ordering::Relaxed)
    }

    /// Entries quarantined after integrity failures so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Entries evicted by the size cap so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Stale `store.lock` files stolen from dead processes so far.
    pub fn locks_stolen(&self) -> u64 {
        self.locks_stolen.load(Ordering::Relaxed)
    }

    fn push_diag(&self, d: Diagnostic) {
        self.diags.lock().expect("diag lock poisoned").push(d);
    }

    /// Advisory exclusive lock held for the duration of the returned guard
    /// (the lock file is removed on drop). `None` if the lock could not be
    /// acquired within the bounded wait — the caller scans and evicts
    /// unlocked rather than failing the run (writes never take the lock;
    /// only eviction racing gets less polite).
    ///
    /// The lock is a `store.lock` file created with `create_new` and
    /// stamped `"<pid> <micros>"`. A file whose pid is dead, whose stamp
    /// is older than [`STALE_LOCK_MICROS`], or whose content is garbage
    /// and unchanged for a while, is *stale* — left behind by a process
    /// that was killed mid-write — and is stolen with an [`STALE_LOCK`]
    /// warning.
    fn lock_exclusive(&self) -> Option<LockGuard> {
        let path = self.root.join("store.lock");
        for _ in 0..LOCK_ATTEMPTS {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => {
                    use std::io::Write as _;
                    let mut file = file;
                    let _ = write!(file, "{} {}", std::process::id(), now_micros());
                    return Some(LockGuard { path });
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    if lock_is_stale(&path) && self.steal_stale_lock(&path) {
                        self.locks_stolen.fetch_add(1, Ordering::Relaxed);
                        self.push_diag(
                            Diagnostic::warning(
                                STALE_LOCK,
                                Span::unknown(),
                                "stale `store.lock` left by a dead process; stealing it"
                                    .to_string(),
                            )
                            .with_note("a previous run was killed while holding the store lock"),
                        );
                    } else {
                        std::thread::sleep(std::time::Duration::from_millis(LOCK_RETRY_MS));
                    }
                }
                Err(_) => return None,
            }
        }
        None
    }

    /// Remove a stale `store.lock` without racing other *live* stealers.
    ///
    /// A naive `remove_file` is unsafe with two live contenders: B can
    /// classify the file as stale, lose the race to A (who removes it and
    /// re-creates a fresh, live lock), and then B's delayed remove
    /// destroys A's brand-new lock. The claim protocol closes that window:
    ///
    /// 1. Read the stale lock's bytes `C`, then `create_new` a claim file
    ///    whose name encodes `fnv1a64(C)`. Among every contender that
    ///    observed the same dead owner, exactly one wins the claim.
    /// 2. The winner re-reads `store.lock` and removes it only if the
    ///    bytes still equal `C` *and* it still classifies as stale. A
    ///    lock re-created in the meantime carries a fresh stamp
    ///    (different bytes, not stale), so it can never be removed here.
    /// 3. The claim is deleted and everyone returns to the only arbiter
    ///    of ownership: `create_new` on `store.lock` itself.
    ///
    /// The claim file is stamped `"<pid> <micros>"` exactly like a lock,
    /// so a claim orphaned by a winner that died mid-steal ages into
    /// staleness and is cleared by the next contender instead of wedging
    /// the store forever. Returns whether the stale lock was removed.
    fn steal_stale_lock(&self, path: &Path) -> bool {
        let Ok(observed) = fs::read(path) else {
            // Gone already — someone else finished the steal.
            return false;
        };
        let claim = self
            .root
            .join(format!("store.lock.steal-{:016x}", fnv1a64(&observed)));
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&claim)
        {
            Ok(file) => {
                use std::io::Write as _;
                let mut file = file;
                let _ = write!(file, "{} {}", std::process::id(), now_micros());
                let unchanged = fs::read(path).is_ok_and(|now| now == observed);
                let stole = unchanged && lock_is_stale(path);
                if stole {
                    let _ = fs::remove_file(path);
                }
                let _ = fs::remove_file(&claim);
                stole
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                // Another live contender holds the claim. If the claim is
                // itself a leftover from a stealer that died mid-steal,
                // clear it so progress resumes; the blast radius of this
                // (naive) remove is one short-lived claim file, never the
                // lock.
                if lock_is_stale(&claim) {
                    let _ = fs::remove_file(&claim);
                }
                false
            }
            Err(_) => false,
        }
    }

    /// Stamp `name`'s LRU sidecar with the current wall-clock micros.
    fn touch(&self, name: &str) {
        let _ = fs::write(
            self.root.join(format!("{name}.used")),
            now_micros().to_le_bytes(),
        );
    }

    fn used_stamp(&self, name: &str) -> u64 {
        fs::read(self.root.join(format!("{name}.used")))
            .ok()
            .and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
            .unwrap_or(0)
    }

    /// Show `bytes`, about to be written as `rel`, to the fault hook:
    /// `false` drops the write.
    fn passes_hook(&self, rel: &str, bytes: &mut Vec<u8>) -> bool {
        let hook = self.hook.lock().expect("hook lock poisoned").clone();
        hook.is_none_or(|hook| hook.corrupt(rel, bytes))
    }

    fn write_failed(&self, rel: &str, e: &std::io::Error) {
        self.push_diag(
            Diagnostic::warning(
                CACHE_IO,
                Span::unknown(),
                format!("failed to write cache entry `{rel}`: {e}"),
            )
            .with_note("the run continues without persisting this artifact"),
        );
    }

    /// A temp file in the cache root for `name`, under a name no other
    /// writer uses: `.tmp-{pid}-{seq}-{name}`.
    fn temp_path(&self, name: &str) -> PathBuf {
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        self.root
            .join(format!(".tmp-{}-{seq}-{name}", std::process::id()))
    }

    /// Atomically write `bytes` to the entry `name`, then scan and enforce
    /// the size cap if this handle's running total says one is due. The
    /// fault hook sees the bytes first.
    fn write_entry(&self, name: &str, mut bytes: Vec<u8>) {
        if !self.passes_hook(name, &mut bytes) {
            return; // injected crash before the write ever happened
        }
        let tmp_path = self.temp_path(name);
        // Stamp first: a scan by another handle does not wait for this
        // write, and an unstamped entry is the first one it would evict.
        self.touch(name);
        let written =
            fs::write(&tmp_path, &bytes).and_then(|()| fs::rename(&tmp_path, self.root.join(name)));
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp_path);
            self.write_failed(name, &e);
            return;
        }
        let due = self
            .tally
            .lock()
            .expect("tally lock poisoned")
            .add(bytes.len() as u64, self.max_bytes);
        if due {
            self.enforce_capacity(name);
        }
    }

    /// Scan the cache directory under the store lock and evict
    /// least-recently-used `.bin` entries until the cache is under its size
    /// cap; the running total restarts from what the scan leaves. `protect`
    /// (the entry just written) is never evicted.
    pub(crate) fn enforce_capacity(&self, protect: &str) {
        // Held across the scan, so a write of this handle that the scan
        // misses is counted after it, never lost.
        let mut tally = self.tally.lock().expect("tally lock poisoned");
        let _guard = self.lock_exclusive();
        let Ok(dir) = fs::read_dir(&self.root) else {
            return;
        };
        tally.scans += 1;
        let mut entries: Vec<(String, u64)> = Vec::new();
        let mut total: u64 = 0;
        for entry in dir.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.ends_with(".bin") || !(name.starts_with("m-") || name.starts_with("n-")) {
                continue;
            }
            let size = entry.metadata().map_or(0, |m| m.len());
            total += size;
            entries.push((name, size));
        }
        if total > self.max_bytes {
            total = self.evict(entries, total, protect);
        }
        tally.total = Some(total);
        tally.since_scan = 0;
    }

    /// Evict the least recently used of `entries` (name, size), `protect`
    /// aside, until their `total` is under the cap; the total left.
    fn evict(&self, mut entries: Vec<(String, u64)>, mut total: u64, protect: &str) -> u64 {
        // One stamp read per entry, not one per comparison.
        entries.sort_by_cached_key(|(name, _)| (self.used_stamp(name), name.clone()));
        let mut removed = 0u64;
        for (name, size) in entries {
            if total <= self.max_bytes {
                break;
            }
            if name == protect {
                continue;
            }
            if fs::remove_file(self.root.join(&name)).is_ok() {
                let _ = fs::remove_file(self.root.join(format!("{name}.used")));
                total -= size;
                removed += 1;
            }
        }
        if removed > 0 {
            self.evicted.fetch_add(removed, Ordering::Relaxed);
            self.push_diag(Diagnostic::info(
                EVICTED,
                Span::unknown(),
                format!(
                    "evicted {removed} cache entr{} to stay under the size cap",
                    if removed == 1 { "y" } else { "ies" }
                ),
            ));
        }
        total
    }

    /// Move the entry `rel` (relative to the cache root) into the
    /// quarantine directory, or delete it when it cannot be moved.
    fn move_to_quarantine(&self, rel: &str) {
        let from = self.root.join(rel);
        let name = rel.rsplit('/').next().unwrap_or(rel);
        if fs::rename(&from, self.root.join("quarantine").join(name)).is_err() {
            let _ = fs::remove_file(&from);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Move a bad entry out of the lookup path and record why.
    fn quarantine(&self, name: &str, err: EntryError) {
        self.move_to_quarantine(name);
        let _ = fs::remove_file(self.root.join(format!("{name}.used")));
        let code = match err {
            EntryError::Corrupt(_) => CORRUPT_ENTRY,
            EntryError::Version => STALE_VERSION,
        };
        self.push_diag(
            Diagnostic::warning(
                code,
                Span::unknown(),
                format!("quarantined cache entry `{name}`: {}", err.why()),
            )
            .with_note(
                "the model was recompiled; delete the quarantine directory to reclaim space",
            ),
        );
    }

    fn read_entry(&self, name: &str) -> Option<Vec<u8>> {
        match fs::read(self.root.join(name)) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == ErrorKind::NotFound => None,
            Err(e) => {
                self.push_diag(Diagnostic::warning(
                    CACHE_IO,
                    Span::unknown(),
                    format!("failed to read cache entry `{name}`: {e}"),
                ));
                None
            }
        }
    }

    /// Decode the entry `name` under `magic` with `decode`, or `None`
    /// (after quarantining) on any miss or integrity failure.
    fn load_entry<T>(
        &self,
        name: &str,
        magic: &[u8; 8],
        decode: impl FnOnce(&mut Dec<'_>) -> DecResult<T>,
    ) -> Option<T> {
        let decoded = self.read_entry(name).map(|bytes| {
            let mut dec = Dec::open(&bytes, magic)?;
            let value = decode(&mut dec)?;
            dec.done().map(|()| value)
        });
        match decoded {
            Some(Ok(value)) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.touch(name);
                return Some(value);
            }
            Some(Err(err)) => self.quarantine(name, err),
            None => {}
        }
        self.disk_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Load a compiled model, or `None` on miss/corruption.
    pub(crate) fn load_model(&self, key: &ModelKey) -> Option<Lts> {
        self.load_entry(&key.file_name(), MAGIC_MODEL, |dec| {
            key.check_echo(dec)?;
            decode_lts(dec)
        })
    }

    /// Persist a compiled model (best effort).
    pub(crate) fn store_model(&self, key: &ModelKey, lts: &Lts) {
        let mut enc = Enc::new(MAGIC_MODEL);
        key.encode(&mut enc);
        encode_lts(&mut enc, lts);
        self.write_entry(&key.file_name(), enc.finish());
    }

    /// Load a normalised specification, or `None` on miss/corruption.
    pub(crate) fn load_norm(&self, key: &NormDiskKey) -> Option<NormalisedLts> {
        self.load_entry(&key.file_name(), MAGIC_NORM, |dec| {
            key.model.check_echo(dec)?;
            if dec.u64()? != key.max_norm_nodes {
                return corrupt("key echo does not match requested key");
            }
            decode_norm(dec)
        })
    }

    /// Persist a normalised specification (best effort).
    pub(crate) fn store_norm(&self, key: &NormDiskKey, norm: &NormalisedLts) {
        let mut enc = Enc::new(MAGIC_NORM);
        key.model.encode(&mut enc);
        enc.u64(key.max_norm_nodes);
        encode_norm(&mut enc, norm);
        self.write_entry(&key.file_name(), enc.finish());
    }

    /// The checkpoint log of check `id`, walked in `model`. Touches
    /// nothing on disk.
    pub(crate) fn checkpoint_log(&self, id: CheckId, model: RefinementModel) -> CheckpointLog<'_> {
        let rel = format!("checkpoints/{}.ckpt", id.token());
        // Its own temp file, outside `checkpoints/`, where only logs live.
        let tmp = self.temp_path(&format!("{}.ckpt", id.token()));
        let records = RecordLog::new(self.root.join(&rel), tmp, MAGIC_CKPT);
        CheckpointLog {
            cache: self,
            id,
            model,
            rel,
            records,
            log: None,
        }
    }
}

/// The checkpoint log of one check. An engine run's first record is a
/// whole frontier in a fresh file, renamed into place, and its later ones
/// append the pairs found since, through the handle the rename left open;
/// so a resumed log is compacted, and two processes never mix records.
pub(crate) struct CheckpointLog<'a> {
    cache: &'a PersistentCache,
    id: CheckId,
    model: RefinementModel,
    /// The log's path relative to the cache root.
    rel: String,
    records: RecordLog,
    /// This run's log, open for appends; `None` before its first record.
    log: Option<File>,
}

impl CheckpointLog<'_> {
    /// The whole frontier on disk: the log's records folded in order, each
    /// adding its pairs and replacing the pending tasks and counters, up to
    /// the first torn record or gap in the visited count. `None` when there
    /// is no log; one whose first record does not fold is quarantined.
    pub(crate) fn load(&self) -> Option<Frontier> {
        let bytes = self.cache.read_entry(&self.rel)?;
        let mut whole: Option<Frontier> = None;
        let stop = self.records.replay(&bytes, |dec| {
            let mut next = decode_record(dec, self.id, self.model)?;
            if next.base != whole.as_ref().map_or(0, |f| f.visited.len() as u64) {
                return corrupt("gap in the visited-pair count");
            }
            if let Some(mut before) = whole.take() {
                before.visited.append(&mut next.visited);
                next.visited = before.visited;
            }
            whole = Some(Frontier { base: 0, ..next });
            Ok(())
        });
        if whole.is_none() {
            self.discard(match stop {
                Err(Torn::Header) => EntryError::Version.why(),
                Err(Torn::Record(_, why)) => why,
                Ok(()) => "the log holds no record",
            });
        }
        whole
    }

    /// Quarantine the log under [`BAD_CHECKPOINT`]: it did not fold, or
    /// does not fit the models of the current check (e.g. written by an
    /// older script revision whose state spaces were shaped differently).
    pub(crate) fn discard(&self, why: &str) {
        self.cache.move_to_quarantine(&self.rel);
        self.cache.push_diag(
            Diagnostic::warning(
                BAD_CHECKPOINT,
                Span::unknown(),
                format!("quarantined checkpoint `{}`: {why}", self.rel),
            )
            .with_note("the check restarts from scratch"),
        );
    }

    /// Write `f` as the log's next record (best effort): a whole frontier
    /// starts a fresh file, any other record is appended. Whether a record
    /// may follow this one; after `false` the next must be whole.
    pub(crate) fn save(&mut self, f: &Frontier) -> bool {
        if f.base + f.logged == 0 {
            self.log = None;
        } else if self.log.is_none() {
            return false;
        }
        let mut entry = encode_record(self.id, self.model, f);
        if !self.cache.passes_hook(&self.rel, &mut entry) {
            return true; // injected loss: the record never reaches the file
        }
        let record = RecordLog::record(&entry);
        let written = match self.log {
            Some(_) => RecordLog::append(&mut self.log, &record),
            None => self
                .records
                .rewrite([record])
                .map(|log| self.log = Some(log)),
        };
        written
            .map_err(|e| self.cache.write_failed(&self.rel, &e))
            .is_ok()
    }

    /// Delete the log: the check reached a conclusive verdict.
    pub(crate) fn remove(&mut self) {
        self.log = None;
        self.records.remove();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp::EventSet;

    fn e(n: u32) -> EventId {
        EventId::from_index(n as usize)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fdrlite-persist-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// An LTS from per-state `Ω` flags and sorted edge rows.
    fn lts_of(omega: &[bool], rows: &[&[(Label, usize)]]) -> Lts {
        let mut offsets = vec![0];
        let mut edges = Vec::new();
        for row in rows {
            edges.extend(row.iter().map(|&(l, t)| (l, StateId::from_index(t))));
            offsets.push(edges.len() as u32);
        }
        Lts::from_parts(omega, offsets, edges)
    }

    fn sample_lts() -> Lts {
        // 0 --a--> 1 --tick--> 2(Ω), plus a tau self-ish edge 0 --tau--> 1.
        lts_of(
            &[false, false, true],
            &[
                &[(Label::Tau, 1), (Label::Event(e(0)), 1)],
                &[(Label::Tick, 2)],
                &[],
            ],
        )
    }

    fn sample_key() -> ModelKey {
        ModelKey {
            hash: ModelHash([0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321]),
            max_states: 100_000,
        }
    }

    fn encode_model_entry(key: &ModelKey, lts: &Lts) -> Vec<u8> {
        let mut enc = Enc::new(MAGIC_MODEL);
        key.encode(&mut enc);
        encode_lts(&mut enc, lts);
        enc.finish()
    }

    #[test]
    fn lts_roundtrips_with_omega_flags_and_exact_edges() {
        let lts = sample_lts();
        let cache = PersistentCache::open(tmpdir("roundtrip")).unwrap();
        let key = sample_key();
        cache.store_model(&key, &lts);
        let back = cache.load_model(&key).expect("entry must load");
        assert_eq!(back.state_count(), lts.state_count());
        for s in lts.state_ids() {
            assert_eq!(back.edges(s), lts.edges(s));
            assert_eq!(back.is_omega(s), lts.is_omega(s));
        }
        assert_eq!(cache.disk_hits(), 1);
        assert_eq!(cache.disk_misses(), 0);
    }

    /// The model entry of [`pinned_lts`] under [`sample_key`], as the
    /// `FDRLMDL\x02` format writes it: caches on disk must keep loading,
    /// so these bytes never change under this magic.
    const PINNED_MODEL_ENTRY: &str = concat!(
        "4644524c4d444c0201000000f0debc9a7856341221436587a9cbed0fa0860100",
        "0000000004000000080200000000010000000200000000020000000200000001",
        "0300000002010000000000000001000000022c0100000200000000000000306e",
        "09d1f6b6a5b0",
    );

    /// The same entry as the `FDRLMDL\x01` format wrote it: its key echo
    /// ends in a retired flag byte.
    const FDRLMDL_01_ENTRY: &str = concat!(
        "4644524c4d444c0101000000f0debc9a7856341221436587a9cbed0fa0860100",
        "0000000000040000000802000000000100000002000000000200000002000000",
        "010300000002010000000000000001000000022c010000020000000000000003",
        "0a9673997bc90b",
    );

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Four states: τ and event edges out of 0, ✓ and an event out of 1,
    /// an event id above 255 looping on 2, and 3 the `Ω` state.
    fn pinned_lts() -> Lts {
        lts_of(
            &[false, false, false, true],
            &[
                &[(Label::Tau, 1), (Label::Event(e(0)), 2)],
                &[(Label::Tick, 3), (Label::Event(e(1)), 0)],
                &[(Label::Event(e(300)), 2)],
                &[],
            ],
        )
    }

    #[test]
    fn model_entry_bytes_are_pinned_and_decode_back() {
        let lts = pinned_lts();
        let key = sample_key();
        let bytes = encode_model_entry(&key, &lts);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED_MODEL_ENTRY);
        let mut dec = Dec::open(&bytes, MAGIC_MODEL).unwrap();
        key.check_echo(&mut dec).unwrap();
        let back = decode_lts(&mut dec).unwrap();
        dec.done().unwrap();
        assert_eq!(back.state_count(), 4);
        assert_eq!(back.transition_count(), 5);
        for s in lts.state_ids() {
            assert_eq!(back.edges(s), lts.edges(s));
            assert_eq!(back.is_omega(s), lts.is_omega(s));
        }
    }

    #[test]
    fn an_fdrlmdl_01_entry_is_quarantined_as_stale_and_rewritten() {
        let dir = tmpdir("fdrlmdl01");
        let cache = PersistentCache::open(&dir).unwrap();
        let key = sample_key();
        fs::write(dir.join(key.file_name()), unhex(FDRLMDL_01_ENTRY)).unwrap();
        assert!(cache.load_model(&key).is_none(), "an old entry must miss");
        assert!(dir.join("quarantine").join(key.file_name()).exists());
        let diags = cache.take_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, STALE_VERSION);

        // The caller recompiles on the miss and writes the new format.
        cache.store_model(&key, &pinned_lts());
        assert_eq!(
            fs::read(dir.join(key.file_name())).unwrap(),
            unhex(PINNED_MODEL_ENTRY)
        );
        assert_eq!(cache.load_model(&key).unwrap().state_count(), 4);
    }

    #[test]
    fn missing_entry_is_a_clean_miss() {
        let cache = PersistentCache::open(tmpdir("miss")).unwrap();
        assert!(cache.load_model(&sample_key()).is_none());
        assert_eq!(cache.disk_misses(), 1);
        assert!(
            cache.take_diagnostics().is_empty(),
            "a miss is not an error"
        );
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_harmless() {
        let lts = sample_lts();
        let key = sample_key();
        let good = encode_model_entry(&key, &lts);
        for pos in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[pos] ^= 1 << bit;
                let decoded: DecResult<Lts> = (|| {
                    let mut dec = Dec::open(&bad, MAGIC_MODEL)?;
                    key.check_echo(&mut dec)?;
                    let lts = decode_lts(&mut dec)?;
                    dec.done()?;
                    Ok(lts)
                })();
                assert!(
                    decoded.is_err(),
                    "flip at byte {pos} bit {bit} must be caught by the checksum"
                );
            }
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let lts = sample_lts();
        let key = sample_key();
        let good = encode_model_entry(&key, &lts);
        for cut in 0..good.len() {
            let bad = &good[..cut];
            let decoded = Dec::open(bad, MAGIC_MODEL).and_then(|mut dec| {
                key.check_echo(&mut dec)?;
                decode_lts(&mut dec)
            });
            assert!(decoded.is_err(), "truncation to {cut} bytes must be caught");
        }
    }

    #[test]
    fn corrupt_file_on_disk_is_quarantined_with_a_diagnostic() {
        let dir = tmpdir("quarantine");
        let cache = PersistentCache::open(&dir).unwrap();
        let key = sample_key();
        cache.store_model(&key, &sample_lts());
        let path = dir.join(key.file_name());
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        assert!(cache.load_model(&key).is_none(), "corrupt entry must miss");
        assert!(!path.exists(), "bad entry must leave the lookup path");
        assert!(dir.join("quarantine").join(key.file_name()).exists());
        assert_eq!(cache.quarantined(), 1);
        let diags = cache.take_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, CORRUPT_ENTRY);

        // And the slot is reusable: a rewrite loads cleanly again.
        cache.store_model(&key, &sample_lts());
        assert!(cache.load_model(&key).is_some());
    }

    #[test]
    fn stale_version_is_quarantined_under_its_own_code() {
        let dir = tmpdir("stale");
        let cache = PersistentCache::open(&dir).unwrap();
        let key = sample_key();
        cache.store_model(&key, &sample_lts());
        let path = dir.join(key.file_name());
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 0xee; // version field
        let fixed = {
            let body_len = bytes.len() - 8;
            let sum = fnv1a64(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
            bytes
        };
        fs::write(&path, &fixed).unwrap();

        assert!(cache.load_model(&key).is_none());
        let diags = cache.take_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, STALE_VERSION);
    }

    #[test]
    fn key_echo_rejects_an_entry_renamed_onto_another_key() {
        let dir = tmpdir("echo");
        let cache = PersistentCache::open(&dir).unwrap();
        let key = sample_key();
        cache.store_model(&key, &sample_lts());
        let other = ModelKey {
            max_states: 999,
            ..key
        };
        fs::rename(dir.join(key.file_name()), dir.join(other.file_name())).unwrap();
        assert!(cache.load_model(&other).is_none(), "echo must catch this");
        assert_eq!(cache.take_diagnostics()[0].code, CORRUPT_ENTRY);
    }

    #[test]
    fn norm_roundtrips_verbatim() {
        let lts = lts_of(
            &[false, false, true],
            &[
                &[(Label::Event(e(0)), 1), (Label::Event(e(2)), 0)],
                &[(Label::Tick, 2)],
                &[],
            ],
        );
        let norm = NormalisedLts::build(&lts, 1000).unwrap();
        let cache = PersistentCache::open(tmpdir("norm")).unwrap();
        let key = NormDiskKey {
            model: sample_key(),
            max_norm_nodes: 1000,
        };
        cache.store_norm(&key, &norm);
        let back = cache.load_norm(&key).expect("norm must load");
        let mut a = Enc::new(MAGIC_NORM);
        encode_norm(&mut a, &norm);
        let mut b = Enc::new(MAGIC_NORM);
        encode_norm(&mut b, &back);
        assert_eq!(a.finish(), b.finish(), "norm must re-encode identically");
    }

    #[test]
    fn content_hash_is_structural_and_definition_sensitive() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(d, Process::prefix(e(0), Process::var(d)));

        let p1 = Process::prefix(e(0), Process::var(d));
        let p2 = Process::prefix(e(0), Process::var(d));
        assert_eq!(content_hash(&p1, &defs), content_hash(&p2, &defs));

        let p3 = Process::prefix(e(1), Process::var(d));
        assert_ne!(content_hash(&p1, &defs), content_hash(&p3, &defs));

        // Same term, different recursion body: different meaning.
        let mut defs2 = Definitions::new();
        let d2 = defs2.declare("P");
        defs2.define(d2, Process::prefix(e(1), Process::var(d2)));
        assert_ne!(content_hash(&p1, &defs), content_hash(&p1, &defs2));
    }

    #[test]
    fn content_hash_separates_operators_and_empty_sets() {
        let defs = Definitions::new();
        let a = Process::prefix(e(0), Process::Stop);
        let b = Process::prefix(e(1), Process::Stop);
        let ext = Process::external_choice(a.clone(), b.clone());
        let int = Process::internal_choice(a.clone(), b.clone());
        assert_ne!(content_hash(&ext, &defs), content_hash(&int, &defs));

        let par = Process::parallel(EventSet::empty(), a.clone(), b.clone());
        let sync = Process::parallel(EventSet::singleton(e(0)), a, b);
        assert_ne!(content_hash(&par, &defs), content_hash(&sync, &defs));
    }

    #[test]
    fn eviction_drops_least_recently_used_first() {
        let dir = tmpdir("evict");
        let cache = PersistentCache::with_capacity(&dir, 1).unwrap();
        let lts = sample_lts();
        let k1 = ModelKey {
            hash: ModelHash([1, 1]),
            max_states: 10,
        };
        let k2 = ModelKey {
            hash: ModelHash([2, 2]),
            max_states: 10,
        };
        let k3 = ModelKey {
            hash: ModelHash([3, 3]),
            max_states: 10,
        };
        cache.store_model(&k1, &lts);
        cache.store_model(&k2, &lts);
        cache.store_model(&k3, &lts);
        // Force a known LRU order, then enforce: k2 oldest, k1 next, k3 newest.
        fs::write(
            dir.join(format!("{}.used", k2.file_name())),
            1u64.to_le_bytes(),
        )
        .unwrap();
        fs::write(
            dir.join(format!("{}.used", k1.file_name())),
            2u64.to_le_bytes(),
        )
        .unwrap();
        fs::write(
            dir.join(format!("{}.used", k3.file_name())),
            3u64.to_le_bytes(),
        )
        .unwrap();
        cache.enforce_capacity(&k3.file_name());
        assert!(!dir.join(k2.file_name()).exists(), "oldest must go first");
        assert!(
            dir.join(k3.file_name()).exists(),
            "the protected newest entry must survive"
        );
        assert!(cache.evicted() >= 1);
    }

    #[test]
    fn fault_hook_sees_writes_and_can_drop_them() {
        struct DropAll;
        impl StorageFaultHook for DropAll {
            fn corrupt(&self, _name: &str, _bytes: &mut Vec<u8>) -> bool {
                false
            }
        }
        let dir = tmpdir("hook");
        let cache = PersistentCache::open(&dir).unwrap();
        cache.set_fault_hook(Arc::new(DropAll));
        let key = sample_key();
        cache.store_model(&key, &sample_lts());
        assert!(
            !dir.join(key.file_name()).exists(),
            "a dropped write must leave no file behind"
        );
        assert!(cache.load_model(&key).is_none());
    }

    fn sample_frontier() -> Frontier {
        Frontier {
            base: 0,
            visited: vec![(0, 0), (1, 1), (2, 0)],
            logged: 0,
            pending: vec![(1, 1, 1), (2, 0, 2)],
            discovered: 3,
            violation: 7,
            expansions: 5,
            transitions: 9,
            batches: 1,
            frontier_peak: 2,
        }
    }

    /// The record after `f` that adds the pair `(s, s)`, pending, and
    /// counts it.
    fn next_record(f: &Frontier, s: u32) -> Frontier {
        Frontier {
            base: f.base + f.visited.len() as u64,
            visited: vec![(s, s)],
            pending: vec![(s, s, s)],
            discovered: f.discovered + 1,
            ..f.clone()
        }
    }

    /// The whole frontier `records` fold to.
    fn folded(records: &[&Frontier]) -> Frontier {
        let visited = records.iter().flat_map(|f| f.visited.clone()).collect();
        let last = records.last().expect("a record");
        Frontier {
            base: 0,
            visited,
            ..(*last).clone()
        }
    }

    fn checkpoint_path(dir: &Path, id: CheckId) -> PathBuf {
        dir.join("checkpoints").join(format!("{}.ckpt", id.token()))
    }

    #[test]
    fn checkpoint_log_appends_records_and_folds_them() {
        let dir = tmpdir("ckpt");
        let cache = PersistentCache::open(&dir).unwrap();
        let (id, model) = (CheckId([42, 43]), RefinementModel::Failures);
        let mut log = cache.checkpoint_log(id, model);
        let (first, second) = (sample_frontier(), next_record(&sample_frontier(), 3));
        assert!(log.save(&first) && log.save(&second));
        assert_eq!(log.load(), Some(folded(&[&first, &second])));

        // A cut's whole frontier appends only the pairs the log lacks.
        let third = next_record(&second, 4);
        let cut = Frontier {
            logged: 4,
            ..folded(&[&first, &second, &third])
        };
        let before = fs::metadata(checkpoint_path(&dir, id)).unwrap().len();
        assert!(log.save(&cut));
        let grown = fs::metadata(checkpoint_path(&dir, id)).unwrap().len() - before;
        assert_eq!(grown, 4 + encode_record(id, model, &third).len() as u64);
        assert_eq!(log.load(), Some(Frontier { logged: 0, ..cut }));

        log.remove();
        assert!(log.load().is_none());
        assert!(
            cache.take_diagnostics().is_empty(),
            "a removed checkpoint is a clean miss, not an error"
        );
    }

    #[test]
    fn a_torn_last_record_folds_to_the_record_before_it() {
        let dir = tmpdir("ckpt-torn");
        let cache = PersistentCache::open(&dir).unwrap();
        let id = CheckId([5, 6]);
        let mut log = cache.checkpoint_log(id, RefinementModel::Traces);
        let first = sample_frontier();
        let second = next_record(&first, 3);
        for f in [&first, &second, &next_record(&second, 4)] {
            assert!(log.save(f));
        }
        let path = checkpoint_path(&dir, id);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(log.load(), Some(folded(&[&first, &second])));
        assert_eq!(cache.quarantined(), 0);
        assert!(cache.take_diagnostics().is_empty());
    }

    #[test]
    fn the_fold_stops_at_a_gap_left_by_a_dropped_record() {
        struct DropSecond(AtomicU64);
        impl StorageFaultHook for DropSecond {
            fn corrupt(&self, _name: &str, _bytes: &mut Vec<u8>) -> bool {
                self.0.fetch_add(1, Ordering::Relaxed) != 1
            }
        }
        let dir = tmpdir("ckpt-gap");
        let cache = PersistentCache::open(&dir).unwrap();
        cache.set_fault_hook(Arc::new(DropSecond(AtomicU64::new(0))));
        let id = CheckId([7, 8]);
        let mut log = cache.checkpoint_log(id, RefinementModel::Traces);
        let mut records = vec![sample_frontier()];
        for s in 3..6 {
            records.push(next_record(records.last().unwrap(), s));
        }
        for f in &records {
            assert!(log.save(f), "a dropped record is lost silently");
        }
        assert_eq!(log.load(), Some(records[0].clone()));
        assert!(cache.take_diagnostics().is_empty());
    }

    #[test]
    fn a_record_that_cannot_follow_asks_for_a_whole_one() {
        let dir = tmpdir("ckpt-unopened");
        let cache = PersistentCache::open(&dir).unwrap();
        let id = CheckId([3, 4]);
        let mut log = cache.checkpoint_log(id, RefinementModel::Traces);
        assert!(!log.save(&next_record(&sample_frontier(), 3)));
        assert!(!checkpoint_path(&dir, id).exists());
        assert!(log.save(&sample_frontier()));
        assert_eq!(log.load(), Some(sample_frontier()));
    }

    #[test]
    fn checkpoint_keyed_to_another_check_is_rejected() {
        let dir = tmpdir("ckpt-key");
        let cache = PersistentCache::open(&dir).unwrap();
        let (id, model) = (CheckId([1, 2]), RefinementModel::Traces);
        assert!(cache.checkpoint_log(id, model).save(&sample_frontier()));
        let other = CheckId([9, 9]);
        fs::rename(checkpoint_path(&dir, id), checkpoint_path(&dir, other)).unwrap();
        assert!(cache.checkpoint_log(other, model).load().is_none());
        assert_eq!(cache.take_diagnostics()[0].code, BAD_CHECKPOINT);
        assert!(dir
            .join("quarantine")
            .join(format!("{}.ckpt", other.token()))
            .exists());
    }

    #[test]
    fn tokens_roundtrip_and_reject_garbage() {
        let id = CheckId([0xdead_beef, 0x1234]);
        assert_eq!(CheckId::from_token(&id.token()), Some(id));
        assert_eq!(CheckId::from_token("nope"), None);
        assert_eq!(CheckId::from_token(&"z".repeat(32)), None);
        assert_eq!(CheckId::from_token("../../../../etc/passwd"), None);
    }

    #[test]
    fn check_ids_separate_model_and_bounds() {
        let base = CheckIdParts {
            spec: ModelHash([1, 2]),
            impl_: ModelHash([3, 4]),
            model: RefinementModel::Traces,
            max_states: 100,
            max_norm_nodes: 100,
            max_product: 100,
        };
        let id = base.id();
        assert_ne!(
            id,
            CheckIdParts {
                model: RefinementModel::Failures,
                ..base
            }
            .id()
        );
        assert_ne!(
            id,
            CheckIdParts {
                max_states: 101,
                ..base
            }
            .id()
        );
        assert_eq!(
            CheckIdParts {
                model: RefinementModel::Failures,
                ..base
            }
            .id(),
            CheckIdParts {
                model: RefinementModel::FailuresDivergences,
                ..base
            }
            .id(),
            "an [FD= check shares the identity of its [F= walk"
        );
        assert_eq!(id, base.id(), "ids must be deterministic");
    }

    #[test]
    fn concurrent_writers_do_not_corrupt_each_other() {
        let dir = tmpdir("concurrent");
        let lts = sample_lts();
        let key = sample_key();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let dir = &dir;
                let lts = &lts;
                scope.spawn(move || {
                    let cache = PersistentCache::open(dir).unwrap();
                    for _ in 0..20 {
                        cache.store_model(&key, lts);
                        // Loads may race a rename but must never see torn data.
                        if let Some(back) = cache.load_model(&key) {
                            assert_eq!(back.state_count(), 3);
                        }
                    }
                });
            }
        });
        let cache = PersistentCache::open(&dir).unwrap();
        assert!(cache.load_model(&key).is_some());
        assert_eq!(cache.quarantined(), 0, "no writer may tear another's entry");
    }

    #[test]
    fn writers_under_a_live_lock_neither_wait_per_write_nor_share_a_temp_file() {
        let dir = tmpdir("live-lock-writers");
        fs::write(
            dir.join("store.lock"),
            format!("{} {}", std::process::id(), now_micros()),
        )
        .unwrap();
        let (lts, key) = (sample_lts(), sample_key());
        let start = std::time::Instant::now();
        let handles: Vec<PersistentCache> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    let (dir, lts) = (&dir, &lts);
                    scope.spawn(move || {
                        let cache = PersistentCache::open(dir).unwrap();
                        for _ in 0..20 {
                            cache.store_model(&key, lts);
                        }
                        cache
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        // Waiting out the live lock at every write would sleep 20 × 100 ms
        // per thread; only each handle's first scan waits now.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        for cache in &handles {
            assert!(
                !cache.take_diagnostics().iter().any(|d| d.code == CACHE_IO),
                "no write may lose its temp file to another"
            );
            assert_eq!(cache.quarantined(), 0);
            assert_eq!(cache.tally.lock().unwrap().scans, 1);
        }
        assert!(handles[0].load_model(&key).is_some());
    }

    /// The bytes of the `.bin` entries in `dir`.
    fn bin_bytes(dir: &Path) -> u64 {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".bin"))
            .map(|e| e.metadata().unwrap().len())
            .sum()
    }

    fn numbered_key(i: u64) -> ModelKey {
        ModelKey {
            hash: ModelHash([i, i]),
            ..sample_key()
        }
    }

    #[test]
    fn one_handle_scans_once_for_a_thousand_entries_under_the_cap() {
        let dir = tmpdir("scan-once");
        let cache = PersistentCache::open(&dir).unwrap();
        let lts = sample_lts();
        for i in 0..1000 {
            cache.store_model(&numbered_key(i), &lts);
        }
        assert_eq!(cache.tally.lock().unwrap().scans, 1);
        let entry = encode_model_entry(&sample_key(), &lts).len() as u64;
        assert_eq!(bin_bytes(&dir), 1000 * entry);
        assert_eq!(cache.evicted(), 0);
    }

    #[test]
    fn two_handles_taking_turns_hold_the_cap_within_their_share() {
        let dir = tmpdir("two-handles");
        let lts = sample_lts();
        let entry = encode_model_entry(&sample_key(), &lts).len() as u64;
        // A share of the cap is two and a half entries: under the cap, each
        // handle scans at every third write of its own.
        let cap = 5 * RESCAN_SHARE * entry / 2;
        let handles = [
            PersistentCache::with_capacity(&dir, cap).unwrap(),
            PersistentCache::with_capacity(&dir, cap).unwrap(),
        ];
        for i in 0..200 {
            let (cache, key) = (&handles[i as usize % 2], numbered_key(i));
            cache.store_model(&key, &lts);
            assert!(dir.join(key.file_name()).exists(), "the newest survives");
            let bytes = bin_bytes(&dir);
            assert!(bytes <= cap + 2 * cap / RESCAN_SHARE, "write {i}: {bytes}");
            // Once each handle has evicted, each one's total sits at the
            // cap, so every write scans and the cap holds after it.
            if handles.iter().all(|h| h.evicted() > 0) {
                assert!(bytes <= cap, "write {i}: {bytes} over the cap {cap}");
            }
        }
        assert!(handles.iter().all(|h| h.evicted() > 0));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn stale_lock_from_dead_process_is_stolen() {
        let dir = tmpdir("stale-lock");
        // A process that existed, held the lock, and died: spawn a child,
        // wait for it, then forge the lock file it "left behind".
        let child = std::process::Command::new("true")
            .spawn()
            .expect("spawn child");
        let dead_pid = child.id();
        child.wait_with_output().expect("reap child");
        fs::write(
            dir.join("store.lock"),
            format!("{dead_pid} {}", now_micros()),
        )
        .unwrap();

        let cache = PersistentCache::open(&dir).unwrap();
        cache.store_model(&sample_key(), &sample_lts());

        assert!(
            cache.load_model(&sample_key()).is_some(),
            "write went through"
        );
        assert_eq!(cache.locks_stolen(), 1);
        let diags = cache.take_diagnostics();
        assert!(diags.iter().any(|d| d.code == STALE_LOCK));
        assert!(
            !dir.join("store.lock").exists(),
            "the stolen lock was re-acquired and released cleanly"
        );
    }

    #[test]
    fn live_lock_is_waited_out_not_stolen() {
        let dir = tmpdir("live-lock");
        // Our own pid with a fresh stamp: a live holder. The writer must
        // wait out its bounded retry budget and then degrade to an
        // unlocked (still atomic) write — never steal.
        fs::write(
            dir.join("store.lock"),
            format!("{} {}", std::process::id(), now_micros()),
        )
        .unwrap();

        let cache = PersistentCache::open(&dir).unwrap();
        cache.store_model(&sample_key(), &sample_lts());

        assert!(
            cache.load_model(&sample_key()).is_some(),
            "write degraded, not lost"
        );
        assert_eq!(cache.locks_stolen(), 0);
        assert!(
            dir.join("store.lock").exists(),
            "a live holder's lock is left alone"
        );
    }

    #[test]
    fn unstamped_fresh_lock_is_not_stale() {
        let dir = tmpdir("unstamped-lock");
        let path = dir.join("store.lock");
        // Freshly created but not yet stamped (the holder sits between
        // `create_new` and its first write): within the grace period.
        fs::write(&path, "").unwrap();
        assert!(!lock_is_stale(&path));
        // Garbage content behaves the same as empty.
        fs::write(&path, "not a pid stamp").unwrap();
        assert!(!lock_is_stale(&path));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dead_pid_lock_classifies_as_stale() {
        let dir = tmpdir("dead-pid-lock");
        let path = dir.join("store.lock");
        let child = std::process::Command::new("true")
            .spawn()
            .expect("spawn child");
        let dead_pid = child.id();
        child.wait_with_output().expect("reap child");
        fs::write(&path, format!("{dead_pid} {}", now_micros())).unwrap();
        assert!(lock_is_stale(&path));
        // An ancient stamp is stale even with a live pid (pid reuse).
        fs::write(&path, format!("{} 1", std::process::id())).unwrap();
        assert!(lock_is_stale(&path));
        // A live pid with a fresh stamp is not.
        fs::write(&path, format!("{} {}", std::process::id(), now_micros())).unwrap();
        assert!(!lock_is_stale(&path));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn concurrent_stealers_of_one_dead_lock_yield_one_winner() {
        let dir = tmpdir("steal-race");
        let child = std::process::Command::new("true")
            .spawn()
            .expect("spawn child");
        let dead_pid = child.id();
        child.wait_with_output().expect("reap child");
        fs::write(
            dir.join("store.lock"),
            format!("{dead_pid} {}", now_micros()),
        )
        .unwrap();

        // Eight live contenders all observe the same dead owner and race
        // the steal. The claim protocol must elect exactly one remover;
        // everyone must still make progress (every write lands), and no
        // contender may ever delete a *live* lock re-created by the
        // winner — which would show up as a second steal.
        let stolen: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let dir = &dir;
                    scope.spawn(move || {
                        let cache = PersistentCache::open(dir).unwrap();
                        cache.store_model(&sample_key(), &sample_lts());
                        cache.locks_stolen()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(stolen, 1, "exactly one contender may steal a dead lock");

        let cache = PersistentCache::open(&dir).unwrap();
        assert!(cache.load_model(&sample_key()).is_some(), "writes landed");
        assert!(
            !dir.join("store.lock").exists(),
            "every acquired lock was released cleanly"
        );
        assert_eq!(
            fs::read_dir(&dir)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .starts_with("store.lock.steal-")
                })
                .count(),
            0,
            "no claim files left behind"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn loser_with_stale_observation_leaves_fresh_lock_alone() {
        let dir = tmpdir("steal-abort");
        let path = dir.join("store.lock");
        let child = std::process::Command::new("true")
            .spawn()
            .expect("spawn child");
        let dead_pid = child.id();
        child.wait_with_output().expect("reap child");
        fs::write(&path, format!("{dead_pid} {}", now_micros())).unwrap();

        let cache = PersistentCache::open(&dir).unwrap();
        // Simulate "observed stale, then the winner stole it and a fresh
        // live lock appeared" by swapping the content between this
        // contender's staleness check and its steal attempt.
        let fresh = format!("{} {}", std::process::id(), now_micros());
        fs::write(&path, &fresh).unwrap();
        assert!(
            !cache.steal_stale_lock(&path),
            "a steal against changed content must abort"
        );
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            fresh,
            "the live lock is untouched"
        );
    }

    #[test]
    fn orphaned_steal_claim_is_cleared_not_wedging() {
        let dir = tmpdir("steal-orphan");
        let path = dir.join("store.lock");
        // A dead-owner lock plus an *orphaned* claim for exactly that
        // content (its winner died mid-steal, stamp long in the past).
        fs::write(&path, "1 1").unwrap();
        let claim = dir.join(format!(
            "store.lock.steal-{:016x}",
            fnv1a64("1 1".as_bytes())
        ));
        fs::write(&claim, "1 1").unwrap();

        let cache = PersistentCache::open(&dir).unwrap();
        // First attempt finds the claim held and clears the stale claim;
        // a later attempt then wins it and completes the steal.
        assert!(!cache.steal_stale_lock(&path));
        assert!(!claim.exists(), "the dead stealer's claim was cleared");
        assert!(cache.steal_stale_lock(&path), "progress resumes");
        assert!(!path.exists());
    }
}
