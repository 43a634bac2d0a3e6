//! High-throughput batch conformance: thousands of traces, one spec walk.
//!
//! The per-trace loop in [`crate::conformance`] pays the full product
//! machinery for every observed trace, even though a fault campaign's
//! traces overwhelmingly share prefixes (same plan, same stimulus, faults
//! diverge late). This module is the streaming batch engine on top of
//! [`fdrlite::hypertrace`]:
//!
//! 1. the specification is normalised **once**, through the shared
//!    [`ModelStore`] (so a warm store serves it from cache);
//! 2. every ingested trace is lifted to event ids and merged into a
//!    hypertrace prefix trie ([`BatchRun::push`] — bounded memory: the
//!    run holds the trie and one verdict slot per trace, never the corpus
//!    text);
//! 3. [`BatchRun::finish`] checks the whole trie in one deterministic DAG
//!    walk, parallelised by sharding subtrees, and recovers per-trace
//!    verdicts from the trie leaves.
//!
//! Verdicts are **verbatim identical** to running
//! [`crate::conformance::check_lifted_with`] on each trace — including
//! counterexample traces and first-unknown-event reporting — at any thread
//! count and for any ingest order (a property test pins this).
//!
//! Corpus files use JSON Lines: one trace per line, either a bare array of
//! event names or an object with an optional `id` and an `events` array.
//! [`parse_corpus`] reports malformed lines as `SIM310` warnings with
//! line/column spans and skips them; [`codes::CORPUS_UNKNOWN_EVENT`]
//! (`SIM311`) and [`codes::CORPUS_EMPTY`] (`SIM312`) cover the other
//! corpus-hygiene findings.

use std::fmt;
use std::time::{Duration, Instant};

use canoe_sim::TraceEntry;
use cspm::LoadedScript;
use diag::json;
use diag::{Diagnostic, Span};
use fdrlite::{hypertrace, Checker, ModelStore, NormalisedLts, Verdict};
use std::sync::Arc;

use crate::codes;
use crate::conformance::{lift_trace, ConformanceError, ConformanceVerdict};
use crate::plan::MapRule;

// ---------------------------------------------------------------------------
// Streaming batch run
// ---------------------------------------------------------------------------

/// A streaming batch-conformance run against one specification process.
///
/// Create with [`BatchRun::new`] (normalises the spec once through the
/// store), [`BatchRun::push`] each lifted trace as it arrives, then
/// [`BatchRun::finish`] for the verdicts. Memory is bounded by the trie —
/// traces sharing prefixes share nodes — plus one verdict slot per trace.
pub struct BatchRun<'a> {
    loaded: &'a LoadedScript,
    spec: String,
    norm: Arc<NormalisedLts>,
    trie: hypertrace::TraceTrie,
    /// One slot per ingested trace; pre-resolved for unknown-event traces
    /// (they never enter the trie), `None` until the walk for the rest.
    resolved: Vec<Option<ConformanceVerdict>>,
    ingest_wall: Duration,
    store_hits: u64,
    store_misses: u64,
}

impl<'a> BatchRun<'a> {
    /// Start a batch run: resolve `spec_name` and normalise it through
    /// `store` (a warm store serves the normal form from cache).
    ///
    /// # Errors
    ///
    /// [`ConformanceError::UnknownSpec`] when the script does not define
    /// `spec_name`; [`ConformanceError::Check`] when normalisation exceeds
    /// the checker's hard bounds.
    pub fn new(
        loaded: &'a LoadedScript,
        spec_name: &str,
        checker: &Checker,
        store: &ModelStore,
    ) -> Result<BatchRun<'a>, ConformanceError> {
        let spec = loaded
            .process(spec_name)
            .ok_or_else(|| ConformanceError::UnknownSpec(spec_name.to_string()))?;
        let hits = store.hits();
        let misses = store.misses();
        let norm = store.normalised(checker, spec, loaded.definitions())?;
        Ok(BatchRun {
            loaded,
            spec: spec_name.to_string(),
            norm,
            trie: hypertrace::TraceTrie::new(),
            resolved: Vec::new(),
            ingest_wall: Duration::ZERO,
            store_hits: store.hits() - hits,
            store_misses: store.misses() - misses,
        })
    }

    /// Ingest one lifted trace; returns its index (ingest order).
    ///
    /// A trace performing an event the model does not name is resolved to
    /// [`ConformanceVerdict::UnknownEvent`] immediately — first unknown
    /// wins, exactly as the per-trace loop reports it — and does not enter
    /// the trie.
    pub fn push(&mut self, events: &[String]) -> usize {
        let start = Instant::now();
        let index = self.resolved.len();
        match self.loaded.event_ids(events.iter().map(String::as_str)) {
            Ok(ids) => {
                self.trie.insert(&ids, index as u32);
                self.resolved.push(None);
            }
            Err((at, event)) => {
                self.resolved.push(Some(ConformanceVerdict::UnknownEvent {
                    event: event.to_string(),
                    index: at,
                }));
            }
        }
        self.ingest_wall += start.elapsed();
        index
    }

    /// Lift a raw simulation trace through `rules` and ingest it; returns
    /// the trace index and the lifted event names.
    pub fn push_entries(
        &mut self,
        trace: &[TraceEntry],
        rules: &[MapRule],
    ) -> (usize, Vec<String>) {
        let events = lift_trace(trace, rules);
        let index = self.push(&events);
        (index, events)
    }

    /// Number of traces ingested so far.
    pub fn len(&self) -> usize {
        self.resolved.len()
    }

    /// Whether no trace has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.resolved.is_empty()
    }

    /// Check the whole hypertrace in one DAG walk (sharded over `threads`
    /// workers) and recover per-trace verdicts, in ingest order.
    pub fn finish(self, threads: usize) -> BatchReport {
        let start = Instant::now();
        let walked = hypertrace::check(&self.norm, &self.trie, threads.max(1));
        let check_wall = start.elapsed();

        let mut verdicts: Vec<ConformanceVerdict> = self
            .resolved
            .into_iter()
            .map(|slot| slot.unwrap_or(ConformanceVerdict::Conformant))
            .collect();
        for (tag, verdict) in walked {
            verdicts[tag as usize] = match verdict {
                Verdict::Pass => ConformanceVerdict::Conformant,
                Verdict::Fail(cex) => ConformanceVerdict::Refuted(Box::new(cex)),
                // The walk is bounded by the trie; no budget can trip. Kept
                // total so a future budgeted walk stays representable.
                Verdict::Inconclusive(inc) => ConformanceVerdict::Inconclusive(inc),
            };
        }

        let mut conformant = 0u64;
        let mut refuted = 0u64;
        let mut unknown_event = 0u64;
        for v in &verdicts {
            match v {
                ConformanceVerdict::Conformant => conformant += 1,
                ConformanceVerdict::Refuted(_) => refuted += 1,
                ConformanceVerdict::UnknownEvent { .. } => unknown_event += 1,
                ConformanceVerdict::Inconclusive(_) => {}
            }
        }
        let stats = BatchStats {
            threads: threads.max(1),
            traces: verdicts.len() as u64,
            conformant,
            refuted,
            unknown_event,
            total_events: self.trie.total_events(),
            trie_nodes: self.trie.node_count() as u64,
            dedup_ratio: self.trie.dedup_ratio(),
            norm_nodes: self.norm.node_count() as u64,
            store_hits: self.store_hits,
            store_misses: self.store_misses,
            ingest_wall: self.ingest_wall,
            check_wall,
        };
        BatchReport {
            spec: self.spec,
            verdicts,
            stats,
        }
    }
}

/// The outcome of a [`BatchRun`]: per-trace verdicts in ingest order plus
/// run-level statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// The specification process checked against.
    pub spec: String,
    /// One verdict per ingested trace, in ingest order.
    pub verdicts: Vec<ConformanceVerdict>,
    /// Dedup/throughput counters for `--stats` and the bench harness.
    pub stats: BatchStats,
}

/// Counters and timings from one batch-conformance run, printable for
/// humans (`autocsp conform --stats`) and serialisable as JSON for the
/// benchmark harness — the [`fdrlite::CheckStats`] idiom for the batch
/// pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Worker threads used for the trie walk.
    pub threads: usize,
    /// Traces ingested.
    pub traces: u64,
    /// Traces that are traces of the specification.
    pub conformant: u64,
    /// Traces the specification refuses.
    pub refuted: u64,
    /// Traces performing an event the model does not name.
    pub unknown_event: u64,
    /// Sum of ingested trace lengths (events before deduplication).
    pub total_events: u64,
    /// Trie nodes, including the root (`trie_nodes - 1` distinct prefixes).
    pub trie_nodes: u64,
    /// Ingested events per distinct trie edge (≥ 1; higher = more sharing).
    pub dedup_ratio: f64,
    /// Nodes of the spec's normal form.
    pub norm_nodes: u64,
    /// Compiled artifacts served from the model store while normalising.
    pub store_hits: u64,
    /// Compiled artifacts the model store had to build fresh.
    pub store_misses: u64,
    /// Wall-clock time spent lifting/interning/merging traces.
    pub ingest_wall: Duration,
    /// Wall-clock time of the trie walk (including verdict recovery).
    pub check_wall: Duration,
}

impl BatchStats {
    /// End-to-end throughput: traces per second of ingest + walk wall time
    /// (spec normalisation is a one-off and excluded).
    pub fn traces_per_sec(&self) -> f64 {
        let secs = (self.ingest_wall + self.check_wall).as_secs_f64();
        if secs > 0.0 {
            self.traces as f64 / secs
        } else {
            0.0
        }
    }

    /// Render as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        diag::json::object(|w| {
            w.key("threads").number(self.threads);
            w.key("traces").number(self.traces);
            w.key("conformant").number(self.conformant);
            w.key("refuted").number(self.refuted);
            w.key("unknown_event").number(self.unknown_event);
            w.key("total_events").number(self.total_events);
            w.key("trie_nodes").number(self.trie_nodes);
            w.key("dedup_ratio")
                .number(format_args!("{:.3}", self.dedup_ratio));
            w.key("norm_nodes").number(self.norm_nodes);
            w.key("store_hits").number(self.store_hits);
            w.key("store_misses").number(self.store_misses);
            w.key("ingest_us").number(self.ingest_wall.as_micros());
            w.key("check_us").number(self.check_wall.as_micros());
            w.key("traces_per_sec")
                .number(format_args!("{:.1}", self.traces_per_sec()));
        })
    }
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} trace(s) ({:.0}/s), {} event(s) deduped into {} trie node(s) \
             (×{:.2} sharing), norm {} node(s), wall {:.3} ms (ingest {:.3} + walk {:.3}), \
             store {}/{} hit, {} thread(s)",
            self.traces,
            self.traces_per_sec(),
            self.total_events,
            self.trie_nodes,
            self.dedup_ratio,
            self.norm_nodes,
            (self.ingest_wall + self.check_wall).as_secs_f64() * 1e3,
            self.ingest_wall.as_secs_f64() * 1e3,
            self.check_wall.as_secs_f64() * 1e3,
            self.store_hits,
            self.store_hits + self.store_misses,
            self.threads,
        )
    }
}

// ---------------------------------------------------------------------------
// JSONL corpus ingest
// ---------------------------------------------------------------------------

/// One parsed corpus line: an optional caller-facing id plus the lifted
/// event names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusLine {
    /// The object form's `id` field, when present.
    pub id: Option<String>,
    /// The trace's event names, in order.
    pub events: Vec<String>,
}

/// Parse one JSONL corpus line: `["e1","e2"]` or
/// `{"id":"…","events":["e1","e2"]}` (unknown object keys are ignored).
///
/// # Errors
///
/// `(column, message)` of the first syntax or shape problem (1-based).
pub fn parse_trace_line(line: &str) -> Result<CorpusLine, (u32, String)> {
    let value = json::parse(line).map_err(|e| (e.col, e.message))?;
    match value {
        json::Value::Array(items) => Ok(CorpusLine {
            id: None,
            events: event_names(items)?,
        }),
        json::Value::Object(fields) => {
            let mut id = None;
            let mut events = None;
            for (key, value) in fields {
                match (key.as_str(), value) {
                    ("id", json::Value::String(s)) => id = Some(s),
                    ("id", _) => return Err((1, "`id` must be a string".into())),
                    ("events", json::Value::Array(items)) => {
                        events = Some(event_names(items)?);
                    }
                    ("events", _) => {
                        return Err((1, "`events` must be an array of strings".into()));
                    }
                    _ => {} // forward compatibility: ignore unknown keys
                }
            }
            match events {
                Some(events) => Ok(CorpusLine { id, events }),
                None => Err((1, "object form needs an `events` array".into())),
            }
        }
        _ => Err((
            1,
            "expected a JSON array of event names or an object with an `events` array".into(),
        )),
    }
}

fn event_names(items: Vec<json::Value>) -> Result<Vec<String>, (u32, String)> {
    items
        .into_iter()
        .enumerate()
        .map(|(i, v)| match v {
            json::Value::String(s) => Ok(s),
            _ => Err((1, format!("event #{i} is not a string"))),
        })
        .collect()
}

/// Parse a whole JSONL corpus. Blank lines are skipped; a malformed line
/// is reported as a `SIM310` warning (with its line/column span) and
/// skipped, so one bad line does not sink a five-thousand-trace corpus.
///
/// Returns `(line_number, trace)` pairs in file order plus the
/// diagnostics.
pub fn parse_corpus(source: &str) -> (Vec<(u32, CorpusLine)>, Vec<Diagnostic>) {
    let mut traces = Vec::new();
    let mut diagnostics = Vec::new();
    for (i, line) in source.lines().enumerate() {
        let line_no = (i + 1) as u32;
        if line.trim().is_empty() {
            continue;
        }
        match parse_trace_line(line) {
            Ok(trace) => traces.push((line_no, trace)),
            Err((col, message)) => diagnostics.push(
                Diagnostic::warning(
                    codes::CORPUS_LINE_MALFORMED,
                    Span::point(line_no, col),
                    format!("malformed trace line: {message}"),
                )
                .with_note(
                    "the line is skipped; expected [\"e1\",\"e2\"] or \
                     {\"id\":\"…\",\"events\":[\"e1\",\"e2\"]}",
                ),
            ),
        }
    }
    (traces, diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::check_lifted_with;

    fn loaded(script: &str) -> LoadedScript {
        cspm::Script::parse(script).unwrap().load().unwrap()
    }

    const MODEL: &str = "
datatype M = req | rpt
channel rec, send : M
SPEC = rec.req -> send.rpt -> SPEC
";

    fn corpus() -> Vec<Vec<String>> {
        let raw: &[&[&str]] = &[
            &[],
            &["rec.req"],
            &["rec.req", "send.rpt"],
            &["rec.req", "send.rpt", "rec.req"],
            &["rec.req", "send.rpt", "send.rpt"],
            &["send.rpt"],
            &["rec.req", "mystery.7"],
            &["mystery.7", "send.rpt"],
        ];
        raw.iter()
            .map(|t| t.iter().map(ToString::to_string).collect())
            .collect()
    }

    #[test]
    fn batch_matches_the_sequential_loop_verbatim() {
        let loaded = loaded(MODEL);
        let checker = Checker::new();
        for threads in [1, 8] {
            let store = ModelStore::new();
            let mut run = BatchRun::new(&loaded, "SPEC", &checker, &store).unwrap();
            for trace in corpus() {
                run.push(&trace);
            }
            let report = run.finish(threads);
            let sequential = ModelStore::new();
            for (i, trace) in corpus().iter().enumerate() {
                let expected = check_lifted_with(&loaded, "SPEC", trace, &checker, &sequential)
                    .unwrap()
                    .verdict;
                assert_eq!(
                    report.verdicts[i], expected,
                    "trace #{i}, {threads} thread(s)"
                );
            }
        }
    }

    #[test]
    fn stats_count_verdicts_and_sharing() {
        let loaded = loaded(MODEL);
        let checker = Checker::new();
        let store = ModelStore::new();
        let mut run = BatchRun::new(&loaded, "SPEC", &checker, &store).unwrap();
        for trace in corpus() {
            run.push(&trace);
        }
        let report = run.finish(1);
        let s = &report.stats;
        assert_eq!(s.traces, 8);
        // SPEC is cyclic, so ⟨req, rpt, req⟩ conforms too.
        assert_eq!(s.conformant, 4);
        assert_eq!(s.refuted, 2);
        assert_eq!(s.unknown_event, 2);
        assert!(s.dedup_ratio > 1.0, "shared ⟨rec.req, send.rpt⟩ prefix");
        assert!(s.norm_nodes >= 2);
        let json = s.to_json();
        for key in [
            "\"traces\":8",
            "\"conformant\":4",
            "\"refuted\":2",
            "\"unknown_event\":2",
            "\"dedup_ratio\":",
            "\"ingest_us\":",
            "\"check_us\":",
            "\"traces_per_sec\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = s.to_string();
        assert!(text.contains("8 trace(s)"), "{text}");
    }

    #[test]
    fn spec_normalises_once_and_warm_stores_hit() {
        let loaded = loaded(MODEL);
        let checker = Checker::new();
        let store = ModelStore::new();
        let first = BatchRun::new(&loaded, "SPEC", &checker, &store).unwrap();
        assert_eq!(first.store_hits, 0);
        assert!(first.store_misses > 0);
        let second = BatchRun::new(&loaded, "SPEC", &checker, &store).unwrap();
        assert!(
            second.store_hits > 0,
            "warm store must serve the normal form"
        );
        assert_eq!(second.store_misses, 0);
    }

    #[test]
    fn unknown_spec_is_an_error() {
        let loaded = loaded(MODEL);
        let Err(err) = BatchRun::new(&loaded, "NOPE", &Checker::new(), &ModelStore::new()) else {
            panic!("unknown spec must not start a run")
        };
        assert!(matches!(err, ConformanceError::UnknownSpec(_)));
    }

    #[test]
    fn jsonl_lines_parse_in_both_shapes() {
        assert_eq!(
            parse_trace_line(r#"["rec.req","send.rpt"]"#).unwrap(),
            CorpusLine {
                id: None,
                events: vec!["rec.req".into(), "send.rpt".into()],
            }
        );
        assert_eq!(
            parse_trace_line(r#"{"id":"run-1","events":["rec.req"],"meta":{"n":1}}"#).unwrap(),
            CorpusLine {
                id: Some("run-1".into()),
                events: vec!["rec.req".into()],
            }
        );
        assert_eq!(
            parse_trace_line(r#"{"events":[]}"#).unwrap().events,
            Vec::<String>::new()
        );
        assert_eq!(
            parse_trace_line(r#"["escé\n"]"#).unwrap().events,
            vec!["escé\n".to_string()]
        );
    }

    #[test]
    fn jsonl_rejects_malformed_lines_with_columns() {
        for (line, expect) in [
            ("", "expected a JSON value"),
            ("[1]", "not a string"),
            ("\"just-a-string\"", "expected a JSON array"),
            ("{\"id\":\"x\"}", "needs an `events` array"),
            ("[\"a\",]", "expected a JSON value"),
            ("[\"a\" \"b\"]", "expected `,` or `]`"),
            ("[\"unterminated]", "unterminated string"),
        ] {
            let (col, message) = parse_trace_line(line).unwrap_err();
            assert!(message.contains(expect), "`{line}`: {message}");
            assert!(col >= 1);
        }
    }

    #[test]
    fn corpus_parse_skips_bad_lines_with_sim310() {
        let source = "[\"rec.req\"]\n\nnot json\n{\"events\":[\"send.rpt\"]}\n";
        let (traces, diagnostics) = parse_corpus(source);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].0, 1);
        assert_eq!(traces[1].0, 4);
        assert_eq!(diagnostics.len(), 1);
        assert_eq!(diagnostics[0].code, codes::CORPUS_LINE_MALFORMED);
        assert_eq!(diagnostics[0].span.line, 3);
    }
}
