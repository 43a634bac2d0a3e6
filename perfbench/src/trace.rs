//! In-memory span recorder for the traced run. Spans are recorded around
//! each call the benchmark makes into a layer's public functions, kept in
//! memory while the run is timed, and written as JSONL when it ends. The
//! field names (`trace_id`, `layer`, `phase`, `start_us`, `dur_us`,
//! `counters`) are the schema an in-program span stream can adopt.
//!
//! The benchmark's spans never nest: each covers one call made directly
//! by an operation, so a span's self time is its duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub trace_id: u64,
    pub layer: &'static str,
    pub phase: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    pub counters: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f`, recording a span for it when tracing is on.
    pub fn time<T>(
        &mut self,
        trace_id: u64,
        layer: &'static str,
        phase: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(trace_id, layer, phase, start, Vec::new());
        out
    }

    /// Record a span that started at `start` and ends now.
    pub fn record(
        &mut self,
        trace_id: u64,
        layer: &'static str,
        phase: &'static str,
        start: Instant,
        counters: Vec<(&'static str, f64)>,
    ) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        self.spans.push(Span {
            trace_id,
            layer,
            phase,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            counters,
        });
    }

    /// Attach counters to the most recent span.
    pub fn count(&mut self, counters: &[(&'static str, f64)]) {
        if let Some(span) = self.spans.last_mut() {
            span.counters.extend_from_slice(counters);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("{}:{}", diag::json_string(k), num(*v)))
                .collect();
            let _ = writeln!(
                out,
                "{{\"trace_id\":{},\"layer\":{},\"phase\":{},\"start_us\":{},\"dur_us\":{},\"counters\":{{{}}}}}",
                s.trace_id,
                diag::json_string(s.layer),
                diag::json_string(s.phase),
                num(s.start_us),
                num(s.dur_us),
                counters.join(",")
            );
        }
        out
    }

    /// Total span time (µs) and counter sums, per `layer.phase`.
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(format!("{}.{}", s.layer, s.phase)).or_default();
            t.us += s.dur_us;
            t.calls += 1;
            for (k, v) in &s.counters {
                *t.counters.entry(k).or_default() += v;
            }
        }
        out
    }
}

#[derive(Default)]
pub struct Totals {
    pub us: f64,
    pub calls: u64,
    pub counters: BTreeMap<&'static str, f64>,
}

/// A finite JSON number with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}
