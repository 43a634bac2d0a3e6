//! Seeded input generators. The programs under test receive only the text
//! these functions produce (CAPL, `.dbc`, CSPm, `jobs.toml`, JSONL), and
//! every input carries the verdict its generator planted, so correctness
//! is judged against the generator, never against the engine.

use std::fmt::Write as _;

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1_u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// `n` draws in `[0, 1)`, one from each of `n` equal strata, in seeded
/// order. Every seed then yields the same size distribution up to a
/// jitter within one stratum, so p50/p90 do not move with the seed while
/// the individual inputs still differ.
pub fn stratified(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut draws: Vec<f64> = (0..n).map(|k| (k as f64 + rng.unit()) / n as f64).collect();
    rng.shuffle(&mut draws);
    draws
}

/// `n` labels with exact shares: `counts[k]` copies of label `k` per block
/// of `sum(counts)`, shuffled.
pub fn exact_mix(rng: &mut Rng, n: usize, counts: &[usize]) -> Vec<usize> {
    let block: usize = counts.iter().sum();
    let mut labels: Vec<usize> = (0..n)
        .map(|i| {
            let mut slot = i % block;
            counts
                .iter()
                .position(|&c| {
                    if slot < c {
                        true
                    } else {
                        slot -= c;
                        false
                    }
                })
                .expect("slot inside the block")
        })
        .collect();
    rng.shuffle(&mut labels);
    labels
}

/// FNV-1a, folded over the inputs and the verdicts to fingerprint a run.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(&[0x1e]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What the generator planted for one check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The check passes; for a model checked against a one-node spec, the
    /// product has exactly this many pairs.
    Pass { pairs: Option<u64> },
    /// The check fails with exactly this rendered counterexample.
    Fail(String),
}

impl Expect {
    pub fn label(&self) -> String {
        match self {
            Expect::Pass { .. } => "PASS".to_owned(),
            Expect::Fail(cex) => format!("FAIL {cex}"),
        }
    }
}

fn forbids(trace: &[String], event: &str) -> String {
    format!(
        "after ⟨{}⟩, the implementation performs `{event}` which the specification forbids",
        trace.join(", ")
    )
}

// ---------------------------------------------------------------- Fig. 1

/// One CAPL ECU application with its network database and the
/// request/response specification it is checked against.
pub struct CaplApp {
    pub capl: String,
    pub dbc: String,
    pub spec: String,
    pub expect: Expect,
}

/// An ECU answering `handlers` request messages. A handler body is one of
/// three shapes (counter update, state-dependent reset, plain reply); a
/// `defective` app has one handler that answers with the wrong report.
pub fn capl_app(rng: &mut Rng, handlers: usize, defective: bool) -> CaplApp {
    let mut capl = String::from("variables\n{\n");
    let mut dbc = String::from("BU_: VMG ECU\n");
    for i in 0..handlers {
        let _ = writeln!(capl, "  message req{i} vReq{i};\n  message rpt{i} vRpt{i};");
        let _ = writeln!(
            dbc,
            "BO_ {} req{i}: 8 VMG\n SG_ kind{i} : 0|8@1+ (1,0) [0|255] \"\" ECU",
            256 + i
        );
        let _ = writeln!(
            dbc,
            "BO_ {} rpt{i}: 8 ECU\n SG_ status{i} : 0|8@1+ (1,0) [0|255] \"\" VMG",
            1024 + i
        );
    }
    capl.push_str("  int total = 0;\n}\n\n");
    let bad = defective.then(|| {
        let at = rng.range(0, handlers - 1);
        let answer = (at + rng.range(1, handlers - 1)) % handlers;
        (at, answer)
    });
    for i in 0..handlers {
        let reply = match bad {
            Some((at, answer)) if at == i => answer,
            _ => i,
        };
        let body = match rng.range(0, 2) {
            0 => format!("  total = total + 1;\n  output(vRpt{reply});"),
            1 => format!("  if (total > 1)\n  {{\n    total = 0;\n  }}\n  output(vRpt{reply});"),
            _ => format!("  output(vRpt{reply});"),
        };
        let _ = writeln!(capl, "on message req{i}\n{{\n{body}\n}}\n");
    }
    let spec = (0..handlers)
        .map(|i| format!("rec.req{i} -> send.rpt{i} -> SPEC"))
        .collect::<Vec<_>>()
        .join("\n  [] ");
    let expect = match bad {
        Some((at, answer)) => Expect::Fail(forbids(
            &[format!("rec.req{at}")],
            &format!("send.rpt{answer}"),
        )),
        None => Expect::Pass { pairs: None },
    };
    CaplApp {
        capl,
        dbc,
        spec: format!("SPEC = {spec}\n"),
        expect,
    }
}

// ------------------------------------------------ X.1373 dialogue models

/// One VMG ∥ ECU update dialogue of `len` messages; with `intruder` the
/// VMG's side goes through a relaying intruder on a hidden channel.
#[derive(Clone, Copy)]
pub struct Dialogue {
    pub len: usize,
    pub intruder: bool,
}

impl Dialogue {
    /// States of the composed dialogue: the unfolded initial term plus one
    /// per message (two with the intruder's relay hop).
    pub fn states(self) -> u64 {
        let per_msg = if self.intruder { 2 } else { 1 };
        (per_msg * self.len + 1) as u64
    }
}

/// A planted defect on one dialogue, `at` messages in.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// The ECU can emit the unspecified event `forged`.
    Forged { comp: usize, at: usize },
    /// The ECU can loop on a hidden event: a τ-loop.
    TauLoop { comp: usize, at: usize },
}

/// Draw `k_lo..=k_hi` dialogues, `intruders` of them relayed through an
/// intruder, whose product size is as close as the seed allows to
/// `target` pairs.
pub fn dialogues_near(
    rng: &mut Rng,
    target: f64,
    (k_lo, k_hi): (usize, usize),
    intruders: usize,
) -> Vec<Dialogue> {
    let mut best: Option<(f64, Vec<Dialogue>)> = None;
    for _ in 0..96 {
        let k = rng.range(k_lo, k_hi);
        let relayed = rng.range(0, k - 1);
        let comps: Vec<Dialogue> = (0..k)
            .map(|i| Dialogue {
                len: rng.range(2, 9),
                intruder: (i + k - relayed) % k < intruders,
            })
            .collect();
        let size: f64 = comps.iter().map(|d| d.states() as f64).product();
        let miss = (size.ln() - target.ln()).abs();
        if best.as_ref().is_none_or(|(m, _)| miss < *m) {
            best = Some((miss, comps));
        }
    }
    best.expect("at least one draw").1
}

pub fn product_states(comps: &[Dialogue]) -> u64 {
    comps.iter().map(|d| d.states()).product()
}

/// CSPm for the interleaved dialogues (`SYSTEM`, plus `BAD` when a defect
/// is planted) and the three one-node specifications: `RUN` (traces),
/// `CHAOS` and the nondeterministic `NRUN` (failures; every stable state
/// must offer something).
pub fn dialogue_script(comps: &[Dialogue], defect: Option<Defect>) -> String {
    let mut s = String::new();
    for (i, d) in comps.iter().enumerate() {
        let top = d.len - 1;
        let _ = writeln!(s, "channel c{i} : {{0..{top}}}");
        if d.intruder {
            let _ = writeln!(s, "channel u{i} : {{0..{top}}}");
        }
    }
    if defect.is_some() {
        s.push_str("channel forged, h\n");
    }
    for (i, d) in comps.iter().enumerate() {
        let l = d.len;
        let step = format!("c{i}.j -> E{i}((j+1)%{l})");
        let _ = writeln!(s, "V{i}(j) = c{i}.j -> V{i}((j+1)%{l})");
        let _ = writeln!(s, "E{i}(j) = {step}");
        if d.intruder {
            let _ = writeln!(s, "W{i}(j) = u{i}.j -> W{i}((j+1)%{l})");
            let _ = writeln!(s, "N{i}(j) = u{i}.j -> c{i}.j -> N{i}((j+1)%{l})");
        }
        let ecu = |e: &str| {
            if d.intruder {
                format!("((W{i}(0) [| {{| u{i} |}} |] N{i}(0)) [| {{| c{i} |}} |] {e}(0)) \\ {{| u{i} |}}")
            } else {
                format!("V{i}(0) [| {{| c{i} |}} |] {e}(0)")
            }
        };
        let _ = writeln!(s, "D{i} = {}", ecu(&format!("E{i}")));
        match defect {
            Some(Defect::Forged { comp, at }) if comp == i => {
                let _ = writeln!(
                    s,
                    "R{i}(j) = if j == {at} then (forged -> R{i}(j) [] c{i}.j -> R{i}((j+1)%{l})) else c{i}.j -> R{i}((j+1)%{l})"
                );
                let _ = writeln!(s, "B{i} = {}", ecu(&format!("R{i}")));
            }
            Some(Defect::TauLoop { comp, at }) if comp == i => {
                let _ = writeln!(
                    s,
                    "R{i}(j) = if j == {at} then (h -> R{i}(j) [] c{i}.j -> R{i}((j+1)%{l})) else c{i}.j -> R{i}((j+1)%{l})"
                );
                let _ = writeln!(s, "B{i} = ({}) \\ {{h}}", ecu(&format!("R{i}")));
            }
            _ => {}
        }
    }
    let all = |name: &dyn Fn(usize) -> String| {
        (0..comps.len()).map(name).collect::<Vec<_>>().join(" ||| ")
    };
    let _ = writeln!(s, "SYSTEM = {}", all(&|i| format!("D{i}")));
    if let Some(Defect::Forged { comp, .. } | Defect::TauLoop { comp, .. }) = defect {
        let _ = writeln!(
            s,
            "BAD = {}",
            all(&|i| if i == comp {
                format!("B{i}")
            } else {
                format!("D{i}")
            })
        );
    }
    let offers = |tail: &str| {
        (0..comps.len())
            .map(|i| format!("c{i}?j -> {tail}"))
            .collect::<Vec<_>>()
            .join(" [] ")
    };
    let _ = writeln!(s, "RUN = {}", offers("RUN"));
    let _ = writeln!(s, "CHAOS = STOP |~| ({})", offers("CHAOS"));
    let nrun = comps
        .iter()
        .enumerate()
        .map(|(i, d)| format!("(|~| j : {{0..{}}} @ c{i}.j -> NRUN)", d.len - 1))
        .collect::<Vec<_>>()
        .join(" |~| ");
    let _ = writeln!(s, "NRUN = {nrun}");
    s
}

/// The refinement a dialogue check asserts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Model {
    Traces,
    Failures,
    FailuresDivergences,
}

impl Model {
    pub const ALL: [Model; 3] = [Model::Traces, Model::Failures, Model::FailuresDivergences];

    /// `spec [X= impl_`, as the assertion renders.
    pub fn assertion(self, impl_: &str) -> String {
        match self {
            Model::Traces => format!("RUN [T= {impl_}"),
            Model::Failures => format!("CHAOS [F= {impl_}"),
            Model::FailuresDivergences => format!("NRUN [FD= {impl_}"),
        }
    }
}

/// The counterexample a planted defect produces: the defective dialogue's
/// own first `at` messages, then the defect. No shorter trace reaches it,
/// and no other trace of that length does.
pub fn defect_cex(defect: Defect) -> String {
    let (Defect::Forged { comp, at } | Defect::TauLoop { comp, at }) = defect;
    let trace: Vec<String> = (0..at).map(|j| format!("c{comp}.{j}")).collect();
    match defect {
        Defect::Forged { .. } => forbids(&trace, "forged"),
        Defect::TauLoop { .. } => format!(
            "after ⟨{}⟩, the implementation can diverge",
            trace.join(", ")
        ),
    }
}

/// A defect compatible with `model`: a τ-loop is only observable under
/// `[FD=`, a forged event under all three.
pub fn plant(rng: &mut Rng, comps: &[Dialogue], model: Model) -> Defect {
    let comp = rng.range(0, comps.len() - 1);
    let at = rng.range(0, comps[comp].len - 1);
    if model == Model::FailuresDivergences {
        Defect::TauLoop { comp, at }
    } else {
        Defect::Forged { comp, at }
    }
}

/// A random walk of `SYSTEM`: each step advances one dialogue by one
/// message. With `violate`, the walk ends with a message that skips
/// ahead in its dialogue, which `SYSTEM` refuses.
pub fn corpus_trace(
    rng: &mut Rng,
    comps: &[Dialogue],
    steps: usize,
    violate: bool,
) -> (Vec<String>, Option<String>) {
    let mut pos = vec![0_usize; comps.len()];
    let mut events = Vec::with_capacity(steps + 1);
    for _ in 0..steps {
        let i = rng.range(0, comps.len() - 1);
        events.push(format!("c{i}.{}", pos[i]));
        pos[i] = (pos[i] + 1) % comps[i].len;
    }
    if !violate {
        return (events, None);
    }
    let i = rng.range(0, comps.len() - 1);
    let skipped = format!("c{i}.{}", (pos[i] + 1) % comps[i].len);
    let cex = forbids(&events, &skipped);
    events.push(skipped);
    (events, Some(cex))
}
