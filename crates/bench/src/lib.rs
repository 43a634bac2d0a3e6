//! Shared workload generators for the benchmark harness.
//!
//! The paper's evaluation is qualitative (one case study, three tables,
//! three figures); the benches regenerate each artefact and quantify the
//! toolchain costs the paper's §VII-A scalability discussion leaves open.
//! `EXPERIMENTS.md` records the measured numbers next to the paper's
//! claims.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// Generate a CAPL ECU application with `n` request/response message
/// handlers (message names `m0 … m{2n-1}`), used to scale the Fig. 1
/// pipeline benchmarks.
pub fn synthetic_capl(n: usize) -> String {
    let mut out = String::from("variables\n{\n");
    for i in 0..n {
        let _ = writeln!(out, "  message req{i} vReq{i};");
        let _ = writeln!(out, "  message rpt{i} vRpt{i};");
    }
    out.push_str("  int total = 0;\n}\n\n");
    for i in 0..n {
        let _ = writeln!(
            out,
            "on message req{i}\n{{\n  total = total + 1;\n  output(vRpt{i});\n}}\n"
        );
    }
    out
}

/// The CAN database matching [`synthetic_capl`].
pub fn synthetic_dbc(n: usize) -> String {
    let mut out = String::from("BU_: VMG ECU\n");
    for i in 0..n {
        let _ = writeln!(
            out,
            "BO_ {} req{i}: 8 VMG\n SG_ x : 0|8@1+ (1,0) [0|255] \"\" ECU",
            256 + i
        );
        let _ = writeln!(
            out,
            "BO_ {} rpt{i}: 8 ECU\n SG_ x : 0|8@1+ (1,0) [0|255] \"\" VMG",
            512 + i
        );
    }
    out
}

/// A CSPm script with `n` interleaved two-event components — state space
/// `2^n + 1`, counting the unfolded `SYSTEM` root — used for
/// checker-scaling benchmarks.
pub fn interleave_script(n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "channel c : {{0..{}}}.{{0..1}}", n.saturating_sub(1));
    for i in 0..n {
        let _ = writeln!(out, "P{i} = c.{i}.0 -> c.{i}.1 -> P{i}");
    }
    out.push_str("SYSTEM = ");
    let body = (0..n)
        .map(|i| format!("P{i}"))
        .collect::<Vec<_>>()
        .join(" ||| ");
    out.push_str(&body);
    out.push('\n');
    out.push_str("RUN = c?i?v -> RUN\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_capl_parses_and_translates() {
        let src = synthetic_capl(4);
        let dbc = synthetic_dbc(4);
        let pipeline = translator::Pipeline::new(translator::TranslateConfig::ecu("ECU"));
        let out = pipeline.run(&src, Some(&dbc)).unwrap();
        assert!(out.loaded.process("ECU_INIT").is_some(), "{}", out.script);
    }

    #[test]
    fn interleave_script_loads() {
        let loaded = cspm::Script::parse(&interleave_script(3))
            .unwrap()
            .load()
            .unwrap();
        assert!(loaded.process("SYSTEM").is_some());
    }
}
