//! The full case study of the paper (§V): the ITU-T X.1373 over-the-air
//! software update between the Vehicle Mobile Gateway and a target ECU.
//!
//! The example walks the complete Fig. 1 workflow and prints a stage table:
//!
//! 1. simulate the CAPL applications on the CAN bus (`canoe-sim`);
//! 2. extract the CSP implementation models (`translator`);
//! 3. check Table III's requirements R01–R04 (`fdrlite`);
//! 4. interpose a Dolev-Yao intruder and show each attack's counterexample;
//! 5. check R05 through the MAC-secured model.
//!
//! Run with: `cargo run --example ota_update`

use std::time::Instant;

use fdrlite::{Checker, RefinementModel};
use ota::{attacks, messages, requirements, secured, sources, system::OtaSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let t_total = Instant::now();

    // ---- 1. Simulate (the "CANoe" stage) -------------------------------
    let t = Instant::now();
    let mut sim = canoe_sim::Simulation::new(Some(messages::database()));
    sim.add_node("VMG", capl::parse(sources::VMG_CAPL)?)?;
    sim.add_node("ECU", capl::parse(sources::ECU_CAPL)?)?;
    sim.run_for(100_000)?;
    println!("== simulated CAN bus trace (Fig. 2 network) ==");
    for entry in sim.trace() {
        if let canoe_sim::TraceEvent::Transmit {
            node, message, id, ..
        } = &entry.event
        {
            println!(
                "  {:>7} µs  {node:>4} → bus  {message} (0x{id:x})",
                entry.time_us
            );
        }
    }
    let sim_us = t.elapsed().as_micros();

    // ---- 2. Extract the models ------------------------------------------
    let t = Instant::now();
    let mut study = OtaSystem::build()?;
    let extract_us = t.elapsed().as_micros();
    println!("\n== extracted CSPm system model ==\n{}", study.script());

    // ---- 3. Check Table III on the honest system ------------------------
    let t = Instant::now();
    let checker = Checker::new();
    println!("== Table III requirements on the honest system ==");
    let reqs = requirements::all(&mut study)?;
    for req in &reqs {
        let verdict =
            checker.trace_refinement(&req.spec, &req.scoped_system, study.definitions())?;
        println!(
            "  {}  {}  — {}",
            req.id,
            if verdict.is_pass() { "PASS" } else { "FAIL" },
            req.text
        );
    }
    let honest_us = t.elapsed().as_micros();

    // ---- 4. Attack scenarios --------------------------------------------
    let t = Instant::now();
    println!("\n== attack scenarios (Dolev-Yao intruder on the update path) ==");
    let scenarios = attacks::scenarios(&mut study)?;
    for sc in &scenarios {
        let verdict = match sc.requirement.model {
            RefinementModel::Traces => checker.trace_refinement(
                &sc.requirement.spec,
                &sc.requirement.scoped_system,
                study.definitions(),
            )?,
            RefinementModel::Failures => checker.failures_refinement(
                &sc.requirement.spec,
                &sc.requirement.scoped_system,
                study.definitions(),
            )?,
            RefinementModel::FailuresDivergences => checker.failures_divergences_refinement(
                &sc.requirement.spec,
                &sc.requirement.scoped_system,
                study.definitions(),
            )?,
        };
        println!("  {:?} attack — {}", sc.kind, sc.description);
        match verdict.counterexample() {
            Some(cex) => println!(
                "    violates {}: {}",
                sc.requirement.id,
                cex.display(study.alphabet())
            ),
            None => println!("    unexpectedly passed"),
        }
    }
    let attacks_us = t.elapsed().as_micros();

    // ---- 5. R05: the shared-key (MAC) model ------------------------------
    let t = Instant::now();
    println!("\n== R05: MAC-secured update path ==");
    for r in secured::check_script(secured::MAC_SCRIPT, &checker)? {
        println!(
            "  assert {}  ...  {}",
            r.description,
            if r.verdict.is_pass() { "PASS" } else { "FAIL" }
        );
    }
    println!("  (without verification:)");
    for r in secured::check_script(secured::INSECURE_SCRIPT, &checker)? {
        println!(
            "  assert {}  ...  {}",
            r.description,
            if r.verdict.is_pass() { "PASS" } else { "FAIL" }
        );
    }
    let r05_us = t.elapsed().as_micros();

    // ---- Stage table (Fig. 1 workflow) ----------------------------------
    println!("\n== workflow stage timings ==");
    println!("  simulate (CANoe substitute)   {sim_us:>8} µs");
    println!("  extract models (translator)   {extract_us:>8} µs");
    println!("  check honest system (FDR sub) {honest_us:>8} µs");
    println!("  check attack scenarios        {attacks_us:>8} µs");
    println!("  check R05 MAC models          {r05_us:>8} µs");
    println!(
        "  total                         {:>8} µs",
        t_total.elapsed().as_micros()
    );
    Ok(())
}
