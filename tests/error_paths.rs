//! Error-path coverage across the toolchain: the failure modes a user hits
//! must come back as typed errors with actionable messages, never panics.

use fdrlite::Checker;
use translator::{Pipeline, TranslateConfig};

#[test]
fn cspm_reports_positions_for_syntax_errors() {
    let err = cspm::Script::parse("P = a ->\n-> b").unwrap_err();
    let text = err.to_string();
    assert!(text.contains("parse error"), "{text}");
    assert!(text.contains("2:"), "position missing: {text}");
}

#[test]
fn cspm_reports_unknown_names_with_the_name() {
    let err = cspm::Script::parse("P = ghost -> STOP")
        .unwrap()
        .load()
        .unwrap_err();
    assert!(err.to_string().contains("ghost"), "{err}");
}

#[test]
fn cspm_reports_channel_arity_misuse() {
    let err = cspm::Script::parse("channel c : {0..1}\nP = c.0.1 -> STOP")
        .unwrap()
        .load()
        .unwrap_err();
    assert!(err.to_string().contains("too many fields"), "{err}");
}

#[test]
fn cspm_rejects_value_where_process_expected() {
    let err = cspm::Script::parse("N = 3\nchannel a\nP = a -> N")
        .unwrap()
        .load()
        .unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("process") && text.contains("integer"),
        "{text}"
    );
}

#[test]
fn capl_reports_positions() {
    let err = capl::parse("on start {\n  x = ;\n}").unwrap_err();
    let text = err.to_string();
    assert!(text.contains("2:"), "{text}");
}

#[test]
fn dbc_reports_line_numbers() {
    let err = candb::parse("BU_: A\nBO_ 1 m: 8 A\n SG_ broken : zz").unwrap_err();
    assert_eq!(err.line, 3);
}

#[test]
fn checker_bounds_come_back_as_errors_not_panics() {
    let checker = Checker {
        max_states: 3,
        ..Checker::new()
    };
    let defs = csp::Definitions::new();
    let chain =
        csp::Process::prefix_chain((0..10).map(csp::EventId::from_index), csp::Process::Stop);
    let err = checker.compile(&chain, &defs).unwrap_err();
    assert!(err.to_string().contains("state space"), "{err}");
}

#[test]
fn unguarded_recursion_is_reported() {
    let mut defs = csp::Definitions::new();
    let d = defs.declare("P");
    defs.define(d, csp::Process::var(d));
    let err = Checker::new()
        .deadlock_free(&csp::Process::var(d), &defs)
        .unwrap_err();
    assert!(err.to_string().contains("unguarded"), "{err}");
}

#[test]
fn internal_errors_carry_the_panic_message_and_worker() {
    let with_worker = fdrlite::CheckError::Internal {
        message: "index out of bounds".to_owned(),
        worker: Some(3),
    };
    let text = with_worker.to_string();
    assert!(text.contains("internal checker error"), "{text}");
    assert!(text.contains("worker 3"), "{text}");
    assert!(text.contains("index out of bounds"), "{text}");

    let from_join = fdrlite::CheckError::Internal {
        message: "scope join".to_owned(),
        worker: None,
    };
    let text = from_join.to_string();
    assert!(text.contains("internal checker error"), "{text}");
    assert!(!text.contains("worker"), "no index when unknown: {text}");
    assert!(text.contains("scope join"), "{text}");
}

#[test]
fn pipeline_surfaces_semantic_diagnostics_without_failing() {
    // Undeclared variables are diagnostics, not hard failures: the model is
    // still produced (the variable is simply absent from the state vector).
    let pipeline = Pipeline::new(TranslateConfig::ecu("ECU"));
    let out = pipeline
        .run(
            "variables { message reqSw a; } on message reqSw { ghost = 1; }",
            None,
        )
        .unwrap();
    assert!(out
        .lints
        .capl
        .iter()
        .any(|d| d.severity == capl::Severity::Error && d.message.contains("ghost")));
}

#[test]
fn simulator_attributes_runtime_errors_to_the_node() {
    let mut sim = canoe_sim::Simulation::new(None);
    sim.add_node("CRASHY", capl::parse("on start { x = 1 / 0; }").unwrap())
        .unwrap();
    // Division by zero is only reached if `x` resolves; make it a local.
    let mut sim2 = canoe_sim::Simulation::new(None);
    sim2.add_node(
        "CRASHY",
        capl::parse("variables { int x; } on start { x = 1 / 0; }").unwrap(),
    )
    .unwrap();
    let err = sim2.run_for(1000).unwrap_err();
    assert!(err.to_string().contains("CRASHY"), "{err}");
    assert!(err.to_string().contains("division"), "{err}");
    drop(sim);
}

#[test]
fn intruder_rejects_oversized_message_spaces() {
    let result = std::panic::catch_unwind(|| {
        let mut ab = csp::Alphabet::new();
        let mut defs = csp::Definitions::new();
        let names: Vec<String> = (0..20).map(|i| format!("m{i}")).collect();
        let mut b = secmod::Intruder::builder("EVE");
        for n in &names {
            b = b.message(n);
        }
        b.build(&mut ab, &mut defs)
    });
    assert!(result.is_err(), "17+ messages must be rejected");
}

#[test]
fn template_errors_name_the_missing_attribute() {
    let t = sttpl::Template::parse("$missing$").unwrap();
    let err = t.render(&sttpl::Value::map()).unwrap_err();
    assert!(err.to_string().contains("missing"), "{err}");
}

#[test]
fn normalisation_bound_is_reported() {
    // A spec whose subset construction exceeds a tiny bound.
    let checker = Checker {
        max_norm_nodes: 2,
        ..Checker::new()
    };
    let defs = csp::Definitions::new();
    let spec = csp::Process::prefix_chain((0..6).map(csp::EventId::from_index), csp::Process::Stop);
    let err = checker
        .trace_refinement(&spec, &spec.clone(), &defs)
        .unwrap_err();
    assert!(err.to_string().contains("normalisation"), "{err}");
}
