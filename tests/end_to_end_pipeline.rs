//! Fig. 1 reproduction: the complete workflow — ECU application code in the
//! (simulated) IDE, model extraction, composition with specification and
//! attacker models, refinement checking, counterexample feedback.

use auto_csp::fdrlite::Checker;
use auto_csp::ota::{messages, sources};
use translator::{Pipeline, TranslateConfig};

#[test]
fn the_workflow_of_fig1_runs_end_to_end() {
    // (1) ECU application created in the IDE → exported source + network db.
    let capl_source = sources::ECU_CAPL;
    let dbc_source = messages::NETWORK_DBC;

    // (2) Model extractor translates the application into CSPm.
    let pipeline = Pipeline::new(TranslateConfig::ecu("ECU"));
    let out = pipeline.run(capl_source, Some(dbc_source)).unwrap();
    assert!(out.script.contains("ECU"), "{}", out.script);
    assert!(
        out.lints
            .capl
            .iter()
            .all(|d| d.severity != capl::Severity::Error),
        "{:?}",
        out.lints.capl
    );

    // (3) The implementation model is combined with a specification model…
    let mut defs = out.loaded.definitions().clone();
    let req = out.loaded.alphabet().lookup("rec.reqSw").unwrap();
    let rpt = out.loaded.alphabet().lookup("send.rptSw").unwrap();
    let req_app = out.loaded.alphabet().lookup("rec.reqApp").unwrap();
    let rpt_upd = out.loaded.alphabet().lookup("send.rptUpd").unwrap();
    let noise: csp::EventSet = [req_app, rpt_upd].into_iter().collect();
    let spec =
        fdrlite::properties::request_response_with_noise(&mut defs, "SP02", req, rpt, &noise);

    // (4) …and the refinement checker verifies it.
    let implementation = out.loaded.process(&out.entry).unwrap();
    let verdict = Checker::new()
        .trace_refinement(&spec, implementation, &defs)
        .unwrap();
    assert!(verdict.is_pass());
}

#[test]
fn counterexamples_feed_back_to_the_designer() {
    // The same workflow over a faulty application produces the Fig. 1
    // feedback artefact: a failure trace in terms of the designer's own
    // message names.
    let pipeline = Pipeline::new(TranslateConfig::ecu("ECU"));
    let out = pipeline
        .run(sources::FAULTY_ECU_CAPL, Some(messages::NETWORK_DBC))
        .unwrap();
    let mut defs = out.loaded.definitions().clone();
    let req = out.loaded.alphabet().lookup("rec.reqSw").unwrap();
    let rpt = out.loaded.alphabet().lookup("send.rptSw").unwrap();
    let req_app = out.loaded.alphabet().lookup("rec.reqApp").unwrap();
    let rpt_upd = out.loaded.alphabet().lookup("send.rptUpd").unwrap();
    let noise: csp::EventSet = [req_app, rpt_upd].into_iter().collect();
    let spec =
        fdrlite::properties::request_response_with_noise(&mut defs, "SP02", req, rpt, &noise);
    let implementation = out.loaded.process(&out.entry).unwrap();
    let verdict = Checker::new()
        .trace_refinement(&spec, implementation, &defs)
        .unwrap();
    let cex = verdict.counterexample().expect("double report must fail");
    let feedback = cex.display(out.loaded.alphabet()).to_string();
    assert_eq!(
        feedback,
        "after ⟨rec.reqSw, send.rptSw⟩, the implementation performs `send.rptSw` \
         which the specification forbids"
    );
}

#[test]
fn stage_timings_are_reported_for_the_toolchain() {
    let pipeline = Pipeline::new(TranslateConfig::ecu("ECU"));
    let out = pipeline
        .run(sources::ECU_CAPL, Some(messages::NETWORK_DBC))
        .unwrap();
    // All three stages ran and stayed within interactive budgets.
    assert!(out.timings.parse_us < 5_000_000);
    assert!(out.timings.translate_us < 5_000_000);
    assert!(out.timings.elaborate_us < 5_000_000);
}

#[test]
fn translation_report_documents_every_abstraction() {
    use translator::AbstractionKind::*;
    let src = "
        variables { message reqSw a; message rptSw b; int n = 0; }
        on message reqSw {
            if (this.reqType > 0) { output(b); } else { output(b); }
            n = this.reqType;
            while (n > 100) { n = n - 1; }
        }
    ";
    let pipeline = Pipeline::new(TranslateConfig::ecu("ECU"));
    let out = pipeline.run(src, Some(messages::NETWORK_DBC)).unwrap();
    let kinds: Vec<_> = out.report.abstractions.iter().map(|a| a.kind).collect();
    assert!(kinds.contains(&NondeterministicCondition), "{kinds:?}");
    assert!(kinds.contains(&HavocAssignment), "{kinds:?}");
    assert!(kinds.contains(&UnboundedLoop), "{kinds:?}");
}
