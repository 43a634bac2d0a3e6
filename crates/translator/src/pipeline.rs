//! The end-to-end workflow of the paper's Fig. 1: CAPL source (plus network
//! database) → model extraction → CSPm → elaborated processes ready for the
//! refinement checker.

use std::fmt;
use std::time::Instant;

use cspm::LoadedScript;
use lint::LintReport;

use crate::translate::{TranslateConfig, TranslationReport, Translator};

/// Errors from any pipeline stage.
#[derive(Debug)]
pub enum PipelineError {
    /// CAPL lexing/parsing failed.
    Capl(capl::CaplError),
    /// The network database failed to parse.
    Dbc(candb::DbcError),
    /// Translation failed.
    Translate(crate::translate::TranslateError),
    /// The generated CSPm failed to parse or elaborate — a translator bug.
    Cspm(cspm::CspmError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Capl(e) => write!(f, "CAPL stage: {e}"),
            PipelineError::Dbc(e) => write!(f, "database stage: {e}"),
            PipelineError::Translate(e) => write!(f, "translation stage: {e}"),
            PipelineError::Cspm(e) => write!(f, "CSPm stage: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Wall-clock cost of each pipeline stage, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// CAPL (and database) parsing.
    pub parse_us: u64,
    /// Static analysis (CAPL lints, database cross-checks, CSPm lints).
    pub lint_us: u64,
    /// Model extraction.
    pub translate_us: u64,
    /// CSPm parsing and elaboration.
    pub elaborate_us: u64,
}

/// Everything the pipeline produced.
#[derive(Debug)]
pub struct PipelineOutput {
    /// The generated CSPm script.
    pub script: String,
    /// Entry process name.
    pub entry: String,
    /// Translation report (abstractions, inventory).
    pub report: TranslationReport,
    /// Static-analysis findings for every stage: the CAPL lints (the
    /// frontend's symbol pass, dataflow and database cross-checks), database
    /// hygiene, and unguarded recursion (`CSP202`) in the *generated* CSPm
    /// model, judged once it is elaborated. Lints never abort the pipeline —
    /// gating is the caller's policy decision.
    pub lints: LintReport,
    /// The elaborated script, ready for checking.
    pub loaded: LoadedScript,
    /// Per-stage timings.
    pub timings: StageTimings,
}

/// The Fig. 1 pipeline: configure once, run over source files.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: TranslateConfig,
}

impl Pipeline {
    /// A pipeline with the given translation configuration.
    pub fn new(config: TranslateConfig) -> Pipeline {
        Pipeline { config }
    }

    /// Run the full pipeline over CAPL source and an optional `.dbc` file.
    ///
    /// # Errors
    ///
    /// The first failing stage, as a [`PipelineError`].
    pub fn run(
        &self,
        capl_source: &str,
        dbc_source: Option<&str>,
    ) -> Result<PipelineOutput, PipelineError> {
        let t0 = Instant::now();
        let program = capl::parse(capl_source).map_err(PipelineError::Capl)?;
        let db = dbc_source
            .map(candb::parse)
            .transpose()
            .map_err(PipelineError::Dbc)?;
        let parse_us = t0.elapsed().as_micros() as u64;

        let tl = Instant::now();
        let mut lints = LintReport::for_capl(lint::lint_program(&program));
        if let Some(db) = &db {
            lints.capl.extend(lint::cross_check(&program, db));
            lints.dbc = lint::lint_database(db);
        }
        let front_lint_us = tl.elapsed().as_micros() as u64;

        let t1 = Instant::now();
        let mut translator = Translator::new(self.config.clone());
        if let Some(db) = db {
            translator = translator.with_database(db);
        }
        let output = translator
            .translate(&program)
            .map_err(PipelineError::Translate)?;
        let translate_us = t1.elapsed().as_micros() as u64;

        let t2 = Instant::now();
        let script = cspm::Script::parse(&output.script).map_err(PipelineError::Cspm)?;
        let loaded = script.load().map_err(PipelineError::Cspm)?;
        let elaborate_us = t2.elapsed().as_micros() as u64;
        let tl2 = Instant::now();
        lints.csp = cspm::analyze::unguarded_recursion(script.module(), &loaded);
        let lint_us = front_lint_us + tl2.elapsed().as_micros() as u64;

        Ok(PipelineOutput {
            script: output.script,
            entry: output.entry,
            report: output.report,
            lints,
            loaded,
            timings: StageTimings {
                parse_us,
                lint_us,
                translate_us,
                elaborate_us,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ECU_SRC: &str = "
        variables { message reqSw msgReq; message rptSw msgRpt; }
        on message reqSw { output(msgRpt); }
    ";

    const DBC_SRC: &str = "
BU_: VMG ECU
BO_ 100 reqSw: 8 VMG
 SG_ reqType : 0|4@1+ (1,0) [0|15] \"\" ECU
BO_ 101 rptSw: 8 ECU
 SG_ status : 0|8@1+ (1,0) [0|255] \"\" VMG
";

    #[test]
    fn full_pipeline_produces_checkable_model() {
        let pipeline = Pipeline::new(TranslateConfig::ecu("ECU"));
        let out = pipeline.run(ECU_SRC, Some(DBC_SRC)).unwrap();
        assert!(out.loaded.process("ECU").is_some());
        assert_eq!(out.lints.error_count(), 0, "{:?}", out.lints);
    }

    #[test]
    fn pipeline_reports_capl_errors() {
        let pipeline = Pipeline::new(TranslateConfig::ecu("ECU"));
        let err = pipeline.run("on frobnicate { }", None).unwrap_err();
        assert!(matches!(err, PipelineError::Capl(_)));
    }

    #[test]
    fn pipeline_reports_dbc_errors() {
        let pipeline = Pipeline::new(TranslateConfig::ecu("ECU"));
        let err = pipeline
            .run(ECU_SRC, Some(" SG_ broken : nonsense"))
            .unwrap_err();
        assert!(matches!(err, PipelineError::Dbc(_)));
    }

    #[test]
    fn pipeline_collects_lints() {
        let pipeline = Pipeline::new(TranslateConfig::ecu("ECU"));
        let src = "variables { message reqSw msgReq; message rptSw msgRpt; }
                   on message reqSw { int x; x = 5; output(msgRpt); }";
        let out = pipeline.run(src, Some(DBC_SRC)).unwrap();
        assert!(
            out.lints
                .capl
                .iter()
                .any(|d| d.code == lint::codes::DEAD_STORE),
            "{:?}",
            out.lints
        );
        // The clean fixture produces no error-severity findings anywhere.
        let out = pipeline.run(ECU_SRC, Some(DBC_SRC)).unwrap();
        assert_eq!(out.lints.error_count(), 0, "{:?}", out.lints);
    }

    #[test]
    fn timings_are_recorded() {
        let pipeline = Pipeline::new(TranslateConfig::ecu("ECU"));
        let out = pipeline.run(ECU_SRC, None).unwrap();
        // Stages ran; timings are plausible (non-pathological).
        assert!(out.timings.elaborate_us < 10_000_000);
    }
}
