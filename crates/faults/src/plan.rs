//! Fault plans: the declarative input of the fault-injection subsystem.
//!
//! A plan is written in the toolchain's TOML subset, read by
//! [`diag::toml`]; every syntax error, wrong type, missing or unknown key
//! is reported as a `SIM300` parse diagnostic with a precise source span.
//!
//! ```text
//! [plan]
//! name = "x1373-replay"
//! seed = 1
//!
//! [[fault]]
//! name = "replay-reqApp"
//! kind = "replay"
//! match_id = 257
//! max_fires = 1
//! delay_us = 30000
//!
//! [conformance]
//! spec = "UPDATE"
//!
//! [[map]]
//! on = "receive"
//! node = "ECU"
//! event_prefix = "rec"
//! ```
//!
//! Semantic validation ([`lint_plan`]) reports `SIM301`–`SIM306` findings,
//! cross-checking frame identifiers and node names against an optional
//! [`candb::Database`].

use candb::Database;
use diag::toml::{self, Fields, Section, Value};
use diag::{Diagnostic, Span};

/// A parsed fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Plan name (from `[plan] name`), used in reports.
    pub name: String,
    /// Default seed (`[plan] seed`); `autocsp simulate --seed` overrides it.
    pub seed: Option<u64>,
    /// The faults, applied to each frame in declaration order.
    pub faults: Vec<FaultSpec>,
    /// Optional conformance section: spec process plus trace-lift rules.
    pub conformance: Option<ConformanceSpec>,
}

/// One declared fault: a transformation gated by a trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Name used to tag [`canoe_sim::TraceEvent::Fault`] records.
    pub name: String,
    /// What the fault does when its trigger fires.
    pub kind: FaultKind,
    /// When the fault fires.
    pub trigger: Trigger,
    /// 1-based source line of the `[[fault]]` header (for diagnostics).
    pub line: u32,
}

/// The transformation a fault applies.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Remove the frame from the bus.
    Drop,
    /// XOR one payload byte with a mask.
    Corrupt {
        /// Payload byte offset (0–7).
        byte: usize,
        /// XOR mask applied to that byte.
        xor: u8,
    },
    /// Postpone delivery by a fixed delay plus seeded jitter.
    Delay {
        /// Fixed delay in microseconds.
        delay_us: u64,
        /// Upper bound (inclusive) of uniformly drawn extra jitter.
        jitter_us: u64,
    },
    /// Deliver additional copies of the frame.
    Duplicate {
        /// How many extra copies to deliver.
        copies: u32,
    },
    /// Re-deliver the most recently matching frame (recorded by the same
    /// fault) as an external frame.
    Replay {
        /// Delay before the replayed copy arrives, in microseconds.
        delay_us: u64,
    },
    /// Forge an external frame with a fixed identifier and payload.
    Spoof {
        /// CAN identifier of the forged frame.
        id: u32,
        /// Payload bytes of the forged frame.
        payload: [u8; 8],
        /// Data length code of the forged frame.
        dlc: usize,
    },
    /// Suppress *all* bus traffic while the trigger matches (transient
    /// bus-off window).
    BusOff,
    /// Take a node offline for a time window; handled at simulation level
    /// via [`canoe_sim::Simulation::schedule_outage`].
    NodeCrash {
        /// Name of the node to crash.
        node: String,
        /// Crash time (µs, inclusive).
        from_us: u64,
        /// Restart time (µs, exclusive).
        until_us: u64,
    },
}

impl FaultKind {
    /// The `kind = "…"` keyword for this fault kind.
    pub fn keyword(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt { .. } => "corrupt",
            FaultKind::Delay { .. } => "delay",
            FaultKind::Duplicate { .. } => "duplicate",
            FaultKind::Replay { .. } => "replay",
            FaultKind::Spoof { .. } => "spoof",
            FaultKind::BusOff => "bus_off",
            FaultKind::NodeCrash { .. } => "node_crash",
        }
    }
}

/// When a fault fires. All set conditions must hold; the probability draw
/// (if any) happens last, so the deterministic conditions never consume
/// random numbers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trigger {
    /// Only fire while `window.0 <= time_us < window.1`.
    pub window: Option<(u64, u64)>,
    /// Only fire on frames with this CAN identifier.
    pub match_id: Option<u32>,
    /// Fire on every `n`-th matching frame (1 = every one).
    pub every_nth: Option<u64>,
    /// Fire with this probability (seeded, deterministic per run).
    pub probability: Option<f64>,
    /// Stop firing after this many activations.
    pub max_fires: Option<u64>,
}

/// How simulation trace entries map to CSP events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOn {
    /// [`canoe_sim::TraceEvent::Transmit`] entries.
    Transmit,
    /// [`canoe_sim::TraceEvent::Receive`] entries.
    Receive,
    /// [`canoe_sim::TraceEvent::Injected`] entries.
    Inject,
}

/// One trace-lift rule from a `[[map]]` section. The first matching rule
/// wins; entries no rule matches are dropped from the lifted trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MapRule {
    /// Which trace entries the rule applies to.
    pub on: MapOn,
    /// Only entries involving this node (transmitting or receiving).
    pub node: Option<String>,
    /// Only entries carrying this message (by database name).
    pub message: Option<String>,
    /// Explicit CSP event name to emit.
    pub event: Option<String>,
    /// Emit `<prefix>.<message>` (the common channel-style lift).
    pub event_prefix: Option<String>,
}

impl MapRule {
    /// The CSP event this rule emits for message `message`, if any.
    pub fn emit(&self, message: &str) -> Option<String> {
        if let Some(event) = &self.event {
            return Some(event.clone());
        }
        self.event_prefix
            .as_ref()
            .map(|prefix| format!("{prefix}.{message}"))
    }
}

/// The `[conformance]` section: which spec process to check the lifted
/// trace against, and the lift rules.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceSpec {
    /// Name of the specification process in the CSPm script.
    pub spec: String,
    /// Trace-lift rules, tried in order.
    pub rules: Vec<MapRule>,
}

use crate::codes::{
    BUS_OFF_OVERLAP as SIM302, CORRUPT_BYTE_RANGE as SIM306, EMPTY_WINDOW as SIM304,
    PLAN_PARSE_ERROR as SIM300, PROBABILITY_RANGE as SIM303, UNKNOWN_FRAME_ID as SIM301,
    UNKNOWN_NODE as SIM305,
};

fn parse_err(span: Span, message: impl Into<String>) -> Diagnostic {
    Diagnostic::error(SIM300, span, message)
}

impl FaultPlan {
    /// Parse a fault plan. All problems are reported together as `SIM300`
    /// diagnostics (render them with [`diag::Diagnostic::render`] against
    /// the plan source).
    pub fn parse(src: &str) -> Result<FaultPlan, Vec<Diagnostic>> {
        let sections = toml::parse(src, SIM300)?;
        let mut errors: Vec<Diagnostic> = Vec::new();
        let mut plan = FaultPlan {
            name: String::new(),
            seed: None,
            faults: Vec::new(),
            conformance: None,
        };
        let mut saw_plan = false;
        let mut rules: Vec<MapRule> = Vec::new();
        let mut conformance_spec: Option<String> = None;

        for section in &sections {
            match section.name.as_str() {
                "plan" => {
                    saw_plan = true;
                    let mut f = Fields::new(section, SIM300);
                    if let Some(name) = f.require_str("name") {
                        plan.name = name;
                    }
                    plan.seed = f.uint("seed");
                    errors.extend(f.finish());
                }
                "fault" => match parse_fault(section) {
                    Ok(spec) => plan.faults.push(spec),
                    Err(errs) => errors.extend(errs),
                },
                "conformance" => {
                    let mut f = Fields::new(section, SIM300);
                    conformance_spec = f.require_str("spec");
                    errors.extend(f.finish());
                }
                "map" => match parse_map(section) {
                    Ok(rule) => rules.push(rule),
                    Err(errs) => errors.extend(errs),
                },
                other => errors.push(parse_err(
                    section.span,
                    format!(
                        "unknown section `[{other}]` (expected plan, fault, conformance or map)"
                    ),
                )),
            }
        }

        if !saw_plan {
            errors.push(parse_err(
                Span::unknown(),
                "fault plan is missing its `[plan]` section",
            ));
        }
        if let Some(spec) = conformance_spec {
            plan.conformance = Some(ConformanceSpec { spec, rules });
        } else if !rules.is_empty() {
            errors.push(parse_err(
                Span::unknown(),
                "`[[map]]` rules given without a `[conformance]` section",
            ));
        }

        if errors.is_empty() {
            Ok(plan)
        } else {
            Err(errors)
        }
    }
}

fn parse_fault(section: &Section) -> Result<FaultSpec, Vec<Diagnostic>> {
    let mut f = Fields::new(section, SIM300);
    let name = f.require_str("name").unwrap_or_default();
    let kind_word = f.require_str("kind").unwrap_or_default();

    let trigger = Trigger {
        window: window(&mut f),
        match_id: f.uint::<u64>("match_id").map(|v| v as u32),
        every_nth: f.uint("every_nth"),
        probability: f.f64("probability"),
        max_fires: f.uint("max_fires"),
    };

    let kind = match kind_word.as_str() {
        "drop" => Some(FaultKind::Drop),
        "corrupt" => Some(FaultKind::Corrupt {
            byte: f.uint::<u64>("byte").unwrap_or(0) as usize,
            xor: (f.uint::<u64>("xor").unwrap_or(0xFF) & 0xFF) as u8,
        }),
        "delay" => Some(FaultKind::Delay {
            delay_us: f.uint("delay_us").unwrap_or(0),
            jitter_us: f.uint("jitter_us").unwrap_or(0),
        }),
        "duplicate" => Some(FaultKind::Duplicate {
            copies: f.uint::<u64>("copies").unwrap_or(1) as u32,
        }),
        "replay" => Some(FaultKind::Replay {
            delay_us: f.uint("delay_us").unwrap_or(0),
        }),
        "spoof" => {
            let id = f.uint::<u64>("id");
            let payload = payload(&mut f).unwrap_or([0u8; 8]);
            let dlc = f.uint::<u64>("dlc").unwrap_or(8) as usize;
            match id {
                Some(id) => Some(FaultKind::Spoof {
                    id: id as u32,
                    payload,
                    dlc: dlc.min(8),
                }),
                None => {
                    f.error(section.span, "`kind = \"spoof\"` requires an `id`");
                    None
                }
            }
        }
        "bus_off" => Some(FaultKind::BusOff),
        "node_crash" => {
            let node = f.str("node");
            let window = window(&mut f);
            match (node, window) {
                (Some(node), Some((from_us, until_us))) => Some(FaultKind::NodeCrash {
                    node,
                    from_us,
                    until_us,
                }),
                _ => {
                    f.error(
                        section.span,
                        "`kind = \"node_crash\"` requires `node` and `window = [from_us, until_us]`",
                    );
                    None
                }
            }
        }
        "" => None,
        other => {
            f.error(
                section.span,
                format!(
                    "unknown fault kind `{other}` (expected drop, corrupt, delay, duplicate, replay, spoof, bus_off or node_crash)"
                ),
            );
            None
        }
    };

    let line = section.span.line;
    let errors = f.finish();
    match (kind, errors.is_empty()) {
        (Some(kind), true) => Ok(FaultSpec {
            name,
            kind,
            trigger,
            line,
        }),
        (_, _) if !errors.is_empty() => Err(errors),
        _ => Err(vec![parse_err(
            section.span,
            "`[[fault]]` section is missing a valid `kind`",
        )]),
    }
}

fn parse_map(section: &Section) -> Result<MapRule, Vec<Diagnostic>> {
    let mut f = Fields::new(section, SIM300);
    let on_word = f.require_str("on").unwrap_or_default();
    let on = match on_word.as_str() {
        "transmit" => Some(MapOn::Transmit),
        "receive" => Some(MapOn::Receive),
        "inject" => Some(MapOn::Inject),
        "" => None,
        other => {
            f.error(
                section.span,
                format!("unknown map trigger `{other}` (expected transmit, receive or inject)"),
            );
            None
        }
    };
    let rule = MapRule {
        on: on.unwrap_or(MapOn::Transmit),
        node: f.str("node"),
        message: f.str("message"),
        event: f.str("event"),
        event_prefix: f.str("event_prefix"),
    };
    if rule.event.is_none() && rule.event_prefix.is_none() {
        f.error(
            section.span,
            "`[[map]]` rule needs `event` or `event_prefix`",
        );
    }
    let errors = f.finish();
    if errors.is_empty() {
        Ok(rule)
    } else {
        Err(errors)
    }
}

/// A trigger or outage window, `window = [from_us, until_us]`.
fn window(f: &mut Fields<'_>) -> Option<(u64, u64)> {
    f.get(
        "window",
        "two non-negative integers like `[0, 50000]`",
        |v| match v {
            Value::IntList(items) if items.len() == 2 => {
                Some((u64::try_from(items[0]).ok()?, u64::try_from(items[1]).ok()?))
            }
            _ => None,
        },
    )
}

/// A spoofed frame's `payload`, zero-padded to 8 bytes.
fn payload(f: &mut Fields<'_>) -> Option<[u8; 8]> {
    f.get(
        "payload",
        "a list of at most 8 bytes (0–255)",
        |v| match v {
            Value::IntList(items) if items.len() <= 8 => {
                let mut payload = [0u8; 8];
                for (slot, &b) in payload.iter_mut().zip(items) {
                    *slot = u8::try_from(b).ok()?;
                }
                Some(payload)
            }
            _ => None,
        },
    )
}

// ---------------------------------------------------------------------------
// Semantic lints (SIM301–SIM306)
// ---------------------------------------------------------------------------

/// Validate a parsed plan, optionally cross-checking against a CAN
/// database. Returns findings; an empty vector means the plan is clean.
pub fn lint_plan(plan: &FaultPlan, db: Option<&Database>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut bus_off_windows: Vec<(&FaultSpec, (u64, u64))> = Vec::new();

    for fault in &plan.faults {
        let span = Span::point(fault.line, 1);

        if let Some(p) = fault.trigger.probability {
            if !(0.0..=1.0).contains(&p) {
                out.push(
                    Diagnostic::error(
                        SIM303,
                        span,
                        format!("fault `{}` has probability {p}, outside [0, 1]", fault.name),
                    )
                    .with_note("probabilities are per-matching-frame firing chances"),
                );
            }
        }

        if let Some((from, until)) = fault.trigger.window {
            if from >= until {
                out.push(Diagnostic::warning(
                    SIM304,
                    span,
                    format!(
                        "fault `{}` has an empty trigger window [{from}, {until}) and can never fire",
                        fault.name
                    ),
                ));
            }
        }

        if let Some(db) = db {
            if let Some(id) = fault.trigger.match_id {
                if db.message_by_id(id).is_none() {
                    out.push(
                        Diagnostic::error(
                            SIM301,
                            span,
                            format!(
                                "fault `{}` matches frame id {id} (0x{id:X}), which is not in the database",
                                fault.name
                            ),
                        )
                        .with_note("known ids come from the `.dbc` passed to the simulator"),
                    );
                }
            }
        }

        match &fault.kind {
            FaultKind::Corrupt { byte, .. } if *byte > 7 => {
                out.push(Diagnostic::error(
                    SIM306,
                    span,
                    format!(
                        "fault `{}` corrupts byte {byte}, beyond the 8-byte CAN payload (0–7)",
                        fault.name
                    ),
                ));
            }
            FaultKind::Spoof { id, .. } => {
                if let Some(db) = db {
                    if db.message_by_id(*id).is_none() {
                        out.push(
                            Diagnostic::error(
                                SIM301,
                                span,
                                format!(
                                    "fault `{}` spoofs frame id {id} (0x{id:X}), which is not in the database",
                                    fault.name
                                ),
                            )
                            .with_note("receivers only handle messages declared in the `.dbc`"),
                        );
                    }
                }
            }
            FaultKind::NodeCrash {
                node,
                from_us,
                until_us,
            } => {
                if from_us >= until_us {
                    out.push(Diagnostic::warning(
                        SIM304,
                        span,
                        format!(
                            "fault `{}` has an empty outage window [{from_us}, {until_us}) and does nothing",
                            fault.name
                        ),
                    ));
                }
                if let Some(db) = db {
                    if !db.nodes.is_empty() && !db.nodes.iter().any(|n| n == node) {
                        out.push(
                            Diagnostic::error(
                                SIM305,
                                span,
                                format!(
                                    "fault `{}` crashes node `{node}`, which is not in the database",
                                    fault.name
                                ),
                            )
                            .with_note(format!("known nodes: {}", db.nodes.join(", "))),
                        );
                    }
                }
            }
            FaultKind::BusOff => {
                if let Some(window) = fault.trigger.window {
                    bus_off_windows.push((fault, window));
                }
            }
            _ => {}
        }
    }

    for (i, (a, (a_from, a_until))) in bus_off_windows.iter().enumerate() {
        for (b, (b_from, b_until)) in bus_off_windows.iter().skip(i + 1) {
            if a_from < b_until && b_from < a_until {
                out.push(
                    Diagnostic::warning(
                        SIM302,
                        Span::point(b.line, 1),
                        format!(
                            "bus-off faults `{}` and `{}` have overlapping windows",
                            a.name, b.name
                        ),
                    )
                    .with_note("overlapping bus-off windows are redundant; merge them"),
                );
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL_PLAN: &str = r#"
# A kitchen-sink plan exercising every construct.
[plan]
name = "kitchen-sink"
seed = 42

[[fault]]
name = "lossy"
kind = "drop"
match_id = 0x200
every_nth = 2
probability = 0.5
max_fires = 10

[[fault]]
name = "flip"
kind = "corrupt"
byte = 3
xor = 0x80
window = [1000, 50000]

[[fault]]
name = "slow"
kind = "delay"
delay_us = 2000
jitter_us = 500

[[fault]]
name = "echo"
kind = "duplicate"
copies = 2

[[fault]]
name = "ghost"
kind = "replay"
match_id = 257
delay_us = 30000
max_fires = 1

[[fault]]
name = "forge"
kind = "spoof"
id = 256
payload = [1, 2, 3]
dlc = 8
every_nth = 5

[[fault]]
name = "quiet"
kind = "bus_off"
window = [60000, 70000]

[[fault]]
name = "offline"
kind = "node_crash"
node = "ECU"
window = [30000, 70000]

[conformance]
spec = "UPDATE"

[[map]]
on = "receive"
node = "ECU"
event_prefix = "rec"

[[map]]
on = "transmit"
node = "ECU"
message = "rptSw"
event = "send.rptSw"
"#;

    #[test]
    fn full_plan_parses() {
        let plan = FaultPlan::parse(FULL_PLAN).expect("parses");
        assert_eq!(plan.name, "kitchen-sink");
        assert_eq!(plan.seed, Some(42));
        assert_eq!(plan.faults.len(), 8);
        assert_eq!(plan.faults[0].kind, FaultKind::Drop);
        assert_eq!(plan.faults[0].trigger.match_id, Some(0x200));
        assert_eq!(plan.faults[0].trigger.probability, Some(0.5));
        assert_eq!(
            plan.faults[1].kind,
            FaultKind::Corrupt { byte: 3, xor: 0x80 }
        );
        assert_eq!(plan.faults[1].trigger.window, Some((1000, 50000)));
        assert_eq!(
            plan.faults[5].kind,
            FaultKind::Spoof {
                id: 256,
                payload: [1, 2, 3, 0, 0, 0, 0, 0],
                dlc: 8
            }
        );
        let conf = plan.conformance.expect("conformance section");
        assert_eq!(conf.spec, "UPDATE");
        assert_eq!(conf.rules.len(), 2);
        assert_eq!(conf.rules[0].emit("reqSw").as_deref(), Some("rec.reqSw"));
        assert_eq!(conf.rules[1].emit("rptSw").as_deref(), Some("send.rptSw"));
    }

    #[test]
    fn parse_errors_carry_sim300_and_positions() {
        let src = "[plan]\nname = \"x\"\n[[fault]]\nname = \"f\"\nkind = \"warp\"\n";
        let errs = FaultPlan::parse(src).unwrap_err();
        assert!(errs.iter().all(|d| d.code == SIM300));
        assert!(errs.iter().any(|d| d.message.contains("warp")));
        assert!(errs.iter().any(|d| d.span.line == 3));
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let src = "[plan]\nname = \"x\"\nbogus = 1\n";
        let errs = FaultPlan::parse(src).unwrap_err();
        assert!(errs
            .iter()
            .any(|d| d.message.contains("unknown key `bogus`")));
    }

    #[test]
    fn missing_plan_section_is_rejected() {
        let errs = FaultPlan::parse("[[fault]]\nname = \"f\"\nkind = \"drop\"\n").unwrap_err();
        assert!(errs.iter().any(|d| d.message.contains("[plan]")));
    }

    #[test]
    fn map_without_conformance_is_rejected() {
        let src = "[plan]\nname = \"x\"\n[[map]]\non = \"transmit\"\nevent_prefix = \"send\"\n";
        let errs = FaultPlan::parse(src).unwrap_err();
        assert!(errs
            .iter()
            .any(|d| d.message.contains("without a `[conformance]`")));
    }

    fn db() -> Database {
        candb::parse(
            "BU_: VMG ECU\nBO_ 256 reqSw: 8 VMG\n SG_ a : 0|8@1+ (1,0) [0|255] \"\" ECU\nBO_ 512 rptSw: 8 ECU\n SG_ b : 0|8@1+ (1,0) [0|255] \"\" VMG\n",
        )
        .expect("dbc parses")
    }

    #[test]
    fn lint_flags_unknown_frame_id() {
        let plan = FaultPlan::parse(
            "[plan]\nname = \"x\"\n[[fault]]\nname = \"f\"\nkind = \"drop\"\nmatch_id = 999\n",
        )
        .unwrap();
        let findings = lint_plan(&plan, Some(&db()));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, SIM301);
        assert_eq!(findings[0].span.line, 3);
    }

    #[test]
    fn lint_flags_overlapping_bus_off_windows() {
        let plan = FaultPlan::parse(
            "[plan]\nname = \"x\"\n\
             [[fault]]\nname = \"a\"\nkind = \"bus_off\"\nwindow = [0, 100]\n\
             [[fault]]\nname = \"b\"\nkind = \"bus_off\"\nwindow = [50, 150]\n",
        )
        .unwrap();
        let findings = lint_plan(&plan, None);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, SIM302);
    }

    #[test]
    fn lint_flags_probability_out_of_range() {
        let plan = FaultPlan::parse(
            "[plan]\nname = \"x\"\n[[fault]]\nname = \"f\"\nkind = \"drop\"\nprobability = 1.5\n",
        )
        .unwrap();
        let findings = lint_plan(&plan, None);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, SIM303);
    }

    #[test]
    fn lint_flags_empty_window_unknown_node_and_bad_byte() {
        let plan = FaultPlan::parse(
            "[plan]\nname = \"x\"\n\
             [[fault]]\nname = \"w\"\nkind = \"drop\"\nwindow = [500, 500]\n\
             [[fault]]\nname = \"n\"\nkind = \"node_crash\"\nnode = \"GHOST\"\nwindow = [0, 10]\n\
             [[fault]]\nname = \"c\"\nkind = \"corrupt\"\nbyte = 9\n",
        )
        .unwrap();
        let findings = lint_plan(&plan, Some(&db()));
        let codes: Vec<&str> = findings.iter().map(|d| d.code.0).collect();
        assert!(codes.contains(&"SIM304"), "{codes:?}");
        assert!(codes.contains(&"SIM305"), "{codes:?}");
        assert!(codes.contains(&"SIM306"), "{codes:?}");
    }

    #[test]
    fn clean_plan_lints_clean() {
        let plan = FaultPlan::parse(FULL_PLAN).unwrap();
        // match_id 0x200 == 512 (rptSw); replay matches 257 which is NOT in
        // this tiny db, so lint against None db only.
        assert!(lint_plan(&plan, None).is_empty());
    }
}
