//! `Script::load` on a translated ECU stays within an allocation budget.
//!
//! The translator emits one `[]` branch per CAPL handler and one
//! instantiation of `APP(state)` per reachable state value, so whatever
//! the elaborator allocates per prefix or per call repeats once per
//! handler per state. The budget pins that per-branch work without timing
//! anything: a memoised call and an already-interned event must cost no
//! allocation. The counter is thread-local, so the test harness and other
//! tests of this binary do not add to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use translator::{TranslateConfig, Translator};

/// Allocations of `Script::load` on the 80-handler app below: 1.5× the
/// 4,140 the evaluator makes since it borrows the module and reuses
/// interned events (22,268 before).
const BUDGET: u64 = 6_210;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// `const`-initialised thread-local without a destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// An ECU answering `handlers` request messages, each handler one of
/// three shapes in turn (counter update, state-dependent reset, plain
/// reply), translated to CSPm and checked against the request/response
/// spec.
fn translated_app(handlers: usize) -> String {
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
    for i in 0..handlers {
        let body = match i % 3 {
            0 => format!("  total = total + 1;\n  output(vRpt{i});"),
            1 => format!("  if (total > 1)\n  {{\n    total = 0;\n  }}\n  output(vRpt{i});"),
            _ => format!("  output(vRpt{i});"),
        };
        let _ = writeln!(capl, "on message req{i}\n{{\n{body}\n}}\n");
    }
    let program = capl::parse(&capl).expect("generated CAPL parses");
    let db = candb::parse(&dbc).expect("generated .dbc parses");
    let out = Translator::new(TranslateConfig::ecu("ECU"))
        .with_database(db)
        .translate(&program)
        .expect("generated app translates");
    let spec = (0..handlers)
        .map(|i| format!("rec.req{i} -> send.rpt{i} -> SPEC"))
        .collect::<Vec<_>>()
        .join("\n  [] ");
    format!(
        "{}\nSPEC = {spec}\nassert SPEC [T= {}\n",
        out.script, out.entry
    )
}

#[test]
fn loading_a_translated_ecu_stays_within_its_allocation_budget() {
    let script = cspm::Script::parse(&translated_app(80)).expect("translated app parses");
    let before = allocations();
    let loaded = script.load().expect("translated app elaborates");
    let used = allocations() - before;
    // The fixture is the shape the budget was measured on.
    assert_eq!(loaded.alphabet().len(), 160);
    assert_eq!(loaded.assertions().len(), 1);
    drop(loaded);
    assert!(
        used <= BUDGET,
        "Script::load made {used} allocations, over its budget of {BUDGET}"
    );
}
