//! Checker scaling — quantifying the §VII-A discussion: how the refinement
//! checker behaves as the model grows (the paper claims FDR-class tooling
//! "opens the door for automating component-level security checks at
//! scale" but reports no numbers).
//!
//! Axes:
//! * interleaved components (state space `2^n + 1`),
//! * intruder message-space size (knowledge lattice `2^m`),
//! * NSPK end-to-end check (the heaviest single model in the repo).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csp::{Alphabet, Definitions, EventSet, Process};
use fdrlite::Checker;
use secmod::Intruder;

fn component_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/interleaved_components");
    group.sample_size(10);
    for n in [2usize, 4, 6, 8] {
        let src = bench::interleave_script(n);
        let loaded = cspm::Script::parse(&src).unwrap().load().unwrap();
        let system = loaded.process("SYSTEM").unwrap().clone();
        let run = loaded.process("RUN").unwrap().clone();
        let defs = loaded.definitions().clone();
        // 2^n leaf-state tuples, plus the unfolded `SYSTEM` root.
        let states = Checker::new()
            .compile(&system, &defs)
            .unwrap()
            .state_count();
        assert_eq!(states, (1 << n) + 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let checker = Checker::new();
            b.iter(|| {
                let verdict = checker.trace_refinement(&run, &system, &defs).unwrap();
                assert!(verdict.is_pass());
                verdict
            });
        });
    }
    group.finish();
}

fn intruder_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/intruder_messages");
    group.sample_size(10);
    for m in [2usize, 4, 6, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            b.iter(|| {
                let mut ab = Alphabet::new();
                let mut defs = Definitions::new();
                let names: Vec<String> = (0..m).map(|i| format!("m{i}")).collect();
                let mut builder = Intruder::builder("EVE").tap("net", "dlv");
                for n in &names {
                    builder = builder.message(n);
                }
                let intruder = builder.build(&mut ab, &mut defs);
                let lts = csp::Lts::build(intruder.process().clone(), &defs, 1 << 20).unwrap();
                assert_eq!(lts.state_count(), 1 << m);
                lts.state_count()
            });
        });
    }
    group.finish();
}

fn parallel_vs_serial(c: &mut Criterion) {
    // The §VII-A "grid/cloud" story in miniature: the multi-threaded
    // decision procedure against the serial one on a 3^8-state check.
    let src = bench::interleave_script(8);
    let loaded = cspm::Script::parse(&src).unwrap().load().unwrap();
    let system = loaded.process("SYSTEM").unwrap().clone();
    let run = loaded.process("RUN").unwrap().clone();
    let defs = loaded.definitions().clone();
    let checker = Checker::new();

    let mut group = c.benchmark_group("scaling/parallelism");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| checker.trace_refinement(&run, &system, &defs).unwrap());
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                let request = fdrlite::CheckRequest {
                    model: fdrlite::RefinementModel::Traces,
                    spec: &run,
                    impl_: &system,
                    defs: &defs,
                    threads,
                    options: fdrlite::CheckOptions::UNBOUNDED,
                };
                // A fresh store per iteration: compiled like the serial run.
                b.iter(|| {
                    fdrlite::ModelStore::new()
                        .check(&checker, &request)
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn nspk_check(c: &mut Criterion) {
    const NSPK: &str = include_str!("nspk_model.cspm");
    let mut group = c.benchmark_group("scaling/needham_schroeder");
    group.sample_size(10);
    group.bench_function("load_and_find_attack", |b| {
        b.iter(|| {
            let loaded = cspm::Script::parse(NSPK).unwrap().load().unwrap();
            let results = loaded.check(&Checker::new()).unwrap();
            assert!(!results[0].verdict.is_pass());
            results
        });
    });
    group.finish();
}

fn normalisation_cost(c: &mut Criterion) {
    // Spec normalisation (subset construction) on an intentionally
    // nondeterministic specification.
    let mut ab = Alphabet::new();
    let events: Vec<_> = (0..6).map(|i| ab.intern(&format!("e{i}"))).collect();
    let mut defs = Definitions::new();
    // A union of nondeterministic branches over the same alphabet.
    let branches: Vec<Process> = events
        .iter()
        .map(|&e| {
            Process::prefix(
                e,
                Process::internal_choice(
                    Process::prefix(events[0], Process::Stop),
                    Process::prefix(events[1], Process::Skip),
                ),
            )
        })
        .collect();
    let spec_id = defs.declare("SPEC");
    let spec_body = Process::external_choice_all(
        branches
            .iter()
            .map(|b| Process::seq(b.clone(), Process::var(spec_id)))
            .collect(),
    );
    defs.define(spec_id, spec_body);
    let spec = Process::var(spec_id);
    let checker = Checker::new();
    let lts = checker.compile(&spec, &defs).unwrap();
    c.bench_function("scaling/normalise_nondeterministic_spec", |b| {
        b.iter(|| checker.normalise(&lts).unwrap().node_count());
    });

    let _ = EventSet::empty();
}

criterion_group!(
    benches,
    component_scaling,
    intruder_scaling,
    parallel_vs_serial,
    nspk_check,
    normalisation_cost
);
criterion_main!(benches);
