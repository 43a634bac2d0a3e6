//! Table III — requirements R01–R05. Benchmarks each requirement's
//! refinement check on the honest system, the attack-scenario checks, and
//! the MAC-secured R05 models.

use criterion::{criterion_group, criterion_main, Criterion};
use fdrlite::{Checker, RefinementModel};
use ota::{attacks, requirements, secured, system::OtaSystem};

fn honest_requirements(c: &mut Criterion) {
    let mut study = OtaSystem::build().unwrap();
    let reqs = requirements::all(&mut study).unwrap();
    let checker = Checker::new();
    for req in reqs {
        c.bench_function(&format!("table3/honest/{}", req.id), |b| {
            b.iter(|| {
                let verdict = checker
                    .trace_refinement(&req.spec, &req.scoped_system, study.definitions())
                    .unwrap();
                assert!(verdict.is_pass());
                verdict
            });
        });
    }

    let sp02 = requirements::sp02(&mut study).unwrap();
    c.bench_function("table3/honest/SP02", |b| {
        b.iter(|| {
            checker
                .trace_refinement(&sp02.spec, &sp02.scoped_system, study.definitions())
                .unwrap()
        });
    });
}

fn attacked_requirements(c: &mut Criterion) {
    let mut study = OtaSystem::build().unwrap();
    let scenarios = attacks::scenarios(&mut study).unwrap();
    let checker = Checker::new();
    for sc in scenarios {
        c.bench_function(&format!("table3/attacked/{:?}", sc.kind), |b| {
            b.iter(|| {
                let verdict = match sc.requirement.model {
                    RefinementModel::Traces => checker
                        .trace_refinement(
                            &sc.requirement.spec,
                            &sc.requirement.scoped_system,
                            study.definitions(),
                        )
                        .unwrap(),
                    RefinementModel::Failures => checker
                        .failures_refinement(
                            &sc.requirement.spec,
                            &sc.requirement.scoped_system,
                            study.definitions(),
                        )
                        .unwrap(),
                    RefinementModel::FailuresDivergences => checker
                        .failures_divergences_refinement(
                            &sc.requirement.spec,
                            &sc.requirement.scoped_system,
                            study.definitions(),
                        )
                        .unwrap(),
                };
                assert!(!verdict.is_pass());
                verdict
            });
        });
    }
}

fn r05_mac_models(c: &mut Criterion) {
    let checker = Checker::new();
    let mut group = c.benchmark_group("table3/R05");
    group.sample_size(10);
    group.bench_function("mac_verifying", |b| {
        b.iter(|| secured::check_script(secured::MAC_SCRIPT, &checker).unwrap());
    });
    group.bench_function("no_verification", |b| {
        b.iter(|| secured::check_script(secured::INSECURE_SCRIPT, &checker).unwrap());
    });
    group.bench_function("signatures", |b| {
        b.iter(|| secured::check_script(secured::SIGNATURE_SCRIPT, &checker).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    honest_requirements,
    attacked_requirements,
    r05_mac_models
);
criterion_main!(benches);
