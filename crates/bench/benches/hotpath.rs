//! Hot-path benchmarks for the allocation-free overhaul.
//!
//! * `hotpath_hom` — the iterative scratch-arena matcher against the
//!   recursive reference matcher on a join-heavy pattern;
//! * `hotpath_chase` — the optimised engines against the frozen seed
//!   engines on closure and existential workloads.
//!
//! Run with `cargo bench -p chase-bench --bench hotpath`.

use std::ops::ControlFlow;

use chase_bench::{closure_workload, existential_workload};
use chase_core::hom::{self, reference, HomScratch};
use chase_core::subst::Binding;
use chase_core::tgd::TgdId;
use chase_engine::oblivious::ObliviousChase;
use chase_engine::restricted::{Budget, RestrictedChase};
use chase_engine::seed::{SeedObliviousChase, SeedRestrictedChase};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Iterative vs recursive matcher, enumerating every homomorphism of
/// the closure body `E(x,y), E(y,z)` into a 40-node random graph.
fn hom_micro(c: &mut Criterion) {
    let (_vocab, set, instance) = closure_workload(40, 120);
    let body = set.tgd(TgdId(0)).body();
    let mut group = c.benchmark_group("hotpath_hom");
    group.bench_function("iterative_scratch", |b| {
        let mut scratch = HomScratch::new();
        let mut binding = Binding::new();
        b.iter(|| {
            let mut n = 0usize;
            let _ = hom::for_each_homomorphism_with(
                &mut scratch,
                body,
                &instance,
                &mut binding,
                &mut |_| {
                    n += 1;
                    ControlFlow::Continue(())
                },
            );
            black_box(n)
        });
    });
    group.bench_function("recursive_reference", |b| {
        let mut binding = Binding::new();
        b.iter(|| {
            let mut n = 0usize;
            let _ = reference::for_each_homomorphism(body, &instance, &mut binding, &mut |_| {
                n += 1;
                ControlFlow::Continue(())
            });
            black_box(n)
        });
    });
    group.finish();
}

/// Seed vs optimised engines, end to end.
fn chase_macro(c: &mut Criterion) {
    let budget = Budget::steps(100_000);
    let mut group = c.benchmark_group("hotpath_chase");
    group.sample_size(10);

    let (_v, cset, cdb) = closure_workload(32, 96);
    group.bench_function("closure_seed_restricted", |b| {
        let engine = SeedRestrictedChase::new(&cset);
        b.iter(|| black_box(engine.run(&cdb, budget)).steps);
    });
    group.bench_function("closure_optimised_restricted", |b| {
        let engine = RestrictedChase::new(&cset).record_derivation(false);
        b.iter(|| black_box(engine.run(&cdb, budget)).steps);
    });

    let (_v, eset, edb) = existential_workload(6, 40);
    group.bench_function("existential_seed_restricted", |b| {
        let engine = SeedRestrictedChase::new(&eset);
        b.iter(|| black_box(engine.run(&edb, budget)).steps);
    });
    group.bench_function("existential_optimised_restricted", |b| {
        let engine = RestrictedChase::new(&eset).record_derivation(false);
        b.iter(|| black_box(engine.run(&edb, budget)).steps);
    });
    group.bench_function("existential_seed_oblivious", |b| {
        let engine = SeedObliviousChase::new(&eset);
        b.iter(|| black_box(engine.run(&edb, budget)).steps);
    });
    group.bench_function("existential_optimised_oblivious", |b| {
        let engine = ObliviousChase::new(&eset);
        b.iter(|| black_box(engine.run(&edb, budget)).steps);
    });
    group.finish();
}

criterion_group!(hotpath, hom_micro, chase_macro);
criterion_main!(hotpath);
