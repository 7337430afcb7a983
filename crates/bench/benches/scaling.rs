//! Ablation benches for two design choices no `pamr-bench` lane times:
//!
//! * discrete versus continuous frequency evaluation cost (PR on one 8×8
//!   instance under each power model);
//! * the Frank–Wolfe bound's cost per iteration budget.
//!
//! Heuristic cost versus mesh size is the `pamr-bench scaling` lane.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pamr_bench::uniform_instance;
use pamr_mesh::Mesh;
use pamr_power::PowerModel;
use pamr_routing::{frank_wolfe, Heuristic, PathRemover};
use std::hint::black_box;

fn frequency_model_ablation(c: &mut Criterion) {
    let mesh = Mesh::new(8, 8);
    let discrete = PowerModel::kim_horowitz();
    let continuous = PowerModel::kim_horowitz_continuous();
    let cs = uniform_instance(&mesh, 40, 100.0, 2500.0, 99);
    let mut group = c.benchmark_group("frequency_model");
    group.bench_function("PR_discrete", |b| {
        b.iter(|| black_box(PathRemover.route(black_box(&cs), &discrete)))
    });
    group.bench_function("PR_continuous", |b| {
        b.iter(|| black_box(PathRemover.route(black_box(&cs), &continuous)))
    });
    group.finish();
}

fn frank_wolfe_budget(c: &mut Criterion) {
    let mesh = Mesh::new(8, 8);
    let model = PowerModel::theory(3.0);
    let cs = uniform_instance(&mesh, 20, 1.0, 5.0, 123);
    let mut group = c.benchmark_group("frank_wolfe");
    for iters in [10usize, 50, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(iters), &iters, |b, &it| {
            b.iter(|| black_box(frank_wolfe(black_box(&cs), &model, it)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = pamr_bench::quick();
    targets = frequency_model_ablation, frank_wolfe_budget
}
criterion_main!(benches);
