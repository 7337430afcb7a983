//! # pamr-bench — shared fixtures for the benchmark runner and targets
//!
//! The `pamr-bench` binary (`src/bin/pamr_bench.rs`) is the measured
//! benchmark: campaign wall times, the paired optimized-vs-baseline lanes
//! (whose engine lanes also answer §6.4's runtime claim), the `scaling`
//! grid and the multi-process `shard` lane. The Criterion targets in
//! `benches/` cover only the code no lane times:
//!
//! * `theory_ratios` — Theorem 1 / Lemma 2 construction and evaluation cost;
//! * `scaling` — discrete- versus continuous-frequency model cost and the
//!   Frank–Wolfe iteration budget;
//! * `nocsim_throughput` — packet-simulator event throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use criterion::Criterion;
use pamr_mesh::Mesh;
use pamr_power::PowerModel;
use pamr_routing::CommSet;
use pamr_workload::{LengthTargetedWorkload, UniformWorkload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

/// Criterion configuration keeping the whole suite fast enough to run as a
/// single `cargo bench --workspace` pass (benchmarks here compare shapes,
/// not nanoseconds: 10 samples × ~1 s per measurement suffice).
pub fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
        .configure_from_args()
}

/// The campaign mesh (8×8).
pub fn mesh8() -> Mesh {
    Mesh::new(8, 8)
}

/// The campaign model.
pub fn model() -> PowerModel {
    PowerModel::kim_horowitz()
}

/// A deterministic uniform-workload instance.
pub fn uniform_instance(mesh: &Mesh, n: usize, w_min: f64, w_max: f64, seed: u64) -> CommSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    UniformWorkload::new(n, w_min, w_max).generate(mesh, &mut rng)
}

/// A deterministic length-targeted instance.
pub fn length_instance(
    mesh: &Mesh,
    n: usize,
    w_min: f64,
    w_max: f64,
    len: usize,
    seed: u64,
) -> CommSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    LengthTargetedWorkload::new(n, w_min, w_max, len).generate(mesh, &mut rng)
}
