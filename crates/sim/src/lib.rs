//! # pamr-sim — the paper's simulation campaign, reproducible
//!
//! Reproduces every figure and statistic of Section 6 of *Power-aware
//! Manhattan routing on chip multiprocessors*:
//!
//! * [`experiments::fig7`] — sensitivity to the **number** of
//!   communications (small / mixed / big weights);
//! * [`experiments::fig8`] — sensitivity to the **size** (average weight)
//!   of communications (10 / 20 / 40 communications);
//! * [`experiments::fig9`] — sensitivity to the average **length** of
//!   communications (three weight regimes);
//! * [`summary`] — the §6.4 aggregate statistics: per-heuristic success
//!   rates, inverse-power ratios versus XY, the static-power fraction and
//!   mean heuristic runtimes.
//!
//! Every experiment runs on the paper's platform: an 8×8 CMP with the
//! Kim–Horowitz discrete link model (`P_leak` = 16.9 mW, `P_0` = 5.41,
//! `α` = 2.95, frequencies {1, 2.5, 3.5} Gb/s). Trials are seeded and
//! fanned out over the multi-threaded [`campaign`] engine (byte-identical
//! results at any thread count — see [`campaign::Campaign`]); plotted
//! quantities match the paper's: the **inverse** of the power of each
//! heuristic (0 on failure), normalised by the inverse of the power of
//! BEST, plus the failure ratio.
//!
//! Binaries: `fig2`, `fig7`, `fig8`, `fig9`, `summary`, `theory` — one per
//! paper artefact, each printing the series the corresponding figure
//! plots (and writing CSV when `--csv DIR` is given). All campaign
//! binaries accept `--threads N` up to [`cli::MAX_THREADS`];
//! `RAYON_NUM_THREADS` works too, unbounded as in real rayon.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
pub mod cli;
pub mod experiments;
pub mod frontier;
pub mod runner;
pub mod serve;
pub mod shard;
pub mod stats;
pub mod summary;
pub mod table;
pub mod testutil;
pub mod viz;

pub use campaign::{experiment_seed, trial_seed, Campaign, ShardSpec};
pub use experiments::{Experiment, ExperimentResult, SweepPoint, WorkloadSpec};
pub use frontier::{merge_frontier, FrontierPartial, FrontierReport, FRONTIER_SCHEMA};
pub use runner::{run_instance, run_instance_with, HeurResult, InstanceOutcome};
pub use shard::{merge_partials, MergeError, MergedCampaign, PartialPoint, ShardPartial};
pub use stats::{HeurAgg, PointStats};

/// The campaign platform: the paper's 8×8 CMP.
pub fn paper_mesh() -> pamr_mesh::Mesh {
    pamr_mesh::Mesh::new(8, 8)
}

/// The campaign power model (Kim–Horowitz fit, discrete frequencies).
pub fn paper_model() -> pamr_power::PowerModel {
    pamr_power::PowerModel::kim_horowitz()
}
