//! The multi-threaded campaign engine: [`Campaign::run_grid`] walks the
//! §6 grid (figure → experiment → point) and fans the trials of every
//! sweep point out over the rayon work-pool, with per-trial seeds and
//! per-worker scratch reuse. It is the one runner behind `summary`,
//! `fig7`–`fig9`, `pamr shard` and `pamr-bench run`.
//!
//! The §6 campaign is embarrassingly parallel — every trial draws its own
//! instance from a seed derived from `(experiment, point, trial)` — the
//! same structure Pettersson & Ozlen (arXiv:1701.08920) exploit for
//! parallel bi-objective sweeps. Workers claim one trial at a time, and
//! each trial's outcome lands at its index. Two properties make the
//! fan-out safe:
//!
//! * **Determinism.** Seeds depend only on indices, never on scheduling,
//!   and the outcomes fold into a [`PointStats`] afterwards, in an order
//!   fixed by the trial count alone ([`PointStats::of_trials`]), so the
//!   campaign output is byte-identical at any thread count.
//! * **Allocation discipline.** Each worker carries one [`RouteScratch`]
//!   per sweep point, built on its first trial, so the routing hot paths
//!   reuse load maps, sorted link lists and reachability buffers across
//!   all trials the worker claims instead of reallocating them per
//!   heuristic call.

use crate::experiments::{campaign_figures, grid, SweepPoint};
use crate::runner::{run_instance_with, InstanceOutcome};
use crate::shard::{merge_partials, PartialPoint, ShardPartial};
use crate::stats::PointStats;
use pamr_mesh::Mesh;
use pamr_power::PowerModel;
use pamr_routing::{EngineConfig, MeshPrecompute, RouteScratch};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The slice of sweep points one process owns in a multi-process campaign.
///
/// Shard `(index, count)` owns every sweep point `p` with
/// `p % count == index` (indices are per experiment). Because every trial's
/// seed depends only on `(experiment, point, trial)` indices, a shard
/// computes exactly the per-point statistics the single-process run would,
/// bit for bit — recombining the shards in point order reproduces the
/// unsharded campaign byte-identically (see [`crate::shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This shard's index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// The trivial shard: one process owns every sweep point.
    pub const FULL: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// Creates a shard spec, validating `index < count`.
    pub fn new(index: usize, count: usize) -> ShardSpec {
        assert!(count > 0, "shard count must be positive");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        ShardSpec { index, count }
    }

    /// Parses the CLI form `i/N` (e.g. `0/2`).
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("bad shard spec {s:?}: expected i/N (e.g. 0/2)"))?;
        let index: usize = i
            .parse()
            .map_err(|_| format!("bad shard index {i:?} in {s:?}"))?;
        let count: usize = n
            .parse()
            .map_err(|_| format!("bad shard count {n:?} in {s:?}"))?;
        if count == 0 {
            return Err(format!("bad shard spec {s:?}: count must be positive"));
        }
        if index >= count {
            return Err(format!("bad shard spec {s:?}: index must be < count"));
        }
        Ok(ShardSpec { index, count })
    }

    /// Does this shard own sweep point `point_index`?
    pub fn owns(&self, point_index: usize) -> bool {
        point_index % self.count == self.index
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One campaign: a platform, a trial budget, a master seed and the shard of
/// sweep points this process owns.
#[derive(Debug, Clone, Copy)]
pub struct Campaign<'a> {
    /// The mesh every instance lives on.
    pub mesh: &'a Mesh,
    /// The link power model.
    pub model: &'a PowerModel,
    /// Random trials per sweep point.
    pub trials: usize,
    /// Master seed; every trial derives its own stream from it.
    pub seed: u64,
    /// The sweep points this process owns ([`ShardSpec::FULL`] = all).
    pub shard: ShardSpec,
    /// Shared per-mesh precompute handed (as `Arc` clones) to every
    /// worker's scratch, so endpoint tables are built once per `(src, snk)`
    /// pair for the whole campaign. `None`: [`Campaign::run_point`] builds
    /// a fresh one per call, [`Campaign::run_grid`] one for the whole grid.
    /// Caching never changes results — the tables are pure functions of
    /// `(mesh, src, snk)` — so determinism and shard/merge byte-identity
    /// are untouched.
    pub pre: Option<&'a Arc<MeshPrecompute>>,
    /// Engine selection pinned onto every worker's scratch
    /// ([`EngineConfig::LIVE`] in production; the differential suites run
    /// whole campaigns on [`EngineConfig::REFERENCE`]).
    pub engine: EngineConfig,
}

/// SplitMix64 finalizer: a full-avalanche bijection on `u64` (every input
/// bit flips every output bit with probability ≈ 1/2).
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of one `(sweep point, trial)` pair.
///
/// The index mix is finalized through two SplitMix64 avalanche rounds:
/// a bare XOR of index products (the previous layout) hands `SmallRng`
/// linearly-related seeds whose low bits move in lock-step across
/// neighbouring trials. The double finalization decorrelates the stages, so
/// neighbouring `(point, trial)` pairs get statistically independent
/// streams.
pub fn trial_seed(campaign_seed: u64, point_index: usize, trial: usize) -> u64 {
    let stage = splitmix64(
        campaign_seed.wrapping_add((point_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    splitmix64(stage.wrapping_add((trial as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)))
}

/// Seed of one experiment within the pooled summary campaign, finalized
/// through the same avalanche as [`trial_seed`].
pub fn experiment_seed(campaign_seed: u64, figure_index: usize, exp_index: usize) -> u64 {
    splitmix64(
        campaign_seed.wrapping_add(
            ((figure_index * 16 + exp_index) as u64).wrapping_mul(0xA076_1D64_78BD_642F),
        ),
    )
}

impl<'a> Campaign<'a> {
    /// A single-process campaign on the live engines: every sweep point
    /// owned, a precompute built per run.
    pub fn new(mesh: &'a Mesh, model: &'a PowerModel, trials: usize, seed: u64) -> Campaign<'a> {
        Campaign {
            mesh,
            model,
            trials,
            seed,
            shard: ShardSpec::FULL,
            pre: None,
            engine: EngineConfig::LIVE,
        }
    }
}

impl Campaign<'_> {
    /// Runs all trials of one sweep point in parallel, one trial per
    /// claim, and folds their statistics deterministically
    /// ([`PointStats::of_trials`]). The point's outcomes are held until the
    /// fold.
    pub fn run_point(&self, point_index: usize, point: &SweepPoint) -> PointStats {
        let (mesh, model, seed) = (self.mesh, self.model, self.seed);
        let shared = match self.pre {
            Some(p) => Arc::clone(p),
            None => Arc::new(MeshPrecompute::new(*mesh)),
        };
        let outcomes: Vec<InstanceOutcome> = (0..self.trials)
            .into_par_iter()
            .with_max_len(1)
            .map_init(
                || {
                    let mut scratch = RouteScratch::with_engine(self.engine);
                    scratch.attach_precompute(Arc::clone(&shared));
                    scratch
                },
                |scratch, t| {
                    let mut rng = SmallRng::seed_from_u64(trial_seed(seed, point_index, t));
                    let cs = point.workload.generate(mesh, &mut rng);
                    run_instance_with(&cs, model, scratch)
                },
            )
            .collect();
        PointStats::of_trials(&outcomes)
    }

    /// The one runner of the §6 grid: every sweep point this campaign's
    /// shard owns, of figure group `figure` (0 = fig7, 1 = fig8, 2 = fig9)
    /// or of all three (`None`), in canonical figure → experiment → point
    /// order. Experiment `(fi, ei)` runs under
    /// [`experiment_seed`]`(seed, fi, ei)` and each point through
    /// [`Campaign::run_point`], so `summary`, `pamr shard` and `fig7`–`fig9`
    /// compute the same per-point statistics. Without a caller's
    /// precompute, one is built and shared by every point.
    pub fn run_grid(&self, figure: Option<usize>) -> Vec<PartialPoint> {
        let pre = self
            .pre
            .map_or_else(|| Arc::new(MeshPrecompute::new(*self.mesh)), Arc::clone);
        let figures = campaign_figures();
        grid(&figures)
            .filter(|g| figure.is_none_or(|f| f == g.figure) && self.shard.owns(g.point_index))
            .map(|g| PartialPoint {
                figure: g.figure,
                experiment: g.experiment,
                exp_id: g.exp.id.to_string(),
                point_index: g.point_index,
                x: g.point.x,
                stats: Campaign {
                    seed: experiment_seed(self.seed, g.figure, g.experiment),
                    pre: Some(&pre),
                    ..*self
                }
                .run_point(g.point_index, g.point),
            })
            .collect()
    }

    /// The whole §6 campaign pooled into one accumulator: [`merge_partials`]
    /// over this campaign's one partial, the pooling `pamr merge` does over
    /// N shards. Needs [`ShardSpec::FULL`]; a partial shard fails the
    /// merge's completeness check.
    pub fn run_pooled(&self) -> PointStats {
        merge_partials(std::slice::from_ref(&ShardPartial::of(self)))
            .expect("run_pooled needs the full shard")
            .pooled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::WorkloadSpec;
    use pamr_workload::UniformWorkload;

    fn tiny_points() -> Vec<SweepPoint> {
        [(6, 1500.0), (12, 2500.0)]
            .map(|(n, w_max)| SweepPoint {
                x: n as f64,
                workload: WorkloadSpec::Uniform(UniformWorkload::new(n, 100.0, w_max)),
            })
            .to_vec()
    }

    #[test]
    fn campaign_bit_identical_across_thread_counts() {
        let mesh = crate::paper_mesh();
        let model = crate::paper_model();
        let points = tiny_points();
        // Eight trials or fewer make one fold run, yet still spread over
        // the workers.
        for trials in [1, 5, 10, 20] {
            let campaign = Campaign::new(&mesh, &model, trials, 42);
            let run = |threads: usize| {
                rayon::set_num_threads(threads);
                let out: Vec<Vec<u64>> = (points.iter().enumerate())
                    .map(|(pi, point)| campaign.run_point(pi, point).fingerprint())
                    .collect();
                rayon::set_num_threads(0);
                out
            };
            let one = run(1);
            for threads in [2, 4, 9] {
                assert_eq!(
                    run(threads),
                    one,
                    "{threads}-thread campaign of {trials} trials diverged from 1-thread"
                );
            }
        }
    }

    #[test]
    fn trial_seeds_are_disjoint_streams() {
        // No collisions across a grid of points × trials, nor against the
        // experiment seeds the pooled campaign derives from the same master.
        let mut seen = std::collections::HashSet::new();
        for pi in 0..40 {
            for t in 0..200 {
                assert!(
                    seen.insert(trial_seed(7, pi, t)),
                    "seed collision at ({pi},{t})"
                );
            }
        }
        for fi in 0..3 {
            for ei in 0..3 {
                assert!(
                    seen.insert(experiment_seed(7, fi, ei)),
                    "experiment seed collision at ({fi},{ei})"
                );
            }
        }
    }

    #[test]
    fn trial_seeds_avalanche() {
        // Neighbouring indices must produce statistically unrelated seeds:
        // roughly half the 64 bits flip, and the deltas between consecutive
        // trial seeds are not constant (the old XOR-of-products layout
        // handed SmallRng linearly-related seeds).
        let mut deltas = std::collections::HashSet::new();
        for t in 0..64usize {
            let a = trial_seed(7, 3, t);
            let b = trial_seed(7, 3, t + 1);
            let flipped = (a ^ b).count_ones();
            assert!(
                (16..=48).contains(&flipped),
                "weak avalanche between trials {t} and {}: {flipped} bits",
                t + 1
            );
            deltas.insert(b.wrapping_sub(a));
        }
        assert!(
            deltas.len() > 60,
            "consecutive trial seeds look affine: only {} distinct deltas",
            deltas.len()
        );
        // Same for a single-bit change of the master seed.
        let flipped = (trial_seed(7, 3, 5) ^ trial_seed(6, 3, 5)).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "master-seed avalanche: {flipped}"
        );
    }

    #[test]
    fn sharded_points_are_bit_equal_to_the_full_run() {
        let mesh = crate::paper_mesh();
        let model = crate::paper_model();
        let full = Campaign::new(&mesh, &model, 2, 11);
        // Figure 8: its 40 sweep points route at most 40 communications.
        let key = |p: &PartialPoint| (p.figure, p.experiment, p.point_index, p.x.to_bits());
        let all = full.run_grid(Some(1));
        for count in [2, 3] {
            let mut got: Vec<PartialPoint> = (0..count)
                .flat_map(|index| {
                    let shard = ShardSpec::new(index, count);
                    Campaign { shard, ..full }.run_grid(Some(1))
                })
                .collect();
            got.sort_by_key(key);
            assert_eq!(got.len(), all.len(), "{count} shards do not cover fig8");
            for (a, b) in all.iter().zip(&got) {
                assert_eq!(key(a), key(b));
                assert_eq!(
                    a.stats.fingerprint(),
                    b.stats.fingerprint(),
                    "shard {count}-way diverged at {} point {}",
                    a.exp_id,
                    a.point_index
                );
            }
        }
    }
}
