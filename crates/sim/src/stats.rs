//! Trial accumulators for sweep points, and the one order in which a sweep
//! point's trials fold into them.

use crate::runner::InstanceOutcome;
use pamr_routing::HeuristicKind;
use serde::{Deserialize, Serialize};

/// Per-policy accumulator over the trials of one sweep point.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct HeurAgg {
    /// Trials on which the policy produced a feasible routing.
    pub successes: usize,
    /// Σ (P_BEST / P_heur) over trials where BEST exists (0 on failure) —
    /// the paper's normalised power inverse.
    pub sum_norm_inv: f64,
    /// Σ 1/P_heur over all trials (0 on failure) — the absolute inverse
    /// used by the §6.4 ratios.
    pub sum_inv: f64,
    /// Σ routing wall-time (µs) over all trials.
    pub sum_micros: u64,
    /// Σ static-power fraction over successful trials.
    pub sum_static_frac: f64,
}

impl HeurAgg {
    fn absorb(&mut self, other: &HeurAgg) {
        self.successes += other.successes;
        self.sum_norm_inv += other.sum_norm_inv;
        self.sum_inv += other.sum_inv;
        self.sum_micros += other.sum_micros;
        self.sum_static_frac += other.sum_static_frac;
    }
}

/// Accumulated statistics of one sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PointStats {
    /// Number of trials accumulated.
    pub trials: usize,
    /// Trials where at least one policy succeeded (BEST exists).
    pub best_successes: usize,
    /// Σ 1/P_BEST over the trials where BEST exists — BEST's absolute
    /// inverse power pooled per trial, the §6.4 ratio's true numerator
    /// (the per-policy maximum of mean ratios is only a lower bound).
    pub sum_best_inv: f64,
    /// Σ static-power fraction of the BEST routing over the trials where
    /// BEST exists (§6.4's "successful routings").
    pub sum_best_static_frac: f64,
    /// Per-policy aggregates, in [`HeuristicKind::ALL`] order.
    pub per_heur: Vec<HeurAgg>,
}

impl Default for PointStats {
    fn default() -> Self {
        PointStats {
            trials: 0,
            best_successes: 0,
            sum_best_inv: 0.0,
            sum_best_static_frac: 0.0,
            per_heur: vec![HeurAgg::default(); HeuristicKind::ALL.len()],
        }
    }
}

impl PointStats {
    /// Folds one instance outcome into the accumulator.
    pub fn add(&mut self, out: &InstanceOutcome) {
        self.trials += 1;
        if let (Some(best), Some(kind)) = (out.best_power, out.best_kind) {
            self.best_successes += 1;
            self.sum_best_inv += 1.0 / best;
            self.sum_best_static_frac +=
                out.of(kind).breakdown.map_or(0.0, |b| b.static_fraction());
        }
        for (slot, r) in self.per_heur.iter_mut().zip(&out.results) {
            slot.sum_micros += r.micros;
            slot.sum_inv += r.inv_power();
            if r.feasible {
                slot.successes += 1;
                slot.sum_static_frac += r.breakdown.map_or(0.0, |b| b.static_fraction());
            }
            if let Some(best) = out.best_power {
                // Normalised inverse: (1/P_h)/(1/P_BEST) = P_BEST / P_h.
                slot.sum_norm_inv += if r.feasible { best / r.power } else { 0.0 };
            }
        }
    }

    /// The statistics of a sweep point's trials, `outcomes[t]` being trial
    /// `t`'s: [`PointStats::add`] and [`PointStats::merge`] applied in the
    /// pool order of `fold_in_pool_order`, which depends on the number of
    /// trials alone.
    pub fn of_trials(outcomes: &[InstanceOutcome]) -> PointStats {
        fold_in_pool_order(
            outcomes,
            PointStats::default,
            |mut stats, out| {
                stats.add(out);
                stats
            },
            PointStats::merge,
        )
    }

    /// Merges two accumulators (the combine step of
    /// [`PointStats::of_trials`] and of the shard merge).
    pub fn merge(mut self, other: PointStats) -> PointStats {
        self.trials += other.trials;
        self.best_successes += other.best_successes;
        self.sum_best_inv += other.sum_best_inv;
        self.sum_best_static_frac += other.sum_best_static_frac;
        for (a, b) in self.per_heur.iter_mut().zip(&other.per_heur) {
            a.absorb(b);
        }
        self
    }

    /// Mean normalised power inverse of a policy (the y-value of the
    /// paper's upper plots), averaged over the trials where BEST exists.
    pub fn norm_inv(&self, kind: HeuristicKind) -> f64 {
        let agg = &self.per_heur[Self::idx(kind)];
        if self.best_successes == 0 {
            0.0
        } else {
            agg.sum_norm_inv / self.best_successes as f64
        }
    }

    /// Failure ratio of a policy (the y-value of the paper's lower plots).
    pub fn failure_ratio(&self, kind: HeuristicKind) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            1.0 - self.per_heur[Self::idx(kind)].successes as f64 / self.trials as f64
        }
    }

    /// Failure ratio of BEST (all policies fail).
    pub fn best_failure_ratio(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            1.0 - self.best_successes as f64 / self.trials as f64
        }
    }

    /// Every deterministic field, bit for bit, in the order the golden
    /// §6.4 fixture stores them: trials, BEST's counters, then per policy
    /// successes, `sum_norm_inv`, `sum_inv` and `sum_static_frac`. The
    /// wall-clock `sum_micros` is left out. Equal fingerprints mean equal
    /// statistics; the determinism and shard tests compare these.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut out = vec![
            self.trials as u64,
            self.best_successes as u64,
            self.sum_best_inv.to_bits(),
            self.sum_best_static_frac.to_bits(),
        ];
        for agg in &self.per_heur {
            out.extend([
                agg.successes as u64,
                agg.sum_norm_inv.to_bits(),
                agg.sum_inv.to_bits(),
                agg.sum_static_frac.to_bits(),
            ]);
        }
        out
    }

    /// Mean routing time of a policy in milliseconds.
    pub fn mean_millis(&self, kind: HeuristicKind) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.per_heur[Self::idx(kind)].sum_micros as f64 / self.trials as f64 / 1000.0
        }
    }

    /// Mean absolute inverse power of a policy over all trials.
    pub fn mean_inv(&self, kind: HeuristicKind) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.per_heur[Self::idx(kind)].sum_inv / self.trials as f64
        }
    }

    /// Mean absolute inverse power of BEST over all trials (0 contribution
    /// from trials where every policy fails — same convention as
    /// [`PointStats::mean_inv`], so the §6.4 ratios compare like with like).
    pub fn best_mean_inv(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.sum_best_inv / self.trials as f64
        }
    }

    /// Mean static-power fraction of the BEST routing over the trials where
    /// a routing succeeded (§6.4's "successful routings").
    pub fn best_mean_static_fraction(&self) -> f64 {
        if self.best_successes == 0 {
            0.0
        } else {
            self.sum_best_static_frac / self.best_successes as f64
        }
    }

    /// Mean static-power fraction of a policy over its successful trials.
    pub fn mean_static_fraction(&self, kind: HeuristicKind) -> f64 {
        let agg = &self.per_heur[Self::idx(kind)];
        if agg.successes == 0 {
            0.0
        } else {
            agg.sum_static_frac / agg.successes as f64
        }
    }

    fn idx(kind: HeuristicKind) -> usize {
        HeuristicKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind in ALL")
    }
}

/// Folds `items` in the association campaign reports have always used —
/// the one the work-pool's own `fold(identity, add).reduce(identity,
/// merge)` gave before the pool dropped its reductions: `add` over runs of
/// 8 items from `identity()`, `merge` over runs of 8 of those results from
/// `identity()`, then `merge` over the runs, left to right.
///
/// The two 8s are fixed, not tuned: IEEE sums do not associate, so this
/// grouping is part of every output, and shard partials written by earlier
/// builds and the benchmark's stepwise replay rely on it. The test
/// `pool_order_keeps_the_recorded_fold_reduce_bits` pins it to the bits
/// that fold/reduce returned. The grouping depends only on `items.len()`,
/// so the caller may compute the items on any schedule.
pub(crate) fn fold_in_pool_order<T, A>(
    items: &[T],
    identity: impl Fn() -> A,
    add: impl Fn(A, &T) -> A,
    merge: impl Fn(A, A) -> A,
) -> A {
    const RUN: usize = 8;
    let mut runs = items
        .chunks(RUN)
        .map(|run| run.iter().fold(identity(), &add))
        .peekable();
    let mut total = identity();
    while runs.peek().is_some() {
        let group = runs.by_ref().take(RUN).fold(identity(), &merge);
        total = merge(total, group);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_instance;
    use pamr_mesh::{Coord, Mesh};
    use pamr_power::PowerModel;
    use pamr_routing::{Comm, CommSet};

    fn outcome() -> InstanceOutcome {
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        );
        run_instance(&cs, &PowerModel::fig2())
    }

    #[test]
    fn accumulation_and_ratios() {
        let mut ps = PointStats::default();
        ps.add(&outcome());
        ps.add(&outcome());
        assert_eq!(ps.trials, 2);
        assert_eq!(ps.best_successes, 2);
        // XY is feasible on Fig. 2 (exactly at capacity): norm inv = 56/128.
        let xy = ps.norm_inv(HeuristicKind::Xy);
        assert!((xy - 56.0 / 128.0).abs() < 1e-9, "{xy}");
        assert_eq!(ps.failure_ratio(HeuristicKind::Xy), 0.0);
        // The best policy scores exactly 1.
        let max = HeuristicKind::ALL
            .iter()
            .map(|&k| ps.norm_inv(k))
            .fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        assert_eq!(ps.best_failure_ratio(), 0.0);
        // BEST's pooled absolute inverse: both trials route at power 56.
        assert!((ps.sum_best_inv - 2.0 / 56.0).abs() < 1e-15);
        assert!((ps.best_mean_inv() - 1.0 / 56.0).abs() < 1e-15);
        // BEST's inverse dominates every policy's pooled inverse.
        for k in HeuristicKind::ALL {
            assert!(ps.best_mean_inv() >= ps.mean_inv(k) - 1e-15, "{k}");
        }
        // The BEST static fraction is a real per-trial mean (0 here: the
        // Fig. 2 model has no leakage term).
        let sf = ps.best_mean_static_fraction();
        assert!((0.0..1.0).contains(&sf), "{sf}");
    }

    #[test]
    fn merge_is_additive() {
        let mut a = PointStats::default();
        a.add(&outcome());
        let mut b = PointStats::default();
        b.add(&outcome());
        b.add(&outcome());
        let m = a.merge(b);
        assert_eq!(m.trials, 3);
        assert_eq!(m.best_successes, 3);
        assert!((m.sum_best_inv - 3.0 / 56.0).abs() < 1e-15);
    }

    #[test]
    fn pool_order_keeps_the_recorded_fold_reduce_bits() {
        // Terms over nine decades, so the f64 sum's bits depend on how it
        // is associated. Each constant is what the work-pool's former
        // `into_par_iter().map(term).fold(|| 0.0, add).reduce(|| 0.0, add)`
        // returned at 1 and 3 threads; the starred lengths differ from a
        // left fold.
        let term = |i: usize| ((i * 7919) % 1013) as f64 * 10f64.powi((i % 9) as i32 - 4);
        for (len, bits) in [
            (0, 0x0000000000000000),
            (1, 0x0000000000000000),
            (7, 0x40f6a860ed916873),
            (8, 0x412923fc1db22d0e),
            (9, 0x4157f88783b645a2),
            (64, 0x418678407f889a03),  // *
            (65, 0x41867840820fc505),  // *
            (512, 0x41b24a81c6397f63), // *
            (513, 0x41b2971b26397f63), // *
            (700, 0x41b9b92e7d09e83f), // *
        ] {
            let items: Vec<f64> = (0..len).map(term).collect();
            let ours = fold_in_pool_order(&items, || 0.0, |a, x| a + x, |a, b| a + b);
            assert_eq!(ours.to_bits(), bits, "{len} items");
        }
    }

    #[test]
    fn zero_trials_edge_cases() {
        let ps = PointStats::default();
        assert_eq!(ps.norm_inv(HeuristicKind::Pr), 0.0);
        assert_eq!(ps.failure_ratio(HeuristicKind::Pr), 0.0);
        assert_eq!(ps.mean_millis(HeuristicKind::Pr), 0.0);
        assert_eq!(ps.mean_static_fraction(HeuristicKind::Pr), 0.0);
        assert_eq!(ps.best_mean_inv(), 0.0);
        assert_eq!(ps.best_mean_static_fraction(), 0.0);
    }
}
