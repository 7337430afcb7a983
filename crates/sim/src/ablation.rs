//! Ablation studies for the design observations of §6.4:
//!
//! * "a lower value of the ratio `P_leak/P_0` would favor PR over other
//!   heuristics" — [`leak_sweep`] scales the leakage term and watches the
//!   XYI↔PR balance flip;
//! * "it may be interesting to design multi-path heuristics" (§7) —
//!   [`smp_sweep`] runs the s-MP lift of PR for growing `s` against the
//!   single-path baseline and the Frank–Wolfe max-MP bound.

use crate::runner::run_instance_with;
use crate::stats::fold_in_pool_order;
use pamr_mesh::Mesh;
use pamr_power::{FrequencyScale, PowerModel};
use pamr_routing::{
    frank_wolfe, Heuristic, HeuristicKind, PathRemover, RouteScratch, SortOrder, SplitMp, TwoBend,
};
use pamr_workload::UniformWorkload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// One row of the leakage ablation.
#[derive(Debug, Clone, Copy)]
pub struct LeakRow {
    /// The `P_leak` value used (mW).
    pub p_leak: f64,
    /// Instances where PR's power beat XYI's (both feasible).
    pub pr_wins: usize,
    /// Instances where XYI beat PR.
    pub xyi_wins: usize,
    /// Instances where both produced feasible routings.
    pub both_feasible: usize,
    /// Mean P(PR)/P(XYI) over instances where both succeeded.
    pub mean_ratio: f64,
}

/// Sweeps the leakage constant and reports how often PR beats XYI on the
/// campaign's mixed workload (30 communications, U\[100, 2500\] Mb/s).
pub fn leak_sweep(mesh: &Mesh, leaks: &[f64], trials: usize, seed: u64) -> Vec<LeakRow> {
    let gen = UniformWorkload::new(30, 100.0, 2500.0);
    leaks
        .iter()
        .map(|&p_leak| {
            let model = PowerModel {
                p_leak,
                ..PowerModel::kim_horowitz()
            };
            let deltas = per_trial(trials, |t, scratch| {
                let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
                let cs = gen.generate(mesh, &mut rng);
                let out = run_instance_with(&cs, &model, scratch);
                let pr = out.of(HeuristicKind::Pr);
                let xyi = out.of(HeuristicKind::Xyi);
                if pr.feasible && xyi.feasible {
                    let pr_better = pr.power < xyi.power;
                    (
                        pr_better as usize,
                        !pr_better as usize,
                        1usize,
                        pr.power / xyi.power,
                    )
                } else {
                    (0, 0, 0, 0.0)
                }
            });
            let add = |a: (usize, usize, usize, f64), b: (usize, usize, usize, f64)| {
                (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3)
            };
            let (pr_wins, xyi_wins, both, ratio_sum) =
                fold_in_pool_order(&deltas, || (0, 0, 0, 0.0), |a, &d| add(a, d), add);
            LeakRow {
                p_leak,
                pr_wins,
                xyi_wins,
                both_feasible: both,
                mean_ratio: if both == 0 {
                    0.0
                } else {
                    ratio_sum / both as f64
                },
            }
        })
        .collect()
}

/// One row of the s-MP ablation.
#[derive(Debug, Clone, Copy)]
pub struct SmpRow {
    /// Paths allowed per communication.
    pub s: usize,
    /// Feasible instances out of `trials`.
    pub successes: usize,
    /// Mean power over instances feasible at **every** s (comparable set).
    pub mean_power: f64,
}

/// Runs `trial` for every trial index on the work pool, one trial per
/// claim and one scratch per worker, and returns the results in trial
/// order.
fn per_trial<T: Send>(
    trials: usize,
    trial: impl Fn(usize, &mut RouteScratch) -> T + Send + Sync,
) -> Vec<T> {
    (0..trials)
        .into_par_iter()
        .with_max_len(1)
        .map_init(RouteScratch::new, |scratch, t| trial(t, scratch))
        .collect()
}

/// Per column of `powers` (one row per trial, `None` on failure): its
/// success count, and its mean power over the comparable set — the trials
/// on which every column succeeded — whose trial indices come last.
fn comparable_means(
    powers: &[Vec<Option<f64>>],
    columns: usize,
) -> (Vec<usize>, Vec<f64>, Vec<usize>) {
    let (mut successes, mut means, mut set) = (vec![0; columns], vec![0.0; columns], Vec::new());
    for (t, row) in powers.iter().enumerate() {
        for (count, p) in successes.iter_mut().zip(row) {
            *count += p.is_some() as usize;
        }
        if row.iter().all(Option::is_some) {
            set.push(t);
            for (mean, p) in means.iter_mut().zip(row.iter().flatten()) {
                *mean += p;
            }
        }
    }
    if !set.is_empty() {
        for mean in &mut means {
            *mean /= set.len() as f64;
        }
    }
    (successes, means, set)
}

/// Sweeps the split factor of `SplitMp<PathRemover>` on heavy traffic
/// (12 communications, U\[2000, 3400\] Mb/s) and reports success rates and
/// mean power, plus the continuous-frequency Frank–Wolfe reference.
pub fn smp_sweep(mesh: &Mesh, ss: &[usize], trials: usize, seed: u64) -> (Vec<SmpRow>, f64) {
    let gen = UniformWorkload::new(12, 2000.0, 3400.0);
    let model = PowerModel::kim_horowitz();
    // Per trial, evaluate every s on the same instance.
    let (powers, fw_lbs): (Vec<Vec<Option<f64>>>, Vec<f64>) = per_trial(trials, |t, scratch| {
        let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0xD1B5_4A33));
        let cs = gen.generate(mesh, &mut rng);
        let powers = ss
            .iter()
            .map(|&s| {
                let r = SplitMp::new(PathRemover, s).route_with(&cs, &model, scratch);
                r.power(&cs, &model).ok().map(|p| p.total())
            })
            .collect();
        let fw = frank_wolfe(
            &cs,
            &PowerModel {
                scale: FrequencyScale::Continuous,
                ..model.clone()
            },
            100,
        );
        (powers, fw.lower_bound)
    })
    .into_iter()
    .unzip();
    let (successes, means, set) = comparable_means(&powers, ss.len());
    let mut fw_mean = set.iter().fold(0.0, |sum, &t| sum + fw_lbs[t]);
    if !set.is_empty() {
        fw_mean /= set.len() as f64;
    }
    let rows = (ss.iter().zip(successes).zip(means))
        .map(|((&s, successes), mean_power)| SmpRow {
            s,
            successes,
            mean_power,
        })
        .collect();
    (rows, fw_mean)
}

/// One row of the processing-order ablation.
#[derive(Debug, Clone, Copy)]
pub struct OrderRow {
    /// The processing order.
    pub order: SortOrder,
    /// Feasible instances out of `trials`.
    pub successes: usize,
    /// Mean power over the instances where **all** orders succeeded.
    pub mean_power: f64,
}

/// Reproduces the §5 remark "it turns out that decreasing weights gives the
/// best results": runs TB under the three processing orders on the
/// campaign's mixed workload.
pub fn order_sweep(mesh: &Mesh, trials: usize, seed: u64) -> Vec<OrderRow> {
    let gen = UniformWorkload::new(30, 100.0, 2500.0);
    let model = PowerModel::kim_horowitz();
    let orders = [
        SortOrder::DecreasingWeight,
        SortOrder::DecreasingLength,
        SortOrder::DecreasingDensity,
    ];
    let powers = per_trial(trials, |t, scratch| {
        let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0xBF58_476D));
        let cs = gen.generate(mesh, &mut rng);
        (orders.iter())
            .map(|&order| {
                let r = TwoBend { order }.route_with(&cs, &model, scratch);
                r.power(&cs, &model).ok().map(|p| p.total())
            })
            .collect()
    });
    let (successes, means, _) = comparable_means(&powers, orders.len());
    (orders.into_iter().zip(successes).zip(means))
        .map(|((order, successes), mean_power)| OrderRow {
            order,
            successes,
            mean_power,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leak_sweep_flips_towards_pr_at_low_leakage() {
        let mesh = crate::paper_mesh();
        let rows = leak_sweep(&mesh, &[0.0, 80.0], 30, 11);
        assert_eq!(rows.len(), 2);
        let low = &rows[0];
        let high = &rows[1];
        assert!(low.both_feasible > 0);
        // With zero leakage PR (which ignores static power by design)
        // should win relatively more often than with heavy leakage.
        let low_rate = low.pr_wins as f64 / low.both_feasible.max(1) as f64;
        let high_rate = high.pr_wins as f64 / high.both_feasible.max(1) as f64;
        assert!(
            low_rate >= high_rate,
            "PR win rate should not increase with leakage: {low_rate} vs {high_rate}"
        );
    }

    #[test]
    fn order_sweep_shapes() {
        let mesh = crate::paper_mesh();
        let rows = order_sweep(&mesh, 25, 5);
        assert_eq!(rows.len(), 3);
        // Decreasing weight is the paper's winner: it should not lose
        // clearly on success count.
        assert!(rows[0].successes + 3 >= rows[1].successes);
        assert!(rows[0].successes + 3 >= rows[2].successes);
    }

    #[test]
    fn smp_sweep_shapes() {
        // Note: splitting relaxes the *problem*, but SplitMp<PR> is still a
        // heuristic — its success count is not guaranteed monotone in s
        // (the ablation binary shows exactly this). We only assert sanity:
        // every s finds solutions, and on the comparable set all powers sit
        // above the continuous max-MP lower bound.
        let mesh = crate::paper_mesh();
        let (rows, fw_lb) = smp_sweep(&mesh, &[1, 2, 4], 20, 3);
        assert!(rows.iter().all(|r| r.successes > 0));
        if rows.iter().all(|r| r.mean_power > 0.0) {
            assert!(fw_lb <= rows.iter().map(|r| r.mean_power).fold(f64::MAX, f64::min));
        }
    }
}
