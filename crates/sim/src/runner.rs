//! Runs all six routing policies (plus BEST) on a single instance.

use pamr_power::{PowerBreakdown, PowerModel};
use pamr_routing::{pick_best, CommSet, HeuristicKind, RouteScratch};
use std::time::Instant;

/// One policy's outcome on one instance.
#[derive(Debug, Clone, Copy)]
pub struct HeurResult {
    /// Which policy.
    pub kind: HeuristicKind,
    /// Did the routing respect every link bandwidth?
    pub feasible: bool,
    /// Total power when feasible (`f64::INFINITY` otherwise).
    pub power: f64,
    /// Static/dynamic decomposition when feasible.
    pub breakdown: Option<PowerBreakdown>,
    /// Wall-clock routing time in microseconds.
    pub micros: u64,
}

impl HeurResult {
    /// Inverse power, 0 on failure (the paper's plotted quantity before
    /// normalisation).
    pub fn inv_power(&self) -> f64 {
        if self.feasible {
            1.0 / self.power
        } else {
            0.0
        }
    }
}

/// All policies' outcomes on one instance, plus the virtual BEST.
#[derive(Debug, Clone)]
pub struct InstanceOutcome {
    /// Outcomes in [`HeuristicKind::ALL`] order.
    pub results: Vec<HeurResult>,
    /// Power of the best feasible routing, if any policy succeeded.
    pub best_power: Option<f64>,
    /// Which policy achieved it.
    pub best_kind: Option<HeuristicKind>,
}

impl InstanceOutcome {
    /// The outcome of a given policy.
    pub fn of(&self, kind: HeuristicKind) -> &HeurResult {
        self.results
            .iter()
            .find(|r| r.kind == kind)
            .expect("all kinds present")
    }
}

/// Routes the instance with every policy, timing each one.
pub fn run_instance(cs: &CommSet, model: &PowerModel) -> InstanceOutcome {
    run_instance_with(cs, model, &mut RouteScratch::new())
}

/// [`run_instance`] reusing `scratch`'s buffers — the campaign workers'
/// entry point, keeping the per-trial hot path free of repeated
/// allocations. Results are bit-identical to [`run_instance`].
pub fn run_instance_with(
    cs: &CommSet,
    model: &PowerModel,
    scratch: &mut RouteScratch,
) -> InstanceOutcome {
    let mut results = Vec::with_capacity(HeuristicKind::ALL.len());
    for kind in HeuristicKind::ALL {
        // pamr-lint: allow(D002, reason = "per-policy wall-clock timing; micros feed the stderr progress line and the bench harness, never a byte-compared report")
        let start = Instant::now();
        let routing = kind.route_with(cs, model, scratch);
        let micros = start.elapsed().as_micros() as u64;
        let (feasible, power, breakdown) = match routing.power(cs, model) {
            Ok(b) => (true, b.total(), Some(b)),
            Err(_) => (false, f64::INFINITY, None),
        };
        results.push(HeurResult {
            kind,
            feasible,
            power,
            breakdown,
            micros,
        });
    }
    let best = pick_best(
        results
            .iter()
            .map(|r| (r.feasible.then_some(r.power), r.kind)),
    );
    InstanceOutcome {
        results,
        best_power: best.map(|(p, _)| p),
        best_kind: best.map(|(_, k)| k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::trial_seed;
    use crate::experiments::campaign_figures;
    use pamr_mesh::{Coord, Mesh};
    use pamr_routing::{Best, Comm};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// `Best::route` and `run_instance` name the same policy with the same
    /// power bits (XY and no power when every policy fails).
    fn assert_best_agrees(cs: &CommSet, model: &PowerModel) {
        let best = Best.route(cs, model);
        let out = run_instance(cs, model);
        assert_eq!(best.kind, out.best_kind.unwrap_or(HeuristicKind::Xy));
        assert_eq!(
            best.power.map(f64::to_bits),
            out.best_power.map(f64::to_bits)
        );
    }

    #[test]
    fn best_is_min_over_feasible() {
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        );
        let model = PowerModel::fig2();
        let out = run_instance(&cs, &model);
        assert_eq!(out.results.len(), 6);
        let best = out.best_power.unwrap();
        for r in &out.results {
            if r.feasible {
                assert!(best <= r.power + 1e-12);
                assert!((r.inv_power() - 1.0 / r.power).abs() < 1e-15);
            } else {
                assert_eq!(r.inv_power(), 0.0);
            }
        }
        // On Fig. 2, best single-path power is 56.
        assert!((best - 56.0).abs() < 1e-9);
        assert_ne!(out.best_kind, Some(HeuristicKind::Xy));
        assert_best_agrees(&cs, &model);
        // The first and last point of every §6 sub-figure: feasible
        // instances, ties between policies, and instances every policy fails.
        let (mesh, model) = (crate::paper_mesh(), crate::paper_model());
        for (pi, exp) in campaign_figures().iter().flatten().enumerate() {
            for point in [&exp.points[0], &exp.points[exp.points.len() - 1]] {
                let mut rng = SmallRng::seed_from_u64(trial_seed(7, pi, 0));
                assert_best_agrees(&point.workload.generate(&mesh, &mut rng), &model);
            }
        }
    }

    #[test]
    fn impossible_instance_reports_all_failures() {
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![Comm::new(Coord::new(0, 0), Coord::new(1, 1), 9.0)],
        );
        let model = PowerModel::fig2(); // BW = 4 < 9
        let out = run_instance(&cs, &model);
        assert!(out.best_power.is_none());
        assert!(out.results.iter().all(|r| !r.feasible));
    }
}
