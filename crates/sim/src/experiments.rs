//! The figure definitions of §6 and the canonical walk over them (the
//! sweep runner lives in [`crate::campaign`]).

use crate::stats::PointStats;
use pamr_mesh::Mesh;
use pamr_routing::CommSet;
use pamr_workload::{LengthTargetedWorkload, UniformWorkload};
use rand::rngs::SmallRng;
use serde::Serialize;

/// The workload of one sweep point.
#[derive(Debug, Clone, Copy, Serialize)]
pub enum WorkloadSpec {
    /// Uniform random sources/sinks and weights (Figures 7 & 8).
    Uniform(UniformWorkload),
    /// Length-targeted source/sink pairs (Figure 9).
    Length(LengthTargetedWorkload),
}

impl WorkloadSpec {
    /// Draws one instance.
    pub fn generate(&self, mesh: &Mesh, rng: &mut SmallRng) -> CommSet {
        match self {
            WorkloadSpec::Uniform(w) => w.generate(mesh, rng),
            WorkloadSpec::Length(w) => w.generate(mesh, rng),
        }
    }
}

/// One x-position of a figure.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepPoint {
    /// The x-value the paper plots (number / average weight / length).
    pub x: f64,
    /// The generator at this x.
    pub workload: WorkloadSpec,
}

/// One sub-figure: an id, a description and its sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Experiment {
    /// Short id, e.g. `"fig7a"`.
    pub id: &'static str,
    /// Human-readable title (the paper's caption).
    pub title: &'static str,
    /// Label of the swept parameter.
    pub xlabel: &'static str,
    /// The sweep.
    pub points: Vec<SweepPoint>,
}

/// Results of a full sweep: per point, the accumulated statistics.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentResult {
    /// The experiment id.
    pub id: &'static str,
    /// `(x, stats)` per sweep point.
    pub points: Vec<(f64, PointStats)>,
}

/// Figure 7: sensitivity to the **number** of communications.
///
/// * (a) small weights U\[100, 1500\] Mb/s, n ∈ 10..140;
/// * (b) mixed weights U\[100, 2500\], n ∈ 5..70;
/// * (c) big weights U\[2500, 3500\], n ∈ 2..30.
pub fn fig7() -> Vec<Experiment> {
    let mk = |id, title, w_min, w_max, ns: Vec<usize>| Experiment {
        id,
        title,
        xlabel: "number of communications",
        points: ns
            .into_iter()
            .map(|n| SweepPoint {
                x: n as f64,
                workload: WorkloadSpec::Uniform(UniformWorkload::new(n, w_min, w_max)),
            })
            .collect(),
    };
    vec![
        mk(
            "fig7a",
            "small communications (U[100,1500] Mb/s)",
            100.0,
            1500.0,
            (1..=14).map(|k| 10 * k).collect(),
        ),
        mk(
            "fig7b",
            "mixed communications (U[100,2500] Mb/s)",
            100.0,
            2500.0,
            (1..=14).map(|k| 5 * k).collect(),
        ),
        mk(
            "fig7c",
            "big communications (U[2500,3500] Mb/s)",
            2500.0,
            3500.0,
            (1..=15).map(|k| 2 * k).collect(),
        ),
    ]
}

/// Figure 8: sensitivity to the **size** (weight) of communications.
///
/// Every weight is drawn exactly at the swept average; PAPER.md's
/// "Reproduction notes" give the reason.
///
/// * (a) 10 communications, w̄ ∈ 100..3500;
/// * (b) 20 communications, same sweep;
/// * (c) 40 communications, w̄ ∈ 100..1800.
pub fn fig8() -> Vec<Experiment> {
    let mk = |id, title, n: usize, ws: Vec<usize>| Experiment {
        id,
        title,
        xlabel: "average weight (Mb/s)",
        points: ws
            .into_iter()
            .map(|w| SweepPoint {
                x: w as f64,
                workload: WorkloadSpec::Uniform(UniformWorkload::new(n, w as f64, w as f64)),
            })
            .collect(),
    };
    vec![
        mk(
            "fig8a",
            "few communications (10)",
            10,
            (1..=14).map(|k| 250 * k).collect(),
        ),
        mk(
            "fig8b",
            "some communications (20)",
            20,
            (1..=14).map(|k| 250 * k).collect(),
        ),
        mk(
            "fig8c",
            "numerous communications (40)",
            40,
            (1..=12).map(|k| 150 * k).collect(),
        ),
    ]
}

/// Figure 9: sensitivity to the average **length** of communications.
///
/// * (a) 100 small communications U\[200, 800\];
/// * (b) 25 mixed communications U\[100, 3500\];
/// * (c) 12 big communications U\[2700, 3300\];
///
/// lengths swept over 2..14 (the 8×8 diameter).
pub fn fig9() -> Vec<Experiment> {
    let mk = |id, title, n: usize, w_min: f64, w_max: f64| Experiment {
        id,
        title,
        xlabel: "average length",
        points: (2..=14)
            .map(|len| SweepPoint {
                x: len as f64,
                workload: WorkloadSpec::Length(LengthTargetedWorkload::new(n, w_min, w_max, len)),
            })
            .collect(),
    };
    vec![
        mk(
            "fig9a",
            "numerous small communications (100, U[200,800])",
            100,
            200.0,
            800.0,
        ),
        mk(
            "fig9b",
            "some mid-weighted communications (25, U[100,3500])",
            25,
            100.0,
            3500.0,
        ),
        mk(
            "fig9c",
            "few big communications (12, U[2700,3300])",
            12,
            2700.0,
            3300.0,
        ),
    ]
}

/// The canonical figure groups of the §6 campaign, in pooling order:
/// fig7, fig8, fig9.
pub fn campaign_figures() -> [Vec<Experiment>; 3] {
    [fig7(), fig8(), fig9()]
}

/// One sweep point of the campaign grid with its canonical coordinates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GridPoint<'a> {
    /// Figure group index (0 = fig7, 1 = fig8, 2 = fig9).
    pub figure: usize,
    /// Experiment index within the figure group.
    pub experiment: usize,
    /// Sweep-point index within the experiment.
    pub point_index: usize,
    /// The experiment the point belongs to.
    pub exp: &'a Experiment,
    /// The point itself.
    pub point: &'a SweepPoint,
}

/// Walks the [`campaign_figures`] grid in canonical figure → experiment →
/// point order: the order the runner ([`crate::Campaign::run_grid`]) runs
/// points in and the shard merge ([`crate::shard`]) pools them in, so the
/// two agree bit for bit.
pub(crate) fn grid(figures: &[Vec<Experiment>; 3]) -> impl Iterator<Item = GridPoint<'_>> {
    figures.iter().enumerate().flat_map(|(figure, fig)| {
        fig.iter().enumerate().flat_map(move |(experiment, exp)| {
            (exp.points.iter().enumerate()).map(move |(point_index, point)| GridPoint {
                figure,
                experiment,
                point_index,
                exp,
                point,
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamr_routing::HeuristicKind;

    #[test]
    fn figure_definitions_cover_paper_ranges() {
        let f7 = fig7();
        assert_eq!(f7.len(), 3);
        assert_eq!(f7[0].points.last().unwrap().x, 140.0);
        assert_eq!(f7[1].points.last().unwrap().x, 70.0);
        assert_eq!(f7[2].points.last().unwrap().x, 30.0);
        let f8 = fig8();
        assert_eq!(f8[0].points.last().unwrap().x, 3500.0);
        assert_eq!(f8[2].points.last().unwrap().x, 1800.0);
        let f9 = fig9();
        for e in &f9 {
            assert_eq!(e.points.first().unwrap().x, 2.0);
            assert_eq!(e.points.last().unwrap().x, 14.0);
        }
    }

    #[test]
    fn small_sweep_runs_and_is_deterministic() {
        let mesh = crate::paper_mesh();
        let model = crate::paper_model();
        let point = SweepPoint {
            x: 10.0,
            workload: WorkloadSpec::Uniform(UniformWorkload::new(10, 100.0, 1500.0)),
        };
        let campaign = crate::Campaign::new(&mesh, &model, 8, 42);
        let sa = campaign.run_point(0, &point);
        let sb = campaign.run_point(0, &point);
        assert_eq!(sa.trials, 8);
        assert_eq!(sa.fingerprint(), sb.fingerprint(), "non-deterministic");
        for k in HeuristicKind::ALL {
            assert!(sa.norm_inv(k) <= 1.0 + 1e-12);
        }
        // With 10 small comms, Manhattan heuristics should essentially
        // always find a solution.
        assert!(sa.best_failure_ratio() < 0.5);
    }

    #[test]
    fn grid_walks_every_point_once_in_canonical_order() {
        let figures = campaign_figures();
        let coords: Vec<_> = grid(&figures)
            .map(|g| (g.figure, g.experiment, g.point_index))
            .collect();
        assert_eq!(coords.len(), 122);
        assert!(coords.windows(2).all(|w| w[0] < w[1]));
    }
}
