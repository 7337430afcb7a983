//! Text-table and CSV rendering of experiment results.

use crate::experiments::{campaign_figures, ExperimentResult};
use crate::stats::PointStats;
use pamr_routing::HeuristicKind;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One aligned text table of a series: a row per sweep point, a column
/// per policy, then BEST's column.
fn series_table(
    res: &ExperimentResult,
    policy: impl Fn(&PointStats, HeuristicKind) -> f64,
    best: impl Fn(&PointStats) -> f64,
) -> String {
    let mut out = format!("{:>10}", "x");
    for k in HeuristicKind::ALL {
        let _ = write!(out, "{:>8}", k.name());
    }
    let _ = writeln!(out, "{:>8}", "BEST");
    for (x, stats) in &res.points {
        let _ = write!(out, "{x:>10.0}");
        for k in HeuristicKind::ALL {
            let _ = write!(out, "{:>8.3}", policy(stats, k));
        }
        let _ = writeln!(out, "{:>8.3}", best(stats));
    }
    out
}

/// Renders the normalised-power-inverse series of an experiment (the upper
/// plot of each paper sub-figure) as an aligned text table.
pub fn norm_inv_table(res: &ExperimentResult) -> String {
    // BEST's normalised inverse is 1 by definition whenever it exists.
    series_table(res, PointStats::norm_inv, |stats| {
        if stats.best_successes > 0 {
            1.0
        } else {
            0.0
        }
    })
}

/// Renders the failure-ratio series (the lower plot of each sub-figure).
pub fn failure_table(res: &ExperimentResult) -> String {
    series_table(
        res,
        PointStats::failure_ratio,
        PointStats::best_failure_ratio,
    )
}

/// Renders figure group `figure` (0 = fig7) as `fig7`–`fig9` print it:
/// per sub-figure a header, the normalised-power-inverse table and the
/// failure-ratio table. `pamr merge --figures` prints the three groups in
/// turn, so its output is exactly the three binaries' concatenated.
pub fn render_figure(figure: usize, results: &[ExperimentResult], trials: usize) -> String {
    let mut out = String::new();
    for (exp, res) in campaign_figures()[figure].iter().zip(results) {
        let _ = write!(
            out,
            "== {} — {} ==\nnormalised power inverse (x = {}, {trials} trials/point)\n{}\
             failure ratio\n{}\n",
            exp.id,
            exp.title,
            exp.xlabel,
            norm_inv_table(res),
            failure_table(res)
        );
    }
    out
}

/// Writes both series of an experiment to `dir/<id>.csv`.
pub fn write_csv(res: &ExperimentResult, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut s = String::from("x");
    for k in HeuristicKind::ALL {
        let _ = write!(s, ",norm_inv_{}", k.name());
    }
    s.push_str(",norm_inv_BEST");
    for k in HeuristicKind::ALL {
        let _ = write!(s, ",fail_{}", k.name());
    }
    s.push_str(",fail_BEST,trials\n");
    for (x, stats) in &res.points {
        let _ = write!(s, "{x}");
        for k in HeuristicKind::ALL {
            let _ = write!(s, ",{:.6}", stats.norm_inv(k));
        }
        let best = if stats.best_successes > 0 { 1.0 } else { 0.0 };
        let _ = write!(s, ",{best:.6}");
        for k in HeuristicKind::ALL {
            let _ = write!(s, ",{:.6}", stats.failure_ratio(k));
        }
        let _ = writeln!(s, ",{:.6},{}", stats.best_failure_ratio(), stats.trials);
    }
    std::fs::write(dir.join(format!("{}.csv", res.id)), s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{SweepPoint, WorkloadSpec};
    use pamr_workload::UniformWorkload;

    fn tiny_result() -> ExperimentResult {
        let mesh = crate::paper_mesh();
        let model = crate::paper_model();
        let campaign = crate::Campaign::new(&mesh, &model, 4, 1);
        let points = [5, 10].into_iter().enumerate().map(|(pi, n)| {
            let point = SweepPoint {
                x: n as f64,
                workload: WorkloadSpec::Uniform(UniformWorkload::new(n, 100.0, 1500.0)),
            };
            (point.x, campaign.run_point(pi, &point))
        });
        ExperimentResult {
            id: "tiny",
            points: points.collect(),
        }
    }

    #[test]
    fn tables_have_expected_shape() {
        let res = tiny_result();
        let t = norm_inv_table(&res);
        assert_eq!(t.lines().count(), 3); // header + 2 points
        assert!(t.contains("XYI"));
        let f = failure_table(&res);
        assert_eq!(f.lines().count(), 3);
    }

    #[test]
    fn csv_round_trip() {
        let res = tiny_result();
        let dir = std::env::temp_dir().join("pamr_table_test");
        write_csv(&res, &dir).unwrap();
        let content = std::fs::read_to_string(dir.join("tiny.csv")).unwrap();
        assert_eq!(content.lines().count(), 3);
        assert!(content.starts_with("x,norm_inv_XY"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
