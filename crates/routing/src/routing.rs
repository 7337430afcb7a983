//! Routings: weighted Manhattan paths per communication, their validity
//! and their power (§3.4 of the paper).

use crate::comm::CommSet;
use pamr_mesh::{LoadMap, Path};
use pamr_power::{Infeasible, PowerBreakdown, PowerModel};
use serde::{Deserialize, Serialize};

/// Relative tolerance used when checking that a communication's flows sum
/// to its weight.
const FLOW_EPS: f64 = 1e-6;

/// A routing of a [`CommSet`]: for every communication, one or more
/// `(path, rate)` flows.
///
/// * **XY / 1-MP** routings have exactly one flow per communication carrying
///   its full weight;
/// * **s-MP / max-MP** routings may split a communication over several
///   Manhattan paths (all with the same endpoints), the rates summing to
///   the weight (§3.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Routing {
    flows: Vec<Vec<(Path, f64)>>,
}

impl Routing {
    /// Single-path routing: `paths[i]` carries the full weight of
    /// communication `i`.
    pub fn single(cs: &CommSet, paths: Vec<Path>) -> Self {
        assert_eq!(paths.len(), cs.len());
        let flows = paths
            .into_iter()
            .zip(cs.comms())
            .map(|(p, c)| vec![(p, c.weight)])
            .collect();
        Routing { flows }
    }

    /// Multi-path routing from raw flows (one vector per communication).
    pub fn multi(flows: Vec<Vec<(Path, f64)>>) -> Self {
        Routing { flows }
    }

    /// The flows of communication `i`.
    #[inline]
    pub fn flows(&self, i: usize) -> &[(Path, f64)] {
        &self.flows[i]
    }

    /// Number of communications covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True iff the routing covers no communication.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The single path of communication `i`.
    ///
    /// # Panics
    /// Panics if the communication is split over several paths.
    pub fn path(&self, i: usize) -> &Path {
        assert_eq!(
            self.flows[i].len(),
            1,
            "communication {i} uses {} paths",
            self.flows[i].len()
        );
        &self.flows[i][0].0
    }

    /// Maximum number of paths used by any single communication (the `s` of
    /// s-MP for which this routing is admissible).
    pub fn max_paths_per_comm(&self) -> usize {
        self.flows.iter().map(|f| f.len()).max().unwrap_or(0)
    }

    /// Aggregated per-link loads.
    pub fn loads(&self, cs: &CommSet) -> LoadMap {
        let mut lm = LoadMap::new(cs.mesh());
        for flows in &self.flows {
            for (path, rate) in flows {
                lm.add_path(cs.mesh(), path, *rate);
            }
        }
        lm
    }

    /// Structural validity (§3.3/§3.4, *excluding* the bandwidth
    /// constraint): every communication is covered, each flow is a Manhattan
    /// path from its source to its sink, rates are positive and sum to the
    /// communication's weight, and no communication uses more than
    /// `max_paths` paths (`usize::MAX` for max-MP).
    pub fn is_structurally_valid(&self, cs: &CommSet, max_paths: usize) -> bool {
        if self.flows.len() != cs.len() {
            return false;
        }
        for (i, c) in cs.comms().iter().enumerate() {
            let flows = &self.flows[i];
            if flows.is_empty() || flows.len() > max_paths {
                return false;
            }
            let mut sum = 0.0;
            for (path, rate) in flows {
                if *rate <= 0.0
                    || path.src() != c.src
                    || path.snk() != c.snk
                    || !path.is_manhattan(cs.mesh())
                {
                    return false;
                }
                sum += rate;
            }
            if (sum - c.weight).abs() > FLOW_EPS * c.weight.max(1.0) {
                return false;
            }
        }
        true
    }

    /// Power of the routing under `model`, or `Err(Infeasible)` when some
    /// link bandwidth is exceeded (the heuristic *failed* on this instance,
    /// in the paper's terminology).
    pub fn power(&self, cs: &CommSet, model: &PowerModel) -> Result<PowerBreakdown, Infeasible> {
        model.power(&self.loads(cs))
    }

    /// True iff no link bandwidth is exceeded under `model`.
    pub fn is_feasible(&self, cs: &CommSet, model: &PowerModel) -> bool {
        self.power(cs, model).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use pamr_mesh::{Coord, Mesh};

    fn fig2_instance() -> CommSet {
        let mesh = Mesh::new(2, 2);
        CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        )
    }

    #[test]
    fn fig2_xy_vs_1mp_vs_2mp() {
        // Reproduces Figure 2 exactly: P_XY = 128, P_1MP = 56, P_2MP = 32.
        let cs = fig2_instance();
        let model = PowerModel::fig2();
        let src = Coord::new(0, 0);
        let snk = Coord::new(1, 1);

        let xy = Routing::single(&cs, vec![Path::xy(src, snk), Path::xy(src, snk)]);
        assert!(xy.is_structurally_valid(&cs, 1));
        assert!((xy.power(&cs, &model).unwrap().total() - 128.0).abs() < 1e-9);

        let mp1 = Routing::single(&cs, vec![Path::xy(src, snk), Path::yx(src, snk)]);
        assert!((mp1.power(&cs, &model).unwrap().total() - 56.0).abs() < 1e-9);

        let mp2 = Routing::multi(vec![
            vec![(Path::xy(src, snk), 1.0)],
            vec![(Path::xy(src, snk), 1.0), (Path::yx(src, snk), 2.0)],
        ]);
        assert!(mp2.is_structurally_valid(&cs, 2));
        assert!(!mp2.is_structurally_valid(&cs, 1));
        assert!((mp2.power(&cs, &model).unwrap().total() - 32.0).abs() < 1e-9);
        assert_eq!(mp2.max_paths_per_comm(), 2);
    }

    #[test]
    fn structural_validity_rejects_wrong_endpoints() {
        let cs = fig2_instance();
        let bad = Routing::single(
            &cs,
            vec![
                Path::xy(Coord::new(0, 0), Coord::new(1, 0)), // wrong sink
                Path::xy(Coord::new(0, 0), Coord::new(1, 1)),
            ],
        );
        assert!(!bad.is_structurally_valid(&cs, 1));
    }

    #[test]
    fn structural_validity_rejects_wrong_rate_sum() {
        let cs = fig2_instance();
        let src = Coord::new(0, 0);
        let snk = Coord::new(1, 1);
        let bad = Routing::multi(vec![
            vec![(Path::xy(src, snk), 1.0)],
            vec![(Path::xy(src, snk), 1.0), (Path::yx(src, snk), 1.0)], // sums to 2 ≠ 3
        ]);
        assert!(!bad.is_structurally_valid(&cs, 2));
    }

    #[test]
    fn feasibility_matches_capacity() {
        let cs = fig2_instance(); // total weight 4, BW = 4
        let model = PowerModel::fig2();
        let src = Coord::new(0, 0);
        let snk = Coord::new(1, 1);
        let xy = Routing::single(&cs, vec![Path::xy(src, snk), Path::xy(src, snk)]);
        assert!(xy.is_feasible(&cs, &model)); // exactly at capacity
        let tight = PowerModel::continuous(0.0, 1.0, 3.0, 3.9);
        assert!(!xy.is_feasible(&cs, &tight));
    }

    #[test]
    fn loads_accumulate_over_flows() {
        let cs = fig2_instance();
        let src = Coord::new(0, 0);
        let snk = Coord::new(1, 1);
        let r = Routing::multi(vec![
            vec![(Path::xy(src, snk), 1.0)],
            vec![(Path::xy(src, snk), 1.5), (Path::yx(src, snk), 1.5)],
        ]);
        let lm = r.loads(&cs);
        assert!((lm.max_load() - 2.5).abs() < 1e-12);
        assert_eq!(lm.active_links(), 4);
        assert!((lm.total() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_routing() {
        let cs = CommSet::new(Mesh::new(2, 2), vec![]);
        let r = Routing::single(&cs, vec![]);
        assert!(r.is_empty());
        assert!(r.is_structurally_valid(&cs, 1));
        assert_eq!(r.max_paths_per_comm(), 0);
        let model = PowerModel::fig2();
        assert_eq!(r.power(&cs, &model).unwrap().total(), 0.0);
    }
}
