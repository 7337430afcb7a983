//! s-MP (multi-path) routing heuristics — the paper's future-work item:
//! "it may be interesting to design multi-path heuristics, since these may
//! allow for an even better load-balance of communications" (§7).
//!
//! [`SplitMp`] lifts any single-path heuristic to an s-MP one by the
//! splitting the problem definition itself suggests (§3.3): every
//! communication `γ_i` is split into `s` equal sub-communications
//! `δ_i / s`, the expanded instance is routed single-path, and the parts
//! are folded back into at most `s` weighted paths per original
//! communication (identical paths merge, so the bound is often loose).
//!
//! [`FwMp`] rounds the [Frank–Wolfe](crate::fw::frank_wolfe) fractional
//! optimum instead: the per-communication fractional flow is aggregated
//! into per-link arc flows on the band DAG and decomposed by **path
//! stripping** — repeatedly extract the largest-bottleneck (maximin)
//! src→snk path through the remaining flow, subtract its bottleneck, and
//! keep at most `s` paths whose weights are rescaled proportionally to sum
//! to `δ_i`. Since every band link is quadrant-monotone, every stripped
//! path is Manhattan by construction. The rounded candidate is then played
//! against the full 1-MP [`Best`] portfolio and the better routing wins,
//! so `P(FwMp) ≤ min(P(1-MP heuristics))` holds by construction while the
//! FW duality gap bounds it from below (under continuous no-leakage
//! scaling) — the sandwich `tests/multipath_differential.rs` pins.

use crate::comm::{Comm, CommSet};
use crate::fw::frank_wolfe;
use crate::heuristic::{Best, Heuristic};
use crate::routing::Routing;
use crate::scratch::RouteScratch;
use pamr_mesh::{Band, LinkId, Mesh, Path, Step};
use pamr_power::PowerModel;
use std::collections::BTreeMap;

/// Lifts a single-path heuristic into an s-MP heuristic by communication
/// splitting.
#[derive(Debug, Clone, Copy)]
pub struct SplitMp<H> {
    inner: H,
    s: usize,
}

impl<H: Heuristic> SplitMp<H> {
    /// Wraps `inner`, splitting every communication into `s ≥ 1` equal
    /// parts.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(inner: H, s: usize) -> Self {
        assert!(s >= 1, "need at least one path per communication");
        SplitMp { inner, s }
    }

    /// The split factor `s`.
    pub fn paths_per_comm(&self) -> usize {
        self.s
    }
}

impl<H: Heuristic> Heuristic for SplitMp<H> {
    fn name(&self) -> &'static str {
        "s-MP"
    }

    fn route_with(&self, cs: &CommSet, model: &PowerModel, scratch: &mut RouteScratch) -> Routing {
        if self.s == 1 {
            return self.inner.route_with(cs, model, scratch);
        }
        // Expand: s sub-communications per original, interleaved so the
        // inner heuristic's decreasing-weight order treats the parts of one
        // communication adjacently (equal weights, stable tie-break).
        let mut expanded = Vec::with_capacity(cs.len() * self.s);
        let mut origin = Vec::with_capacity(cs.len() * self.s);
        for (i, c) in cs.comms().iter().enumerate() {
            for _ in 0..self.s {
                expanded.push(Comm::new(c.src, c.snk, c.weight / self.s as f64));
                origin.push(i);
            }
        }
        let sub = CommSet::new(*cs.mesh(), expanded);
        let routed = self.inner.route_with(&sub, model, scratch);
        // Fold back, merging identical paths. Ordered so the per-comm flow
        // listing (and its equal-rate tie-break below) never depends on
        // hasher state.
        let mut merged: Vec<BTreeMap<Vec<Step>, f64>> = vec![BTreeMap::new(); cs.len()];
        for (j, &i) in origin.iter().enumerate() {
            for (path, rate) in routed.flows(j) {
                *merged[i].entry(path.moves().to_vec()).or_insert(0.0) += rate;
            }
        }
        Routing::multi(
            merged
                .into_iter()
                .zip(cs.comms())
                .map(|(m, c)| {
                    let mut v: Vec<(Path, f64)> = m
                        .into_iter()
                        .map(|(moves, rate)| (Path::from_moves(c.src, moves), rate))
                        .collect();
                    // total_cmp: same order as partial_cmp for these finite
                    // rates, no NaN panic path; ties keep move-order.
                    v.sort_by(|a, b| b.1.total_cmp(&a.1));
                    v
                })
                .collect(),
        )
    }
}

/// The Frank–Wolfe rounding s-MP heuristic (see the [module docs](self)).
///
/// Runs the fractional solver, strips the flow of each communication into
/// at most `s` maximin-bottleneck Manhattan paths, and returns the better
/// of the rounded routing and the 1-MP [`Best`] routing — so its power
/// never exceeds the best single-path heuristic's.
#[derive(Debug, Clone)]
pub struct FwMp {
    s: usize,
    iterations: usize,
}

impl FwMp {
    /// An s-MP rounder keeping at most `s ≥ 1` paths per communication,
    /// with the default Frank–Wolfe iteration budget and 1-MP [`Best`] as
    /// the floor.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(s: usize) -> Self {
        assert!(s >= 1, "need at least one path per communication");
        FwMp { s, iterations: 200 }
    }

    /// This rounder with a different Frank–Wolfe iteration budget.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// The path bound `s`.
    pub fn paths_per_comm(&self) -> usize {
        self.s
    }
}

/// Maximin-bottleneck src→snk path through the positive arc flows, by DP
/// over the band's diagonal groups (each group's links all advance one
/// diagonal, so group order is a topological order of the band DAG).
/// Deterministic: links are scanned in band (CSR) order and only strict
/// width improvements replace a predecessor, so ties keep the first-found
/// path. `None` when no positive-flow path reaches the sink.
fn widest_path(mesh: &Mesh, band: &Band, arc: &BTreeMap<LinkId, f64>) -> Option<(Path, f64)> {
    let src_i = mesh.core_index(band.src());
    let mut width: BTreeMap<usize, f64> = BTreeMap::new();
    let mut pred: BTreeMap<usize, (usize, Step)> = BTreeMap::new();
    width.insert(src_i, f64::INFINITY);
    for g in band.groups() {
        for &l in g {
            let Some(&f) = arc.get(&l) else { continue };
            let (from, to) = mesh.link_endpoints(l);
            let (fi, ti) = (mesh.core_index(from), mesh.core_index(to));
            if let Some(&wf) = width.get(&fi) {
                let cand = wf.min(f);
                if width.get(&ti).is_none_or(|&wt| cand > wt) {
                    width.insert(ti, cand);
                    pred.insert(ti, (fi, mesh.link_step(l)));
                }
            }
        }
    }
    let snk_i = mesh.core_index(band.snk());
    let w = *width.get(&snk_i)?;
    if w <= 0.0 || !w.is_finite() {
        return None;
    }
    let mut moves: Vec<Step> = Vec::with_capacity(band.len());
    let mut cur = snk_i;
    while cur != src_i {
        let (prev, step) = pred[&cur];
        moves.push(step);
        cur = prev;
    }
    moves.reverse();
    Some((Path::from_moves(band.src(), moves), w))
}

/// Strips one communication's fractional flow into ≤ `s` weighted
/// Manhattan paths, largest bottleneck first, weights rescaled
/// proportionally to sum to the communication's weight.
fn strip_paths(mesh: &Mesh, c: &Comm, flows: &[(Path, f64)], s: usize) -> Vec<(Path, f64)> {
    if c.is_local() {
        return vec![(Path::from_moves(c.src, vec![]), c.weight)];
    }
    let eps = 1e-12 * c.weight;
    // Arc flows of the fractional routing, keyed in LinkId order. Every FW
    // path lives on the band, so this is the per-comm flow DAG.
    let mut arc: BTreeMap<LinkId, f64> = BTreeMap::new();
    for (p, r) in flows {
        for l in p.links(mesh) {
            *arc.entry(l).or_insert(0.0) += *r;
        }
    }
    arc.retain(|_, f| *f > eps);
    let band = c.band(mesh);
    let mut out: Vec<(Path, f64)> = Vec::new();
    while out.len() < s {
        let Some((path, bottleneck)) = widest_path(mesh, &band, &arc) else {
            break;
        };
        if bottleneck <= eps {
            break;
        }
        for l in path.links(mesh) {
            if let Some(f) = arc.get_mut(&l) {
                *f -= bottleneck;
            }
        }
        arc.retain(|_, f| *f > eps);
        out.push((path, bottleneck));
    }
    if out.is_empty() {
        // Degenerate fractional support (numerically dead flow everywhere):
        // fall back to the whole weight on the XY path.
        return vec![(Path::xy(c.src, c.snk), c.weight)];
    }
    // Rescale proportionally so the kept paths carry exactly the demand
    // the dropped residual would have. Maximin bottlenecks are
    // non-increasing over rounds, so `out` is already largest-first.
    let sum: f64 = out.iter().map(|(_, b)| b).sum();
    let scale = c.weight / sum;
    for (_, w) in out.iter_mut() {
        *w *= scale;
    }
    out
}

impl Heuristic for FwMp {
    fn name(&self) -> &'static str {
        "FW-MP"
    }

    fn route_with(&self, cs: &CommSet, model: &PowerModel, scratch: &mut RouteScratch) -> Routing {
        let mesh = cs.mesh();
        let fw = frank_wolfe(cs, model, self.iterations);
        let candidate = Routing::multi(
            cs.comms()
                .iter()
                .enumerate()
                .map(|(i, c)| strip_paths(mesh, c, fw.routing.flows(i), self.s))
                .collect(),
        );
        let best1 = Best.route_with(cs, model, scratch);
        // Feasible beats infeasible; among feasible, smaller power wins;
        // ties keep the multi-path candidate.
        match (candidate.power(cs, model), best1.power) {
            (Ok(pc), Some(p1)) if pc.total() <= p1 => candidate,
            (Ok(_), Some(_)) => best1.routing,
            (Ok(_), None) | (Err(_), None) => candidate,
            (Err(_), Some(_)) => best1.routing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ig::ImprovedGreedy;
    use crate::pr::PathRemover;
    use crate::two_bend::TwoBend;
    use pamr_mesh::{Coord, Mesh};

    fn fig2_instance() -> CommSet {
        CommSet::new(
            Mesh::new(2, 2),
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        )
    }

    #[test]
    fn two_mp_reaches_the_fig2_optimum() {
        // Fig. 2(c): the 2-MP optimum is 32; splitting + a decent
        // single-path heuristic must find it.
        let cs = fig2_instance();
        let model = PowerModel::fig2();
        for r in [
            SplitMp::new(PathRemover, 2).route(&cs, &model),
            SplitMp::new(TwoBend::default(), 2).route(&cs, &model),
            SplitMp::new(ImprovedGreedy, 2).route(&cs, &model),
        ] {
            assert!(r.is_structurally_valid(&cs, 2));
            let p = r.power(&cs, &model).unwrap().total();
            assert!((p - 32.0).abs() < 1e-9, "2-MP should reach 32, got {p}");
        }
    }

    #[test]
    fn s_one_is_the_inner_heuristic() {
        let cs = fig2_instance();
        let model = PowerModel::fig2();
        let a = SplitMp::new(PathRemover, 1).route(&cs, &model);
        let b = PathRemover.route(&cs, &model);
        assert_eq!(
            a.power(&cs, &model).unwrap().total(),
            b.power(&cs, &model).unwrap().total()
        );
        assert_eq!(a.max_paths_per_comm(), 1);
    }

    #[test]
    fn split_respects_the_path_bound() {
        let mesh = Mesh::new(5, 5);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(4, 4), 9.0),
                Comm::new(Coord::new(4, 0), Coord::new(0, 4), 6.0),
            ],
        );
        let model = PowerModel::theory(3.0);
        for s in [2usize, 3, 4] {
            let r = SplitMp::new(PathRemover, s).route(&cs, &model);
            assert!(r.is_structurally_valid(&cs, s));
            assert!(r.max_paths_per_comm() <= s);
        }
    }

    #[test]
    fn more_paths_never_hurt_much() {
        // With leakage off, increasing s weakly improves the load balance
        // on heavy parallel traffic (heuristics are not strictly monotone,
        // but 4-MP must clearly beat 1-MP here).
        let mesh = Mesh::new(4, 4);
        let cs = CommSet::new(
            mesh,
            vec![Comm::new(Coord::new(0, 0), Coord::new(3, 3), 8.0)],
        );
        let model = PowerModel::theory(3.0);
        let p1 = PathRemover
            .route(&cs, &model)
            .power(&cs, &model)
            .unwrap()
            .total();
        let p4 = SplitMp::new(PathRemover, 4)
            .route(&cs, &model)
            .power(&cs, &model)
            .unwrap()
            .total();
        assert!(
            p4 < 0.5 * p1,
            "4-MP ({p4}) should roughly quarter the single-path power ({p1})"
        );
    }

    #[test]
    fn fwmp_reaches_the_fig2_optimum() {
        // Fig. 2(c): the 2-MP optimum is 32; rounding the fractional
        // optimum (an exact 2/2 split here) must find it.
        let cs = fig2_instance();
        let model = PowerModel::fig2();
        let r = FwMp::new(2).with_iterations(2000).route(&cs, &model);
        assert!(r.is_structurally_valid(&cs, 2));
        let p = r.power(&cs, &model).unwrap().total();
        // FW converges at O(1/k), so the rounded split is (2+ε, 2−ε) with
        // ε ~ 1/k and power 32 + O(ε²).
        assert!((p - 32.0).abs() < 1e-3, "FW 2-MP should reach 32, got {p}");
    }

    #[test]
    fn fwmp_respects_the_path_bound_and_weight_sums() {
        let mesh = Mesh::new(5, 5);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(4, 4), 9.0),
                Comm::new(Coord::new(4, 0), Coord::new(0, 4), 6.0),
                Comm::new(Coord::new(2, 2), Coord::new(2, 2), 1.0), // local
            ],
        );
        let model = PowerModel::theory(3.0);
        for s in [1usize, 2, 4] {
            let r = FwMp::new(s).route(&cs, &model);
            assert!(r.is_structurally_valid(&cs, s));
            assert!(r.max_paths_per_comm() <= s);
            for (i, c) in cs.comms().iter().enumerate() {
                let sum: f64 = r.flows(i).iter().map(|(_, w)| w).sum();
                assert!(
                    (sum - c.weight).abs() <= 1e-9 * c.weight,
                    "comm {i}: flow sum {sum} != weight {}",
                    c.weight
                );
                for (p, w) in r.flows(i) {
                    assert!(p.is_manhattan(&mesh));
                    assert!(*w > 0.0);
                }
            }
        }
    }

    #[test]
    fn fwmp_never_loses_to_the_single_path_portfolio() {
        let mesh = Mesh::new(4, 4);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(3, 3), 8.0),
                Comm::new(Coord::new(0, 3), Coord::new(3, 0), 4.0),
            ],
        );
        let model = PowerModel::theory(3.0);
        let best1 = Best.route(&cs, &model).power.unwrap();
        for s in [2usize, 4] {
            let p = FwMp::new(s)
                .route(&cs, &model)
                .power(&cs, &model)
                .unwrap()
                .total();
            assert!(p <= best1 + 1e-9, "s={s}: FW-MP {p} lost to 1-MP {best1}");
        }
    }

    #[test]
    fn split_can_solve_where_single_path_cannot() {
        // One weight-4 communication, BW = 3: no single Manhattan path is
        // feasible, but a 2-way split is.
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![Comm::new(Coord::new(0, 0), Coord::new(1, 1), 4.0)],
        );
        let model = PowerModel::continuous(0.0, 1.0, 3.0, 3.0);
        assert!(!PathRemover.route(&cs, &model).is_feasible(&cs, &model));
        let r = SplitMp::new(PathRemover, 2).route(&cs, &model);
        assert!(r.is_feasible(&cs, &model), "2-MP must split 4 into 2+2");
    }
}
