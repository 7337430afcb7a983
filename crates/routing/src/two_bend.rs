//! The Two-bend heuristic (§5.3), priced in place from the cost ladder.
//!
//! For each communication TB compares every Manhattan path with at most
//! two bends — H-V-H for `i = 0..=|Δv|`, then V-H-V for `j = 1..|Δu|`, the
//! order [`Path::two_bend`] enumerates them in — and keeps the first one of
//! least marginal surrogate cost. The literal formulation (kept verbatim in
//! the private `reference` module) builds every candidate `Path` and prices
//! each of its links with two power-fit evaluations.
//!
//! The live engine here prices each link of the communication's interned
//! band once — every candidate lies in the band, and the load map is
//! frozen while the communication chooses — with `link_cost` over the
//! scratch's [`CostLadder`] (bit-identical
//! to the fit by construction, and the fit itself under a continuous
//! model). It then walks each candidate's three straight runs in place,
//! sums the stored marginals with `Iterator::sum` in path order — the
//! oracle's own fold over the same values — and builds a `Path` only for
//! the winner. It takes its processing order from the customized
//! instance, as SG and IG do.
//!
//! Both engines produce **bit-identical** routings and load maps, and
//! `tests/xyi_differential.rs` enforces it over randomized §6 workloads
//! and a byte-identical seeded campaign report, swapping the engine behind
//! [`HeuristicKind::Tb`](crate::HeuristicKind) via
//! [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).

use crate::comm::{Comm, CommSet, SortOrder};
use crate::heuristic::{link_cost, Heuristic};
use crate::precompute::CostLadder;
use crate::routing::Routing;
use crate::scratch::RouteScratch;
use pamr_mesh::{Band, Coord, LinkId, LoadMap, Mesh, Path, Step};
use pamr_power::PowerModel;

mod reference;

use reference::ReferenceTwoBend;

/// **TB — Two-bend** (§5.3).
///
/// Communications are processed by decreasing weight; for each one, all
/// Manhattan paths with at most two bends (at most `|Δu| + |Δv|` of them)
/// are evaluated and the one leading to the lowest power consumption is
/// kept.
///
/// This is the in-place engine (see the module docs); its bit-identical
/// enumerate-and-price oracle runs in its place on
/// [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoBend {
    /// Processing order (decreasing weight by default, per the paper).
    pub order: SortOrder,
}

/// One two-bend candidate as its three straight runs `(step, count)`.
type Runs = [(Step, usize); 3];

/// The links of the path `runs` spells out from `src`, in path order.
fn walk(mesh: &Mesh, src: Coord, runs: Runs) -> impl Iterator<Item = LinkId> + '_ {
    runs.into_iter()
        .flat_map(|(s, n)| std::iter::repeat_n(s, n))
        .scan(src, move |cur, s| {
            let link = mesh.link_id(*cur, s)?;
            *cur = mesh.step(*cur, s)?;
            Some(link)
        })
}

/// The first two-bend path of least marginal surrogate cost for `c`, whose
/// band is `band`, over the frozen `loads`: the oracle's candidates, in
/// its order, with its strict `<`. `marginals` is per-link-slot working
/// memory; only `band`'s links are written and read.
fn best_two_bend(
    mesh: &Mesh,
    loads: &LoadMap,
    (model, ladder): (&PowerModel, Option<&CostLadder>),
    c: &Comm,
    band: &Band,
    marginals: &mut [f64],
) -> Path {
    let (du, dv) = (c.src.u.abs_diff(c.snk.u), c.src.v.abs_diff(c.snk.v));
    if du == 0 || dv == 0 {
        // The only candidate: nothing to price.
        return Path::xy(c.src, c.snk);
    }
    // Marginal surrogate cost of sending the communication down each link
    // it can use; the untouched links cancel out, so comparing the sums of
    // marginals along two paths is the same as comparing total powers.
    for l in band.links() {
        let load = loads.get(l);
        marginals[l.index()] =
            link_cost(model, ladder, load + c.weight) - link_cost(model, ladder, load);
    }
    let (sv, sh) = c.quadrant().steps();
    let hvh = (0..=dv).map(|i| [(sh, i), (sv, du), (sh, dv - i)]);
    let vhv = (1..du).map(|j| [(sv, j), (sh, dv), (sv, du - j)]);
    let mut best: Option<(f64, Runs)> = None;
    for runs in hvh.chain(vhv) {
        let cost: f64 = walk(mesh, c.src, runs).map(|l| marginals[l.index()]).sum();
        if best.is_none_or(|(b, _)| cost < b) {
            best = Some((cost, runs));
        }
    }
    let (_, runs) = best.expect("both spans are positive, so H-V-H yields candidates");
    let moves = runs
        .into_iter()
        .flat_map(|(s, n)| std::iter::repeat_n(s, n));
    Path::from_moves(c.src, moves.collect())
}

impl Heuristic for TwoBend {
    fn name(&self) -> &'static str {
        "TB"
    }

    fn route_with(&self, cs: &CommSet, model: &PowerModel, scratch: &mut RouteScratch) -> Routing {
        if scratch.engine().is_reference() {
            return ReferenceTwoBend { order: self.order }.route_with(cs, model, scratch);
        }
        scratch.ensure_ladder(model);
        let cust = scratch.ensure_customized(cs);
        let mesh = cs.mesh();
        let RouteScratch {
            loads,
            ladder,
            marginals,
            ..
        } = scratch;
        let ladder = ladder.as_ref();
        loads.fit(mesh);
        // Never cleared: every link a candidate crosses is a band link,
        // written for the communication before its candidates are summed.
        marginals.resize(marginals.len().max(mesh.num_link_slots()), 0.0);
        // The decreasing-weight order is cached by the customize phase
        // (bit-identical: it is CommSet::by_order's own result).
        let order_buf;
        let order: &[usize] = match cust.order(self.order) {
            Some(o) => o,
            None => {
                order_buf = cs.by_order(self.order);
                &order_buf
            }
        };
        let mut paths: Vec<Option<Path>> = vec![None; cs.len()];
        for &i in order {
            let c = &cs.comms()[i];
            let path = best_two_bend(mesh, loads, (model, ladder), c, cust.band(i), marginals);
            loads.add_path(mesh, &path, c.weight);
            paths[i] = Some(path);
        }
        Routing::single(cs, paths.into_iter().map(Option::unwrap).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use pamr_mesh::{Coord, Mesh};

    #[test]
    fn tb_paths_have_at_most_two_bends() {
        let mesh = Mesh::new(6, 6);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(5, 5), 3.0),
                Comm::new(Coord::new(5, 0), Coord::new(0, 5), 2.0),
                Comm::new(Coord::new(0, 5), Coord::new(5, 0), 1.0),
                Comm::new(Coord::new(3, 3), Coord::new(3, 3), 1.0),
            ],
        );
        let model = PowerModel::theory(3.0);
        let r = TwoBend::default().route(&cs, &model);
        assert!(r.is_structurally_valid(&cs, 1));
        for i in 0..cs.len() {
            assert!(r.path(i).bends() <= 2);
        }
    }

    #[test]
    fn tb_finds_fig2_single_path_optimum() {
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        );
        let model = PowerModel::fig2();
        let r = TwoBend::default().route(&cs, &model);
        let p = r.power(&cs, &model).unwrap().total();
        assert!((p - 56.0).abs() < 1e-9, "TB should reach 56, got {p}");
    }

    #[test]
    fn tb_spreads_parallel_heavy_flows() {
        // Two heavy flows, same poles, BW tight: TB must pick disjoint
        // two-bend variants to stay feasible where XY would stack 6.0 on
        // one link. (Three such flows would be infeasible outright: the
        // source has only two outgoing links.)
        let mesh = Mesh::new(4, 4);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(3, 3), 3.0),
                Comm::new(Coord::new(0, 0), Coord::new(3, 3), 3.0),
            ],
        );
        let model = PowerModel::continuous(0.0, 1.0, 3.0, 4.0);
        let r = TwoBend::default().route(&cs, &model);
        assert!(
            r.is_feasible(&cs, &model),
            "max load = {}",
            r.loads(&cs).max_load()
        );
    }
}
