//! The ideal fractional sharing of Figure 3, and the diagonal-aggregation
//! power lower bound used by the proofs of Theorems 1 and 2.
//!
//! *Ideal sharing* distributes a communication's traffic equally over all
//! the links its Manhattan paths can use between two successive diagonals.
//! The paper notes "such a splitting cannot be achieved but provides a
//! bound on how to load-balance the communication across the links"; IG
//! (§5.2) uses it as a virtual initial distribution, through this module's
//! `apply_ideal` in both its engine and its oracle, and the theory uses
//! the whole-diagonal variant as a lower bound on any Manhattan routing's
//! dynamic power.

use crate::comm::CommSet;
use pamr_mesh::{Band, LoadMap, Mesh, Quadrant};
use pamr_power::{FrequencyScale, PowerModel};

/// Adds (`sign = 1.0`) or removes (`-1.0`) a communication's Figure 3 ideal
/// fractional contribution: `weight / |group|` on every link of each of its
/// band's diagonal groups.
pub(crate) fn apply_ideal(loads: &mut LoadMap, band: &Band, weight: f64, sign: f64) {
    for g in band.groups() {
        let share = sign * weight / g.len() as f64;
        for &l in g {
            loads.add(l, share);
        }
    }
}

/// Number of links going from diagonal `k` to diagonal `k + 1` of direction
/// `d` **on the whole mesh** (the `2k`, `2p − 1`, … coefficients in the
/// proof of Theorem 1).
pub fn links_between_diagonals(mesh: &Mesh, d: Quadrant, k: usize) -> usize {
    let (sv, sh) = d.steps();
    mesh.diagonal(d, k)
        .into_iter()
        .map(|c| {
            [sv, sh]
                .into_iter()
                .filter(|&s| mesh.step(c, s).is_some())
                .count()
        })
        .sum()
}

/// Lower bound on the **dynamic** power of *any* Manhattan routing
/// (single- or multi-path) of the instance, under continuous frequency
/// scaling.
///
/// Following the proof of Theorem 2: for every direction `d` and diagonal
/// `k`, the total weight `K_k^{(d)}` of communications of direction `d`
/// crossing diagonal `k` must traverse the `n_k^{(d)}` links between
/// `D_k^{(d)}` and `D_{k+1}^{(d)}`; by convexity of the power function the
/// cheapest conceivable arrangement spreads it equally, costing
/// `n · P_dyn(K/n)`. Summing over directions and diagonals lower-bounds the
/// true power because each direction's communications use disjoint
/// link-crossing events (a link crossed in direction `d` by a flow counts
/// against that flow's diagonal only, and the bound ignores inter-direction
/// sharing, which can only increase convex costs).
pub fn ideal_power_lower_bound(cs: &CommSet, model: &PowerModel) -> f64 {
    // The bound is computed with exact (continuous) frequency matching;
    // discrete levels only round bandwidth up, so the continuous figure
    // remains a valid lower bound.
    let cont = PowerModel {
        scale: FrequencyScale::Continuous,
        capacity: f64::INFINITY,
        p_leak: 0.0,
        ..model.clone()
    };
    let mesh = cs.mesh();
    let mut bound = 0.0;
    for d in Quadrant::ALL {
        // K_k^{(d)}: total weight of direction-d communications whose source
        // diagonal is ≤ k and sink diagonal is > k.
        let mut cross = vec![0.0; mesh.num_diagonals()];
        for c in cs.comms() {
            if c.is_local() || c.quadrant() != d {
                continue;
            }
            let ks = mesh.diag_index(c.src, d);
            let ke = mesh.diag_index(c.snk, d);
            for slot in &mut cross[ks..ke] {
                *slot += c.weight;
            }
        }
        for (k, &load) in cross.iter().enumerate() {
            if load == 0.0 {
                continue;
            }
            let n = links_between_diagonals(mesh, d, k) as f64;
            debug_assert!(n > 0.0);
            bound += n * cont.link_dynamic_power(load / n).unwrap();
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::rules::xy_routing;
    use pamr_mesh::{Coord, Mesh};

    #[test]
    fn ideal_sharing_conserves_weight_per_diagonal() {
        let mesh = Mesh::new(5, 5);
        let comm = Comm::new(Coord::new(0, 0), Coord::new(3, 2), 10.0);
        let band = comm.band(&mesh);
        let mut loads = LoadMap::new(&mesh);
        apply_ideal(&mut loads, &band, comm.weight, 1.0);
        // Per diagonal crossing, shares sum to the full weight.
        for (t, g) in band.groups().enumerate() {
            let s: f64 = g.iter().map(|&l| loads.get(l)).sum();
            assert!((s - 10.0).abs() < 1e-9, "group {t} sums to {s}");
        }
        assert!((loads.total() - 10.0 * comm.len() as f64).abs() < 1e-9);
        // Removing the contribution leaves the map idle.
        apply_ideal(&mut loads, &band, comm.weight, -1.0);
        assert!(loads.iter_active().all(|(_, l)| l.abs() < 1e-12));
    }

    #[test]
    fn whole_mesh_diagonal_link_counts_match_theorem1() {
        // Proof of Theorem 1: 2k links for k < p, 2p−1 in the middle band of
        // a p×q mesh, then symmetric. (0-based k here.)
        let mesh = Mesh::new(3, 5);
        let d = Quadrant::DownRight;
        // k=0: corner core, 2 links.
        assert_eq!(links_between_diagonals(&mesh, d, 0), 2);
        // k=1: two cores, 4 links.
        assert_eq!(links_between_diagonals(&mesh, d, 1), 4);
        // k=2: three cores but the bottom one cannot go down: 2p−1 = 5.
        assert_eq!(links_between_diagonals(&mesh, d, 2), 5);
        assert_eq!(links_between_diagonals(&mesh, d, 3), 5);
        assert_eq!(links_between_diagonals(&mesh, d, 4), 4);
        assert_eq!(links_between_diagonals(&mesh, d, 5), 2);
    }

    #[test]
    fn diagonal_links_partition_all_links() {
        // Every link goes between consecutive diagonals of exactly two
        // directions; summing counts over one direction family covers each
        // (d-compatible) link once.
        let mesh = Mesh::new(4, 4);
        for d in Quadrant::ALL {
            let total: usize = (0..mesh.num_diagonals() - 1)
                .map(|k| links_between_diagonals(&mesh, d, k))
                .sum();
            // Exactly half the links move "forward" in any direction d.
            assert_eq!(total, mesh.num_links() / 2);
        }
    }

    #[test]
    fn lower_bound_below_any_actual_routing() {
        let mesh = Mesh::new(4, 4);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(3, 3), 2.0),
                Comm::new(Coord::new(3, 0), Coord::new(0, 3), 3.0),
                Comm::new(Coord::new(0, 3), Coord::new(2, 0), 1.0),
            ],
        );
        let model = PowerModel::theory(3.0);
        let bound = ideal_power_lower_bound(&cs, &model);
        let xy = xy_routing(&cs).power(&cs, &model).unwrap().total();
        assert!(bound > 0.0);
        assert!(bound <= xy + 1e-9, "bound {bound} exceeds XY power {xy}");
    }

    #[test]
    fn lower_bound_tight_for_single_link_instance() {
        // One unit-length communication: the bound equals the exact power.
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![Comm::new(Coord::new(0, 0), Coord::new(0, 1), 2.0)],
        );
        let model = PowerModel::theory(3.0);
        let bound = ideal_power_lower_bound(&cs, &model);
        // Only one link exists between the crossed diagonal pair inside
        // direction 1 at k=0... the whole mesh has 2 (right and down), so
        // the ideal bound halves the load: 2·(2/2)³ = 2.
        assert!((bound - 2.0).abs() < 1e-9);
        let xy = xy_routing(&cs).power(&cs, &model).unwrap().total();
        assert!((xy - 8.0).abs() < 1e-9);
        assert!(bound <= xy);
    }
}
