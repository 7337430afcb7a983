//! Theorem 3: NP-completeness of power-minimal s-MP routing, via the
//! paper's polynomial reduction from 2-PARTITION.
//!
//! Given integers `a_1..a_n` (sum `S`) and the path bound `s`, the reduced
//! instance lives on a `2 × q` mesh with `q = (s−1)n + 2` and
//! `BW = S/2 + (s−1)n`:
//!
//! * *traversing* communications `γ_i = (C_{1,(i−1)(s−1)+1}, C_{2,q},
//!   a_i + s − 1)` for `i ∈ 1..n`;
//! * *blocking* one-hop vertical communications saturating every column:
//!   weight `BW − 1` on columns `1..q−2` and `BW − S/2` on the last two.
//!
//! A bandwidth-feasible s-MP routing exists **iff** the `a_i` can be split
//! into two halves of sum `S/2`: the proof shows every traversing
//! communication is forced to drop one unit down each of its `s−1`
//! dedicated columns and send its remaining `a_i` units down column `q−1`
//! or column `q`, whose residual capacities are exactly `S/2` each.
//!
//! ## Erratum
//!
//! The paper's YES-direction checks only the vertical links, but the
//! proof's routing also carries `Σ a_i = S` on the row-1 horizontal links,
//! so the construction additionally needs `S ≤ BW`.
//! [`ReductionInstance::horizontal_headroom_ok`] exposes the condition;
//! PAPER.md ("Reproduction notes") gives the derivation.

use pamr_mesh::{Coord, Mesh, Path, Step};
use pamr_power::PowerModel;
use pamr_routing::{Comm, CommSet, Routing};

/// A reduced 2-PARTITION → s-MP routing instance.
#[derive(Debug, Clone)]
pub struct ReductionInstance {
    /// The communications on the `2 × q` mesh.
    pub cs: CommSet,
    /// Maximum link bandwidth `BW = S/2 + (s−1)n`.
    pub bw: f64,
    /// The 2-PARTITION integers.
    pub a: Vec<u64>,
    /// Path bound `s ≥ 2`.
    pub s: usize,
}

impl ReductionInstance {
    /// A power model enforcing exactly the bandwidth constraint (power
    /// values are irrelevant to the feasibility question).
    pub fn model(&self) -> PowerModel {
        PowerModel::continuous(0.0, 1.0, 3.0, self.bw)
    }

    /// Mesh width `q`.
    pub fn q(&self) -> usize {
        self.cs.mesh().cols()
    }

    /// True iff the proof's routing also fits the horizontal links:
    /// `S ≤ BW ⇔ S ≤ 2(s−1)n` (see the module-level erratum).
    pub fn horizontal_headroom_ok(&self) -> bool {
        let sum: u64 = self.a.iter().sum();
        sum as f64 <= self.bw
    }
}

/// Builds the reduction instance for integers `a` and path bound `s`.
///
/// # Panics
/// Panics if `a` is empty, any `a_i` is zero, or `s < 2`.
pub fn reduction_instance(a: &[u64], s: usize) -> ReductionInstance {
    assert!(
        !a.is_empty() && a.iter().all(|&x| x > 0),
        "invalid 2-PARTITION input"
    );
    assert!(s >= 2, "the reduction needs s ≥ 2");
    let n = a.len();
    let q = (s - 1) * n + 2;
    let sum: u64 = a.iter().sum();
    let bw = sum as f64 / 2.0 + ((s - 1) * n) as f64;
    let mesh = Mesh::new(2, q);
    let mut comms = Vec::with_capacity(n + q);
    // Traversing communications (paper 1-based column (i−1)(s−1)+1).
    for (i, &ai) in a.iter().enumerate() {
        comms.push(Comm::new(
            Coord::new(0, i * (s - 1)),
            Coord::new(1, q - 1),
            (ai + (s as u64 - 1)) as f64,
        ));
    }
    // Blocking one-hop vertical communications.
    for col in 0..q - 2 {
        comms.push(Comm::new(Coord::new(0, col), Coord::new(1, col), bw - 1.0));
    }
    for col in [q - 2, q - 1] {
        comms.push(Comm::new(
            Coord::new(0, col),
            Coord::new(1, col),
            bw - sum as f64 / 2.0,
        ));
    }
    ReductionInstance {
        cs: CommSet::new(mesh, comms),
        bw,
        a: a.to_vec(),
        s,
    }
}

/// Exact pseudo-polynomial 2-PARTITION solver (subset-sum DP). Returns a
/// subset selector with `Σ_{chosen} a_i = S/2`, or `None`.
pub fn partition_exists(a: &[u64]) -> Option<Vec<bool>> {
    let sum: u64 = a.iter().sum();
    if !sum.is_multiple_of(2) {
        return None;
    }
    let half = (sum / 2) as usize;
    // reach[t] = Some(i) where item i was the last one used to reach sum t.
    let mut reach: Vec<Option<usize>> = vec![None; half + 1];
    reach[0] = Some(usize::MAX);
    for (i, &ai) in a.iter().enumerate() {
        let ai = ai as usize;
        for t in (ai..=half).rev() {
            if reach[t].is_none() && reach[t - ai].is_some() {
                reach[t] = Some(i);
            }
        }
    }
    reach[half]?;
    // Back-track the chosen items.
    let mut chosen = vec![false; a.len()];
    let mut t = half;
    while t > 0 {
        let i = reach[t].expect("backtrack broke");
        chosen[i] = true;
        t -= a[i] as usize;
    }
    Some(chosen)
}

/// Builds the explicit feasible s-MP routing from a 2-PARTITION solution,
/// exactly as in the proof: communication `γ_i` splits into `s − 1` unit
/// flows dropping down its dedicated columns plus one flow of size `a_i`
/// dropping down column `q−1` (if `chosen[i]`) or column `q` (otherwise).
pub fn routing_from_partition(inst: &ReductionInstance, chosen: &[bool]) -> Routing {
    let n = inst.a.len();
    let s = inst.s;
    let q = inst.q();
    let mut flows: Vec<Vec<(Path, f64)>> = Vec::with_capacity(inst.cs.len());
    // Path on the 2×q mesh from (0, c0) going right to `down_col`, dropping
    // down, then right to (1, q−1).
    let make_path = |c0: usize, down_col: usize| {
        let mut moves = Vec::with_capacity(q - c0);
        moves.extend(std::iter::repeat_n(Step::Right, down_col - c0));
        moves.push(Step::Down);
        moves.extend(std::iter::repeat_n(Step::Right, q - 1 - down_col));
        Path::from_moves(Coord::new(0, c0), moves)
    };
    for (i, (&ai, &picked)) in inst.a.iter().zip(chosen).enumerate() {
        let c0 = i * (s - 1);
        let mut f = Vec::with_capacity(s);
        for k in 0..s - 1 {
            f.push((make_path(c0, c0 + k), 1.0));
        }
        let last_col = if picked { q - 2 } else { q - 1 };
        f.push((make_path(c0, last_col), ai as f64));
        flows.push(f);
    }
    // Blocking communications: single vertical hop.
    for comm in &inst.cs.comms()[n..] {
        flows.push(vec![(
            Path::from_moves(comm.src, vec![Step::Down]),
            comm.weight,
        )]);
    }
    Routing::multi(flows)
}

/// Decides whether the reduced instance admits a bandwidth-feasible s-MP
/// routing, by exhausting the structure the proof forces: each traversing
/// communication drops one unit down each dedicated column and chooses
/// column `q−1` or `q` for its remaining `a_i` units. All `2^n` choices are
/// tried with exact load accounting — use only for small `n`.
pub fn reduction_feasible(inst: &ReductionInstance) -> bool {
    let n = inst.a.len();
    assert!(n <= 24, "exhaustive check only meant for small instances");
    let model = inst.model();
    for mask in 0u32..(1 << n) {
        let chosen: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        let routing = routing_from_partition(inst, &chosen);
        if routing.is_feasible(&inst.cs, &model) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_solves_classic_partitions() {
        let chosen = partition_exists(&[3, 1, 1, 2, 2, 1]).unwrap();
        let sum: u64 = [3u64, 1, 1, 2, 2, 1]
            .iter()
            .zip(&chosen)
            .filter(|(_, &c)| c)
            .map(|(&a, _)| a)
            .sum();
        assert_eq!(sum, 5);
        assert!(partition_exists(&[2, 2, 2]).is_none()); // odd count of 2s
        assert!(partition_exists(&[1, 2]).is_none());
        assert!(partition_exists(&[7]).is_none());
        assert!(partition_exists(&[4, 4]).is_some());
    }

    #[test]
    fn instance_shape_matches_paper() {
        let inst = reduction_instance(&[3, 5, 2], 2);
        // q = (s−1)n + 2 = 5; nc = n + q = 8; BW = 5 + 3 = 8.
        assert_eq!(inst.q(), 5);
        assert_eq!(inst.cs.len(), 8);
        assert!((inst.bw - 8.0).abs() < 1e-12);
        // Total weight saturates all vertical capacity: q·BW.
        let vertical_total: f64 = inst.cs.total_weight() - 0.0; // all comms eventually cross a vertical link once
        assert!((vertical_total - inst.q() as f64 * inst.bw).abs() < 1e-9);
    }

    #[test]
    fn partition_yields_feasible_routing() {
        // Compliant instance: S = 8 ≤ 2(s−1)n = 12.
        let a = [1, 2, 1, 2, 1, 1];
        let inst = reduction_instance(&a, 2);
        assert!(inst.horizontal_headroom_ok());
        let chosen = partition_exists(&a).unwrap();
        let routing = routing_from_partition(&inst, &chosen);
        assert!(routing.is_structurally_valid(&inst.cs, inst.s));
        assert!(routing.is_feasible(&inst.cs, &inst.model()));
    }

    #[test]
    fn erratum_horizontal_overload_detected() {
        // Non-compliant instance (S = 14 > 2(s−1)n = 8): the proof's routing
        // overloads row-1 horizontal links even though a partition exists —
        // the erratum documented at module level.
        let a = [3, 5, 2, 4];
        let inst = reduction_instance(&a, 2);
        assert!(!inst.horizontal_headroom_ok());
        let chosen = partition_exists(&a).unwrap();
        let routing = routing_from_partition(&inst, &chosen);
        assert!(routing.is_structurally_valid(&inst.cs, inst.s));
        assert!(!routing.is_feasible(&inst.cs, &inst.model()));
    }

    #[test]
    fn partition_feasibility_equivalence() {
        // YES instances (all horizontal-compliant).
        for a in [vec![1u64, 1], vec![1, 2, 1, 2, 1, 1], vec![2, 2, 2, 2]] {
            let inst = reduction_instance(&a, 2);
            assert!(inst.horizontal_headroom_ok());
            assert!(partition_exists(&a).is_some());
            assert!(reduction_feasible(&inst), "feasible expected for {a:?}");
        }
        // NO instances.
        for a in [vec![1u64, 2], vec![2, 2, 2], vec![1, 1, 4]] {
            let inst = reduction_instance(&a, 2);
            assert!(inst.horizontal_headroom_ok());
            assert!(partition_exists(&a).is_none());
            assert!(!reduction_feasible(&inst), "infeasible expected for {a:?}");
        }
    }

    #[test]
    fn reduction_works_for_larger_s() {
        // S = 8 ≤ 2(s−1)n = 16.
        let a = [3, 1, 2, 2];
        let inst = reduction_instance(&a, 3);
        assert_eq!(inst.q(), (3 - 1) * 4 + 2);
        assert!(inst.horizontal_headroom_ok());
        let chosen = partition_exists(&a).unwrap();
        let routing = routing_from_partition(&inst, &chosen);
        assert!(routing.is_structurally_valid(&inst.cs, 3));
        assert!(routing.max_paths_per_comm() <= 3);
        assert!(routing.is_feasible(&inst.cs, &inst.model()));
    }

    #[test]
    fn blocking_comms_have_no_routing_freedom() {
        let inst = reduction_instance(&[2, 2], 2);
        for comm in &inst.cs.comms()[2..] {
            assert_eq!(comm.len(), 1);
            assert_eq!(comm.src.v, comm.snk.v);
        }
    }
}
