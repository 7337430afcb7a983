//! Theorem 1: the Figure 4 diagonal-spreading max-MP routing pattern.
//!
//! On a square `p × p` CMP with `p = 2p'`, all communications (total size
//! `K`) go from `C_{1,1}` to `C_{p,p}`. The XY routing pays
//! `(2p−2) · P(K)` — every link on the single XY path carries everything —
//! while the Figure 4 pattern spreads the flow over the diagonals with
//!
//! * `h_k = K/k` on the horizontal links entering semi-diagonal `D_{2k}`,
//! * `r_{k,j} = K·(k+1−j)/(k(k+1))` and `d_{k,j} = K·j/(k(k+1))` leaving it,
//!
//! keeping the total power `O(K^α)` — a constant number of "link
//! equivalents" — so the XY/max-MP power ratio grows as `Θ(p)`.
//!
//! This module builds the exact per-link loads of the pattern (first half
//! explicitly, second half by reflection across the anti-diagonal) and
//! verifies flow conservation numerically.

use pamr_mesh::{Coord, LinkId, LoadMap, Mesh, Step};
use pamr_power::PowerModel;

/// The Figure 4 routing pattern instantiated on a concrete mesh.
#[derive(Debug, Clone)]
pub struct Fig4Pattern {
    /// The `2p' × 2p'` mesh.
    pub mesh: Mesh,
    /// Per-link loads of the max-MP pattern.
    pub loads: LoadMap,
    /// Total flow `K` injected at `C_{1,1}` and absorbed at `C_{p,p}`.
    pub total: f64,
}

/// Builds the Figure 4 pattern for a `2p' × 2p'` mesh carrying total flow
/// `k_total` from corner to corner.
///
/// # Panics
/// Panics if `p_prime == 0` or `k_total <= 0`.
pub fn fig4_pattern(p_prime: usize, k_total: f64) -> Fig4Pattern {
    assert!(p_prime >= 1, "need a positive half-width");
    assert!(k_total > 0.0);
    let p = 2 * p_prime;
    let mesh = Mesh::new(p, p);
    let mut loads = LoadMap::new(&mesh);
    // Work in the paper's 1-based coordinates; `at` converts.
    let at = |u: usize, v: usize| Coord::new(u - 1, v - 1);

    // First half: links up to the main anti-diagonal.
    let mut first_half: Vec<(Coord, Step, f64)> = Vec::new();
    // Horizontal h_k links: C_{j,2k−j} → C_{j,2k+1−j}, j ∈ 1..=k, load K/k.
    for k in 1..=p_prime {
        let h_k = k_total / k as f64;
        for j in 1..=k {
            first_half.push((at(j, 2 * k - j), Step::Right, h_k));
        }
    }
    // Splitting links from semi-diagonal D_{2k}: core C_{j,2k+1−j} sends
    // r_{k,j} right and d_{k,j} down.
    for k in 1..=p_prime.saturating_sub(1) {
        let denom = (k * (k + 1)) as f64;
        for j in 1..=k {
            let r = k_total * (k + 1 - j) as f64 / denom;
            let d = k_total * j as f64 / denom;
            first_half.push((at(j, 2 * k + 1 - j), Step::Right, r));
            first_half.push((at(j, 2 * k + 1 - j), Step::Down, d));
        }
    }
    // Second half: reflect across the anti-diagonal. The reflection
    // τ(u,v) = (p+1−v, p+1−u) maps a right link a→b onto the down link
    // τ(b)→τ(a), preserving the down-right flow direction and stitching the
    // halves together on the anti-diagonal cores.
    let tau = |c: Coord| Coord::new(p - 1 - c.v, p - 1 - c.u);
    let mut all = first_half.clone();
    for &(from, step, load) in &first_half {
        let to = mesh.step(from, step).unwrap();
        let (nfrom, nstep) = match step {
            Step::Right => (tau(to), Step::Down),
            Step::Down => (tau(to), Step::Right),
            _ => unreachable!("pattern only uses Right/Down"),
        };
        all.push((nfrom, nstep, load));
    }
    for (from, step, load) in all {
        let id: LinkId = mesh
            .link_id(from, step)
            .unwrap_or_else(|| panic!("pattern link {from}+{step} leaves the mesh"));
        loads.add(id, load);
    }
    Fig4Pattern {
        mesh,
        loads,
        total: k_total,
    }
}

impl Fig4Pattern {
    /// Net outflow (out − in) at a core. Zero everywhere except `+K` at the
    /// source corner and `−K` at the sink corner.
    pub fn net_flow(&self, c: Coord) -> f64 {
        let mut net = 0.0;
        for s in Step::ALL {
            if let Some(id) = self.mesh.link_id(c, s) {
                net += self.loads.get(id);
            }
            // Incoming link from the neighbour in direction s.
            if let Some(nb) = self.mesh.step(c, s) {
                if let Some(id) = self.mesh.link_id(nb, s.opposite()) {
                    net -= self.loads.get(id);
                }
            }
        }
        net
    }

    /// Checks flow conservation at every core (within `eps`).
    pub fn verify_conservation(&self, eps: f64) -> bool {
        let p = self.mesh.rows();
        let src = Coord::new(0, 0);
        let snk = Coord::new(p - 1, p - 1);
        self.mesh.cores().all(|c| {
            let expected = if c == src {
                self.total
            } else if c == snk {
                -self.total
            } else {
                0.0
            };
            (self.net_flow(c) - expected).abs() <= eps
        })
    }

    /// Total power of the pattern under `model`.
    pub fn power(&self, model: &PowerModel) -> f64 {
        model
            .total_power(&self.loads)
            .expect("pattern loads must be feasible under the given model")
    }
}

/// Power of the XY routing of the same corner-to-corner traffic: all `K`
/// bytes cross each of the `2p − 2` links of the single XY path.
pub fn xy_corner_power(p: usize, k_total: f64, model: &PowerModel) -> f64 {
    (2 * p - 2) as f64
        * model
            .link_power(k_total)
            .expect("XY corner load infeasible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_identities_of_the_proof() {
        // r_{k,j} + d_{k,j−1} = h_{k+1} and r_{k,j} + d_{k,j} = h_k.
        let k_total = 1.0;
        for k in 1..6usize {
            let denom = (k * (k + 1)) as f64;
            let h_k = k_total / k as f64;
            let h_k1 = k_total / (k + 1) as f64;
            for j in 1..=k {
                let r = k_total * (k + 1 - j) as f64 / denom;
                let d = k_total * j as f64 / denom;
                assert!((r + d - h_k).abs() < 1e-12);
                if j >= 2 {
                    let d_prev = k_total * (j - 1) as f64 / denom;
                    assert!((r + d_prev - h_k1).abs() < 1e-12);
                }
            }
            // Edge identities: r_{k,1} = h_{k+1} and d_{k,k} = h_{k+1}.
            let r1 = k_total * k as f64 / denom;
            let dk = k_total * k as f64 / denom;
            assert!((r1 - h_k1).abs() < 1e-12);
            assert!((dk - h_k1).abs() < 1e-12);
        }
    }

    #[test]
    fn pattern_conserves_flow() {
        for p_prime in 1..=6 {
            let pat = fig4_pattern(p_prime, 10.0);
            assert!(
                pat.verify_conservation(1e-9),
                "conservation fails for p' = {p_prime}"
            );
        }
    }

    #[test]
    fn pattern_power_is_bounded_by_proof_constant() {
        // (1/2)·P_max ≤ 2·K^α·Σ 1/k^{α−1} ≤ 2·K^α·ζ(α−1); with α = 3,
        // ζ(2) = π²/6, so P_max ≤ 4·K³·π²/6 ≈ 6.58·K³.
        let model = PowerModel::theory(3.0);
        let k_total = 2.0;
        for p_prime in 1..=8 {
            let pat = fig4_pattern(p_prime, k_total);
            let p = pat.power(&model);
            let bound = 4.0 * k_total.powi(3) * std::f64::consts::PI.powi(2) / 6.0;
            assert!(p <= bound, "p'={p_prime}: {p} > {bound}");
        }
    }

    #[test]
    fn ratio_grows_linearly_in_p() {
        let model = PowerModel::theory(3.0);
        let k_total = 1.0;
        let ratio = |p_prime: usize| {
            let pat = fig4_pattern(p_prime, k_total);
            xy_corner_power(2 * p_prime, k_total, &model) / pat.power(&model)
        };
        let r4 = ratio(4);
        let r8 = ratio(8);
        let r16 = ratio(16);
        // Doubling p roughly doubles the ratio (within 25%).
        assert!((r8 / r4 - 2.0).abs() < 0.5, "r8/r4 = {}", r8 / r4);
        assert!((r16 / r8 - 2.0).abs() < 0.5, "r16/r8 = {}", r16 / r8);
        assert!(r16 > r8 && r8 > r4);
    }

    #[test]
    fn smallest_pattern_is_a_plain_path() {
        // p' = 1: a 2×2 mesh; the pattern is K on (0,0)→(0,1)→(1,1).
        let pat = fig4_pattern(1, 5.0);
        assert_eq!(pat.loads.active_links(), 2);
        assert!((pat.loads.total() - 10.0).abs() < 1e-12);
        assert!(pat.verify_conservation(1e-12));
    }

    #[test]
    fn xy_power_formula() {
        let model = PowerModel::theory(3.0);
        // p = 4, K = 2: 6 links × 2³ = 48.
        assert!((xy_corner_power(4, 2.0, &model) - 48.0).abs() < 1e-12);
    }
}
