//! Demonstrates the Section 4 theoretical results numerically:
//! Lemma 1 (path counting), Theorem 1 (Fig. 4 pattern, ratio Θ(p)),
//! Lemma 2 (YX vs XY, ratio Θ(p^{α−1})) and Theorem 3 (2-PARTITION
//! reduction).

use pamr_power::PowerModel;
use pamr_sim::outln;
use pamr_theory::{
    fig4_pattern, lemma2_ratio, manhattan_path_count, partition_exists, reduction_instance,
    xy_corner_power,
};

fn main() {
    pamr_sim::cli::no_args().unwrap_or_else(pamr_sim::cli::exit_usage);
    outln!("== Lemma 1: Manhattan path counts C(p+q-2, p-1) ==");
    for (p, q) in [(2, 2), (4, 4), (8, 8), (8, 16)] {
        outln!("{p:>3}×{q:<3} → {}", manhattan_path_count(p, q));
    }

    let model = PowerModel::theory(3.0);
    outln!("\n== Theorem 1: P_XY / P_maxMP on the Fig. 4 pattern (α = 3) ==");
    outln!("{:>5} {:>12} {:>12} {:>8}", "p", "P_XY", "P_maxMP", "ratio");
    for p_prime in [1usize, 2, 4, 8, 16, 32] {
        let pat = fig4_pattern(p_prime, 1.0);
        assert!(pat.verify_conservation(1e-9));
        let pmax = pat.power(&model);
        let pxy = xy_corner_power(2 * p_prime, 1.0, &model);
        outln!(
            "{:>5} {:>12.4} {:>12.4} {:>8.2}",
            2 * p_prime,
            pxy,
            pmax,
            pxy / pmax
        );
    }
    outln!("(ratio grows linearly in p — the Θ(p) of Theorem 1)");

    outln!("\n== Lemma 2: single-path YX vs XY on the anti-diagonal instance ==");
    outln!("{:>5} {:>14} {:>12} {:>10}", "p'", "P_XY", "P_YX", "ratio");
    for p_prime in [2usize, 4, 8, 16, 32] {
        let (pxy, pyx) = lemma2_ratio(p_prime, &model);
        outln!("{p_prime:>5} {pxy:>14.1} {pyx:>12.1} {:>10.2}", pxy / pyx);
    }
    outln!("(ratio grows as p^(α−1) = p² for α = 3 — Lemma 2 / Theorem 2)");

    outln!("\n== Theorem 3: 2-PARTITION reduction ==");
    for a in [vec![1u64, 2, 1, 2, 1, 1], vec![2, 2, 2]] {
        let inst = reduction_instance(&a, 2);
        let part = partition_exists(&a);
        outln!(
            "a = {a:?}: q = {}, BW = {}, partition {} → s-MP routing {}",
            inst.q(),
            inst.bw,
            if part.is_some() { "EXISTS" } else { "none" },
            if part.is_some() {
                "feasible"
            } else {
                "infeasible"
            },
        );
    }
}
