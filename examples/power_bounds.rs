//! Situating the heuristics in absolute terms — the paper's future-work
//! item: "establish a bound on the optimal solution for single-path
//! Manhattan routings (or even compute the optimal solution for small
//! problem instances)".
//!
//! On small random instances this example computes, per instance:
//! the exact optimal 1-MP power (branch-and-bound), the Frank–Wolfe
//! multi-path lower bound, the diagonal-aggregation lower bound of the
//! Theorem 2 proof, and the heuristics' powers.
//!
//! Run with: `cargo run --release --example power_bounds`

use pamr::prelude::*;
use pamr::routing::{ideal_power_lower_bound, optimal_single_path};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mesh = Mesh::new(4, 4);
    // Continuous theory model so every bound is comparable (leakage off).
    let model = PowerModel::continuous(0.0, 1.0, 3.0, f64::INFINITY);
    let gen = UniformWorkload::new(5, 1.0, 4.0);

    println!("5 random communications on a 4×4 mesh, α = 3, continuous frequencies\n");
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "inst", "diag LB", "FW LB", "multi-MP", "opt 1-MP", "BEST", "XY"
    );
    for inst in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(inst);
        let cs = gen.generate(&mesh, &mut rng);
        let diag_lb = ideal_power_lower_bound(&cs, &model);
        let fw = frank_wolfe(&cs, &model, 300);
        let (_, opt) = optimal_single_path(&cs, &model, 1 << 24)
            .expect("node budget is ample for 5 comms on 4×4")
            .expect("unbounded capacity is always feasible");
        let best = Best
            .route(&cs, &model)
            .power
            .expect("unbounded capacity is always feasible");
        let xy = xy_routing(&cs).power(&cs, &model).unwrap().total();
        println!(
            "{inst:>4} {diag_lb:>10.2} {:>10.2} {:>10.2} {opt:>10.2} {best:>10.2} {xy:>10.2}",
            fw.lower_bound, fw.dynamic_power
        );
        // The chain of inequalities the theory promises:
        assert!(diag_lb <= opt + 1e-6);
        assert!(fw.lower_bound <= fw.dynamic_power + 1e-6);
        assert!(
            fw.dynamic_power <= opt + 1e-6,
            "multi-path beats single-path"
        );
        assert!(opt <= best + 1e-6, "exact optimum bounds every heuristic");
        assert!(best <= xy + 1e-6, "BEST includes XY");
    }
    println!(
        "\nevery instance satisfies  diag-LB ≤ opt-1MP,  FW-LB ≤ multi-MP ≤ opt-1MP ≤ BEST ≤ XY"
    );
}
