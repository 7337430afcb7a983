//! Integration test: heuristic quality against the exact 1-MP optimum on
//! small random instances (the paper's future-work item, executed).

use pamr::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn heuristics_bounded_by_exact_optimum_continuous() {
    let mesh = Mesh::new(4, 4);
    let model = PowerModel::continuous(1.0, 1.0, 3.0, f64::INFINITY);
    let gen = UniformWorkload::new(5, 1.0, 4.0);
    let mut best_gaps = Vec::new();
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cs = gen.generate(&mesh, &mut rng);
        let (_, opt) = optimal_single_path(&cs, &model, 1 << 24)
            .expect("budget")
            .expect("feasible");
        for kind in HeuristicKind::ALL {
            let r = kind.route(&cs, &model);
            let p = r.power(&cs, &model).unwrap().total();
            assert!(
                p + 1e-9 >= opt,
                "seed {seed}: {kind} ({p}) beat the optimum ({opt})"
            );
        }
        let best = Best.route(&cs, &model).power.expect("feasible instance");
        best_gaps.push(best / opt);
    }
    // The portfolio should be close to optimal on such small instances.
    let mean_gap = best_gaps.iter().sum::<f64>() / best_gaps.len() as f64;
    assert!(mean_gap < 1.5, "mean BEST/opt gap {mean_gap}");
}

#[test]
fn exact_agrees_with_heuristics_on_feasibility_discrete() {
    // With the discrete campaign model and tight capacity, whenever the
    // exact solver proves infeasibility no heuristic may claim success.
    let mesh = Mesh::new(3, 3);
    let model = PowerModel::kim_horowitz();
    let gen = UniformWorkload::new(4, 1500.0, 3500.0);
    for seed in 0..20u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cs = gen.generate(&mesh, &mut rng);
        let exact = optimal_single_path(&cs, &model, 1 << 24).expect("budget");
        let any_heur_ok = HeuristicKind::ALL
            .iter()
            .any(|k| k.route(&cs, &model).is_feasible(&cs, &model));
        match exact {
            Some((_, opt)) => {
                // Heuristics may fail where the optimum exists, but if one
                // succeeds it must not beat the optimum.
                for kind in HeuristicKind::ALL {
                    if let Ok(p) = kind.route(&cs, &model).power(&cs, &model) {
                        assert!(p.total() + 1e-9 >= opt, "seed {seed}: {kind} beat optimum");
                    }
                }
            }
            None => {
                assert!(
                    !any_heur_ok,
                    "seed {seed}: a heuristic claims feasibility on a provably infeasible instance"
                );
            }
        }
    }
}

#[test]
fn frank_wolfe_lower_bounds_the_single_path_optimum() {
    let mesh = Mesh::new(4, 4);
    let model = PowerModel::theory(2.5);
    let gen = UniformWorkload::new(4, 1.0, 3.0);
    for seed in 100..108u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cs = gen.generate(&mesh, &mut rng);
        let fw = frank_wolfe(&cs, &model, 300);
        let (_, opt) = optimal_single_path(&cs, &model, 1 << 24)
            .expect("budget")
            .expect("feasible");
        assert!(
            fw.lower_bound <= opt + 1e-6,
            "seed {seed}: FW bound {} exceeds optimum {opt}",
            fw.lower_bound
        );
    }
}
