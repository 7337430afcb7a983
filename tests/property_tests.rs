//! Property-based tests (proptest) over random instances: structural
//! invariants every routing policy must uphold regardless of the input.

use pamr::prelude::*;
use proptest::prelude::*;

/// Strategy: a random instance on a small mesh (up to 5×5, up to 8 comms).
fn instance_strategy() -> impl Strategy<Value = CommSet> {
    (2usize..=5, 2usize..=5)
        .prop_flat_map(|(p, q)| {
            let comms = prop::collection::vec(((0..p, 0..q), (0..p, 0..q), 1u32..=400), 1..=8);
            (Just((p, q)), comms)
        })
        .prop_map(|((p, q), comms)| {
            let mesh = Mesh::new(p, q);
            CommSet::new(
                mesh,
                comms
                    .into_iter()
                    .map(|((su, sv), (tu, tv), w)| {
                        Comm::new(Coord::new(su, sv), Coord::new(tu, tv), w as f64 * 10.0)
                    })
                    .collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_policy_returns_structurally_valid_single_paths(cs in instance_strategy()) {
        let model = PowerModel::continuous(1.0, 1.0, 2.5, f64::INFINITY);
        for kind in HeuristicKind::ALL {
            let r = kind.route(&cs, &model);
            prop_assert!(r.is_structurally_valid(&cs, 1), "{kind} invalid");
            // Paths are shortest: every path length equals the Manhattan
            // distance of its communication.
            for (i, c) in cs.comms().iter().enumerate() {
                prop_assert_eq!(r.path(i).len(), c.len());
            }
        }
    }

    #[test]
    fn load_conservation_for_single_path_routings(cs in instance_strategy()) {
        let model = PowerModel::continuous(0.0, 1.0, 3.0, f64::INFINITY);
        for kind in HeuristicKind::ALL {
            let r = kind.route(&cs, &model);
            let loads = r.loads(&cs);
            let expected: f64 = cs.comms().iter().map(|c| c.weight * c.len() as f64).sum();
            prop_assert!((loads.total() - expected).abs() < 1e-6 * expected.max(1.0),
                "{}: total load {} != Σ δ·ℓ = {}", kind, loads.total(), expected);
        }
    }

    #[test]
    fn best_never_worse_than_xy(cs in instance_strategy()) {
        // Uncapacitated: XY always feasible, so BEST exists and is ≤ XY.
        let model = PowerModel::continuous(1.0, 1.0, 3.0, f64::INFINITY);
        let p_xy = xy_routing(&cs).power(&cs, &model).unwrap().total();
        let best = Best.route(&cs, &model).power.unwrap();
        prop_assert!(best <= p_xy + 1e-9 * p_xy.max(1.0));
    }

    #[test]
    fn feasibility_is_monotone_in_capacity(cs in instance_strategy()) {
        // If a routing is feasible at capacity C it stays feasible at 2C.
        let tight = PowerModel::continuous(0.0, 1.0, 3.0, 800.0);
        let loose = PowerModel::continuous(0.0, 1.0, 3.0, 1600.0);
        for kind in HeuristicKind::ALL {
            let r = kind.route(&cs, &tight);
            if r.is_feasible(&cs, &tight) {
                prop_assert!(r.is_feasible(&cs, &loose), "{kind} lost feasibility");
            }
        }
    }

    #[test]
    fn frank_wolfe_dominates_single_path_and_bounds_hold(cs in instance_strategy()) {
        let model = PowerModel::continuous(0.0, 1.0, 3.0, f64::INFINITY);
        let fw = frank_wolfe(&cs, &model, 60);
        prop_assert!(fw.routing.is_structurally_valid(&cs, usize::MAX));
        prop_assert!(fw.lower_bound <= fw.dynamic_power + 1e-6 * fw.dynamic_power.max(1.0));
        // The multi-path *optimum* is never worse than the best single
        // path; Frank–Wolfe approaches it at rate O(1/k), so allow the
        // primal iterate a small convergence margin. The certified lower
        // bound, in contrast, must hold outright.
        let best = Best.route(&cs, &model).power.unwrap();
        prop_assert!(fw.dynamic_power <= best * 1.05 + 1e-9,
            "FW {} vs BEST {}", fw.dynamic_power, best);
        prop_assert!(fw.lower_bound <= best + 1e-6 * best.max(1.0));
    }

    #[test]
    fn xy_and_yx_agree_on_power_for_straight_comms(
        u in 0usize..4, len in 1usize..4, w in 1u32..100
    ) {
        // Straight-line communications leave no routing freedom.
        let mesh = Mesh::new(4, 5);
        let cs = CommSet::new(
            mesh,
            vec![Comm::new(Coord::new(u, 0), Coord::new(u, len), w as f64)],
        );
        let model = PowerModel::continuous(0.5, 1.0, 3.0, f64::INFINITY);
        let a = xy_routing(&cs).power(&cs, &model).unwrap().total();
        let b = yx_routing(&cs).power(&cs, &model).unwrap().total();
        prop_assert!((a - b).abs() < 1e-12);
        for kind in HeuristicKind::ALL {
            let p = kind.route(&cs, &model).power(&cs, &model).unwrap().total();
            prop_assert!((p - a).abs() < 1e-9, "{kind} differs on a forced path");
        }
    }
}
