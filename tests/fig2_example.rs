//! Integration test: the Figure 2 worked example, end to end through the
//! public facade API (exact paper numbers 128 / 56 / 32).

use pamr::prelude::*;

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
fn xy_power_is_128() {
    let cs = fig2_instance();
    let model = PowerModel::fig2();
    let p = xy_routing(&cs).power(&cs, &model).unwrap().total();
    assert!((p - 128.0).abs() < 1e-9);
}

#[test]
fn best_single_path_power_is_56() {
    let cs = fig2_instance();
    let model = PowerModel::fig2();
    // The exact 1-MP optimum…
    let (_, opt) = optimal_single_path(&cs, &model, 1 << 20).unwrap().unwrap();
    assert!((opt - 56.0).abs() < 1e-9);
    // …and the heuristic portfolio reaches it.
    let best = Best.route(&cs, &model);
    let power = best.power.expect("fig2 is routable");
    assert!((power - 56.0).abs() < 1e-9);
    assert!(best.routing.is_structurally_valid(&cs, 1));
}

#[test]
fn two_path_split_reaches_32() {
    let cs = fig2_instance();
    let model = PowerModel::fig2();
    let src = Coord::new(0, 0);
    let snk = Coord::new(1, 1);
    let mp2 = Routing::multi(vec![
        vec![(Path::xy(src, snk), 1.0)],
        vec![(Path::xy(src, snk), 1.0), (Path::yx(src, snk), 2.0)],
    ]);
    assert!(mp2.is_structurally_valid(&cs, 2));
    let p = mp2.power(&cs, &model).unwrap().total();
    assert!((p - 32.0).abs() < 1e-9);
}

#[test]
fn frank_wolfe_approaches_the_multipath_optimum() {
    // With both communications merged (same poles), the max-MP optimum is
    // the perfectly balanced 32; Frank–Wolfe must come close from above.
    let cs = fig2_instance();
    let model = PowerModel::fig2();
    let fw = frank_wolfe(&cs, &model, 500);
    assert!(fw.dynamic_power >= 32.0 - 1e-9);
    assert!(fw.dynamic_power < 33.0, "FW at {}", fw.dynamic_power);
    assert!(fw.lower_bound <= 32.0 + 1e-9);
}
