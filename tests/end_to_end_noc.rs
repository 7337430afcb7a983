//! End-to-end: workload generation → heuristic routing → packet-level NoC
//! execution, checking that the flow-level feasibility verdict predicts the
//! packet-level behaviour.

use pamr::nocsim::{simulate, SimConfig};
use pamr::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn feasible_routings_sustain_their_rates() {
    let mesh = Mesh::new(8, 8);
    let model = PowerModel::kim_horowitz();
    let gen = UniformWorkload::new(15, 100.0, 1500.0);
    let cfg = SimConfig {
        horizon_us: 100.0,
        packet_bits: 512.0,
    };
    let mut checked = 0;
    for seed in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cs = gen.generate(&mesh, &mut rng);
        let best = Best.route(&cs, &model);
        if best.is_feasible() {
            let rep = simulate(&cs, &best.routing, &model, &cfg);
            assert!(!rep.clamped, "seed {seed}: feasible routing clamped");
            // Transient queueing at high (but ≤ 100%) utilisation leaves a
            // bounded residual queue — tens of packets at most. Divergence
            // (an over-capacity link) grows linearly with the horizon and
            // lands far above this.
            assert!(
                rep.sustains(15.0),
                "seed {seed}: backlog {} µs on a feasible routing",
                rep.max_backlog_us
            );
            // Every flow delivered packets.
            assert!(rep.flows.iter().all(|f| f.delivered > 0));
            checked += 1;
        }
    }
    assert!(checked >= 4, "too few feasible instances to be meaningful");
}

#[test]
fn infeasible_xy_shows_divergence_where_manhattan_sustains() {
    // Craft an instance where XY is infeasible but Manhattan routing works:
    // two heavy flows from the same source to the same sink.
    let mesh = Mesh::new(8, 8);
    let model = PowerModel::kim_horowitz();
    let cs = CommSet::new(
        mesh,
        vec![
            Comm::new(Coord::new(1, 1), Coord::new(6, 6), 3000.0),
            Comm::new(Coord::new(1, 1), Coord::new(6, 6), 3000.0),
        ],
    );
    let cfg = SimConfig::default();
    assert!(!xy_routing(&cs).is_feasible(&cs, &model));
    let xy_rep = simulate(&cs, &xy_routing(&cs), &model, &cfg);
    assert!(xy_rep.clamped);
    assert!(xy_rep.max_backlog_us > 20.0);

    let pr = PathRemover.route(&cs, &model);
    assert!(pr.is_feasible(&cs, &model));
    let pr_rep = simulate(&cs, &pr, &model, &cfg);
    assert!(!pr_rep.clamped);
    assert!(pr_rep.sustains(3.0));
    assert!(pr_rep.mean_latency_us() < xy_rep.mean_latency_us());
}

#[test]
fn task_graph_apps_route_and_execute() {
    // The multi-application scenario end to end.
    let mesh = Mesh::new(8, 8);
    let model = PowerModel::kim_horowitz();
    let fft = TaskGraph::butterfly(3, 600.0);
    let pipe = TaskGraph::pipeline(6, 1200.0);
    let m1 = Mapping::row_major(&mesh, 8);
    let mut rng = SmallRng::seed_from_u64(5);
    let m2 = Mapping::random(&mesh, 6, &mut rng);
    let cs = pamr::workload::taskgraph::merge_applications(&mesh, &[(&fft, &m1), (&pipe, &m2)]);
    let best = Best.route(&cs, &model);
    assert!(best.power.unwrap() > 0.0);
    let rep = simulate(&cs, &best.routing, &model, &SimConfig::default());
    assert!(rep.sustains(3.0));
    assert!(rep.energy_nj > 0.0);
}
