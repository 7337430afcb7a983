//! JSON round-trips of the public data types (the CLI's interchange
//! format).

use pamr::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn commset_round_trips_through_json() {
    let mesh = Mesh::new(8, 8);
    let mut rng = SmallRng::seed_from_u64(42);
    let cs = UniformWorkload::new(15, 100.0, 2500.0).generate(&mesh, &mut rng);
    let json = serde_json::to_string(&cs).unwrap();
    let back: CommSet = serde_json::from_str(&json).unwrap();
    // Weights may differ in the last ULP through the text round trip;
    // structure must be identical and weights equal to 1e-12 relative.
    assert_eq!(back.len(), cs.len());
    assert_eq!(back.mesh(), cs.mesh());
    for (a, b) in cs.comms().iter().zip(back.comms()) {
        assert_eq!(a.src, b.src);
        assert_eq!(a.snk, b.snk);
        assert!((a.weight - b.weight).abs() <= 1e-12 * a.weight);
    }
}

#[test]
fn routing_round_trips_through_json() {
    let mesh = Mesh::new(5, 5);
    let cs = CommSet::new(
        mesh,
        vec![
            Comm::new(Coord::new(0, 0), Coord::new(4, 4), 1200.0),
            Comm::new(Coord::new(4, 0), Coord::new(0, 4), 800.0),
        ],
    );
    let model = PowerModel::kim_horowitz();
    let r = SplitMp::new(PathRemover, 2).route(&cs, &model);
    let json = serde_json::to_string(&r).unwrap();
    let back: Routing = serde_json::from_str(&json).unwrap();
    assert_eq!(r, back);
    // Power is preserved through the round trip.
    assert_eq!(
        r.power(&cs, &model).unwrap().total(),
        back.power(&cs, &model).unwrap().total()
    );
}

#[test]
fn power_model_round_trips_through_json() {
    // Finite-capacity models round trip exactly. (The theory model's
    // infinite capacity serialises to JSON null and is session-only by
    // design — JSON has no ±inf.)
    for m in [PowerModel::kim_horowitz(), PowerModel::fig2()] {
        let json = serde_json::to_string(&m).unwrap();
        let back: PowerModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}

#[test]
fn hand_written_instance_json_parses() {
    // The format a user would write by hand for the CLI.
    let json = r#"{
        "mesh": {"p": 4, "q": 4},
        "comms": [
            {"src": {"u": 0, "v": 0}, "snk": {"u": 3, "v": 3}, "weight": 1500.0},
            {"src": {"u": 3, "v": 0}, "snk": {"u": 0, "v": 3}, "weight": 900.0}
        ]
    }"#;
    let cs: CommSet = serde_json::from_str(json).unwrap();
    assert_eq!(cs.len(), 2);
    assert_eq!(cs.mesh().rows(), 4);
    let model = PowerModel::kim_horowitz();
    assert!(Best.route(&cs, &model).is_feasible());
}
