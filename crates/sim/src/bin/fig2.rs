//! Reproduces Figure 2: the XY / 1-MP / 2-MP comparison on the paper's toy
//! instance (`P_leak = 0`, `P_0 = 1`, `α = 3`, `BW = 4`, two communications
//! of sizes 1 and 3 between opposite corners of a 2×2 mesh).

use pamr_mesh::{Coord, Mesh, Path};
use pamr_power::PowerModel;
use pamr_routing::{Comm, CommSet, Routing};
use pamr_sim::outln;

fn main() {
    pamr_sim::cli::no_args().unwrap_or_else(pamr_sim::cli::exit_usage);
    let mesh = Mesh::new(2, 2);
    let src = Coord::new(0, 0);
    let snk = Coord::new(1, 1);
    let cs = CommSet::new(
        mesh,
        vec![Comm::new(src, snk, 1.0), Comm::new(src, snk, 3.0)],
    );
    let model = PowerModel::fig2();

    let xy = Routing::single(&cs, vec![Path::xy(src, snk), Path::xy(src, snk)]);
    let mp1 = Routing::single(&cs, vec![Path::xy(src, snk), Path::yx(src, snk)]);
    let mp2 = Routing::multi(vec![
        vec![(Path::xy(src, snk), 1.0)],
        vec![(Path::xy(src, snk), 1.0), (Path::yx(src, snk), 2.0)],
    ]);

    outln!("Figure 2 — comparison of routing rules (paper values: 128 / 56 / 32)");
    for (name, routing, paper) in [
        ("XY  ", &xy, 128.0),
        ("1-MP", &mp1, 56.0),
        ("2-MP", &mp2, 32.0),
    ] {
        let p = routing
            .power(&cs, &model)
            .expect("Fig. 2 routings are feasible")
            .total();
        outln!("P_{name} = {p:7.2}   (paper: {paper})");
        assert!((p - paper).abs() < 1e-9, "mismatch vs the paper");
    }
    outln!("all three match the paper exactly");
}
