//! Quickstart: define a CMP, a set of communications, route them with every
//! policy and compare powers.
//!
//! Run with: `cargo run --release --example quickstart`

use pamr::prelude::*;

fn main() {
    // The paper's platform: an 8×8 mesh CMP with the Kim–Horowitz link
    // model (frequencies 1 / 2.5 / 3.5 Gb/s, P_leak = 16.9 mW, α = 2.95).
    let mesh = Mesh::new(8, 8);
    let model = PowerModel::kim_horowitz();

    // A handful of communications (weights in Mb/s), as would result from
    // a few applications already mapped onto the cores.
    let cs = CommSet::new(
        mesh,
        vec![
            Comm::new(Coord::new(0, 0), Coord::new(5, 6), 1800.0),
            Comm::new(Coord::new(0, 0), Coord::new(5, 6), 1400.0),
            Comm::new(Coord::new(7, 0), Coord::new(0, 7), 900.0),
            Comm::new(Coord::new(3, 2), Coord::new(3, 7), 2600.0),
            Comm::new(Coord::new(6, 5), Coord::new(1, 1), 700.0),
            Comm::new(Coord::new(2, 7), Coord::new(6, 0), 1100.0),
        ],
    );

    println!("routing {} communications on an 8×8 CMP\n", cs.len());
    println!(
        "{:<6} {:>10} {:>9} {:>13} {:>12}",
        "policy", "power mW", "links", "static frac", "max load"
    );
    for kind in HeuristicKind::ALL {
        let routing = kind.route(&cs, &model);
        let loads = routing.loads(&cs);
        match routing.power(&cs, &model) {
            Ok(p) => println!(
                "{:<6} {:>10.1} {:>9} {:>13.3} {:>12.0}",
                kind.name(),
                p.total(),
                p.active_links,
                p.static_fraction(),
                loads.max_load()
            ),
            Err(_) => println!(
                "{:<6} {:>10} {:>9} {:>13} {:>12.0}",
                kind.name(),
                "FAILED",
                "-",
                "-",
                loads.max_load()
            ),
        }
    }

    let best = Best.route(&cs, &model);
    let power = best
        .power
        .expect("at least one policy must succeed on this instance");
    println!("\nBEST = {} at {power:.1} mW", best.kind);

    // How much more could multi-path routing save? (continuous-frequency
    // lower bound via Frank–Wolfe)
    let cont = PowerModel::kim_horowitz_continuous();
    let fw = frank_wolfe(&cs, &cont, 200);
    println!(
        "multi-path dynamic-power lower bound (continuous frequencies): {:.1} mW",
        fw.lower_bound
    );
}
