//! The paper's motivating system-level scenario (§1): several applications,
//! each described as a task graph and already mapped onto cores of the CMP,
//! generate a set of inter-core communications that the system must route.
//!
//! We co-locate an FFT (butterfly), a 4-stage video pipeline and a stencil
//! kernel on one 8×8 CMP, then compare the XY baseline against the
//! Manhattan heuristics.
//!
//! Run with: `cargo run --release --example multi_app_cmp`

use pamr::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mesh = Mesh::new(8, 8);
    let model = PowerModel::kim_horowitz();
    let mut rng = SmallRng::seed_from_u64(2024);

    // Application 1: a 16-point FFT on the top-left 4×4 quadrant.
    let fft = TaskGraph::butterfly(4, 450.0);
    let fft_map = Mapping::explicit((0..16).map(|i| Coord::new(i / 4, i % 4)).collect());

    // Application 2: a video pipeline snaking down the right columns.
    let pipeline = TaskGraph::pipeline(8, 1900.0);
    let pipe_map = Mapping::explicit(
        (0..8)
            .map(|i| Coord::new(i, if i % 2 == 0 { 6 } else { 7 }))
            .collect(),
    );

    // Application 3: a 4×4 stencil kernel on the bottom-left quadrant,
    // randomly placed within it to model fragmented allocation.
    let stencil = TaskGraph::stencil(4, 4, 650.0);
    let stencil_map = {
        use rand::seq::SliceRandom;
        let mut cells: Vec<Coord> = (4..8)
            .flat_map(|u| (0..4).map(move |v| Coord::new(u, v)))
            .collect();
        cells.shuffle(&mut rng);
        Mapping::explicit(cells)
    };

    let cs = pamr::workload::taskgraph::merge_applications(
        &mesh,
        &[
            (&fft, &fft_map),
            (&pipeline, &pipe_map),
            (&stencil, &stencil_map),
        ],
    );
    println!(
        "system instance: {} communications, total demand {:.0} Mb/s, mean length {:.2}\n",
        cs.len(),
        cs.total_weight(),
        cs.mean_length()
    );

    println!(
        "{:<6} {:>10} {:>9} {:>10}",
        "policy", "power mW", "links", "max load"
    );
    let mut xy_power = None;
    for kind in HeuristicKind::ALL {
        let routing = kind.route(&cs, &model);
        let loads = routing.loads(&cs);
        match routing.power(&cs, &model) {
            Ok(p) => {
                if kind == HeuristicKind::Xy {
                    xy_power = Some(p.total());
                }
                println!(
                    "{:<6} {:>10.1} {:>9} {:>10.0}",
                    kind.name(),
                    p.total(),
                    p.active_links,
                    loads.max_load()
                );
            }
            Err(_) => println!(
                "{:<6} {:>10} {:>9} {:>10.0}",
                kind.name(),
                "FAILED",
                "-",
                loads.max_load()
            ),
        }
    }

    let routed = Best.route(&cs, &model);
    if let Some(best) = routed.power {
        println!("\nBEST = {} at {best:.1} mW", routed.kind);
        if let Some(xy) = xy_power {
            println!("power saved vs XY: {:.1}%", 100.0 * (1.0 - best / xy));
        } else {
            println!("XY routing failed outright on this instance — Manhattan routing found a solution where XY could not");
        }
    } else {
        println!("\nno policy found a feasible routing — the instance over-subscribes the CMP");
    }
}
