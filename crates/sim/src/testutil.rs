//! Shared workload sweeps and the engine/oracle check for the
//! differential-oracle test suites and the `pamr-bench` engine lanes.
//!
//! The engine and session oracles all sweep the same §6-style instance
//! families (uniform draws across mesh shapes and weight regimes, the
//! Figure 9 length-targeted generator, merged task-graph applications).
//! This module is the single definition of those sweeps; the seeds and
//! draw order are part of the oracles' contracts, so changing anything
//! here intentionally shifts every differential suite at once. It also
//! holds the one comparison of the rewritten engines ([`PR`], [`XYI`],
//! [`IG`], [`TB`]) against their literal oracles, [`engines_agree`]: the
//! test suites call it through its panicking wrapper
//! [`assert_engines_agree`], and the `pamr-bench` `pr`/`xyi`/`ig`/`tb` and
//! `scaling` lanes call it
//! directly before they time anything. Its whole-campaign form is
//! [`assert_campaign_matches_reference`].

use crate::summary::Summary;
use pamr_mesh::{LinkId, Mesh};
use pamr_power::PowerModel;
use pamr_routing::{
    CommSet, EngineConfig, Heuristic, ImprovedGreedy, PathRemover, PrError, RouteScratch, Routing,
    TwoBend, XyImprover,
};
use pamr_workload::taskgraph::merge_applications;
use pamr_workload::{LengthTargetedWorkload, Mapping, TaskGraph, UniformWorkload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The §6.1–6.2 generator (Figures 7 and 8: uniform endpoints and
/// weights) over square and rectangular meshes and the paper's weight
/// regimes, including the degenerate fixed-weight fig8 draws. Calls
/// `visit` with each instance and a replay label.
pub fn uniform_sweep(mut visit: impl FnMut(&CommSet, &str)) {
    for (p, q) in [(2, 2), (3, 5), (5, 3), (8, 8), (1, 6), (6, 1)] {
        let mesh = Mesh::new(p, q);
        let max_n = (4 * p * q).min(80);
        for (w_min, w_max) in [(100.0, 1500.0), (100.0, 2500.0), (1750.0, 1750.0)] {
            for seed in 0..4u64 {
                let mut rng = SmallRng::seed_from_u64(seed ^ (p as u64) << 8 ^ (q as u64) << 16);
                let n = rng.gen_range(1..=max_n);
                let cs = UniformWorkload::new(n, w_min, w_max).generate(&mesh, &mut rng);
                visit(&cs, &format!("{p}x{q} uniform n={n} seed={seed}"));
            }
        }
    }
}

/// The Figure 9 generator: source/sink pairs drawn at a target Manhattan
/// distance — exercises long thin bands and corner-to-corner traffic.
pub fn length_targeted_sweep(mut visit: impl FnMut(&CommSet, &str)) {
    let mesh = Mesh::new(8, 8);
    for len in [2, 5, 9, 14] {
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(seed * 31 + len as u64);
            let cs = LengthTargetedWorkload::new(25, 100.0, 3500.0, len).generate(&mesh, &mut rng);
            visit(&cs, &format!("length-targeted len={len} seed={seed}"));
        }
    }
}

/// System-level instances: several mapped applications merged into one
/// communication set (§3.2), with structured traffic patterns (pipeline,
/// stencil, transpose, hotspot, butterfly) instead of uniform draws.
pub fn task_graph_sweep(mut visit: impl FnMut(&CommSet, &str)) {
    let mesh = Mesh::new(8, 8);
    for seed in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pipeline = TaskGraph::pipeline(10, 800.0);
        let stencil = TaskGraph::stencil(4, 5, 400.0);
        let transpose = TaskGraph::transpose(4, 1200.0);
        let hotspot = TaskGraph::hotspot(9, 600.0);
        let butterfly = TaskGraph::butterfly(3, 300.0);
        let maps: Vec<Mapping> = [
            pipeline.n_tasks(),
            stencil.n_tasks(),
            transpose.n_tasks(),
            hotspot.n_tasks(),
            butterfly.n_tasks(),
        ]
        .iter()
        .map(|&n| Mapping::random(&mesh, n, &mut rng))
        .collect();
        let cs = merge_applications(
            &mesh,
            &[
                (&pipeline, &maps[0]),
                (&stencil, &maps[1]),
                (&transpose, &maps[2]),
                (&hotspot, &maps[3]),
                (&butterfly, &maps[4]),
            ],
        );
        visit(&cs, &format!("task-graph seed={seed}"));
    }
}

/// All three deterministic sweeps in their canonical order.
pub fn standard_sweep(mut visit: impl FnMut(&CommSet, &str)) {
    uniform_sweep(&mut visit);
    length_targeted_sweep(&mut visit);
    task_graph_sweep(&mut visit);
}

/// One rewritten engine, dispatched on its scratch's [`EngineConfig`]:
/// the optimized engine on [`EngineConfig::LIVE`], its literal oracle on
/// [`EngineConfig::REFERENCE`]. PR's structured [`PrError`] compares like
/// a routing; XYI, IG and TB cannot fail.
pub type RouteFn = fn(&CommSet, &PowerModel, &mut RouteScratch) -> Result<Routing, PrError>;

/// The banded Path-Remover (§5.5) and its full-sweep oracle.
pub const PR: (&str, RouteFn) = ("PR", |cs, m, s| PathRemover.try_route_with(cs, m, s));

/// The pending-link XY improver (§5.4) and its full-scan oracle.
pub const XYI: (&str, RouteFn) = ("XYI", |cs, m, s| Ok(XyImprover.route_with(cs, m, s)));

/// The indexed Improved greedy (§5.2) and its full-scan oracle.
pub const IG: (&str, RouteFn) = ("IG", |cs, m, s| {
    Ok(ImprovedGreedy::default().route_with(cs, m, s))
});

/// The in-place, ladder-priced Two-bend (§5.3) and its
/// enumerate-and-price oracle.
pub const TB: (&str, RouteFn) = ("TB", |cs, m, s| Ok(TwoBend::default().route_with(cs, m, s)));

/// Routes `cs` through each of `engines` on a [`EngineConfig::LIVE`] and
/// on a [`EngineConfig::REFERENCE`] scratch and compares the outcomes:
/// routings (a `PrError` compares like one) and the bits of both
/// scratches' final load accumulators ([`RouteScratch::loads`]). A
/// routing's power is a function of its loads, so equal routings have
/// equal powers. The oracles rebuild every band and evaluate the power
/// fit on every query, so every interned table and `CostLadder` value the
/// live engines read meets a literal rebuild here.
///
/// # Errors
///
/// The first divergence, naming `label` and the engine.
pub fn engines_agree(
    engines: &[(&str, RouteFn)],
    cs: &CommSet,
    model: &PowerModel,
    label: &str,
) -> Result<(), String> {
    let mut live = RouteScratch::with_engine(EngineConfig::LIVE);
    let mut oracle = RouteScratch::with_engine(EngineConfig::REFERENCE);
    for &(engine, route) in engines {
        let fast = route(cs, model, &mut live);
        if fast != route(cs, model, &mut oracle) {
            return Err(format!("{label}: {engine} diverged from its oracle"));
        }
        if fast.is_err() {
            continue;
        }
        // Each engine's own final load accumulator is the float state its
        // selection read, so pin the two scratches' accumulators bit for
        // bit: a load summed in another order diverges here even when the
        // routings agree.
        let (lf, lr) = (live.loads(), oracle.loads());
        let diverged = |&l: &LinkId| lf.get(l).to_bits() != lr.get(l).to_bits();
        if let Some(l) = cs.mesh().links().find(diverged) {
            return Err(format!(
                "{label}: {engine} load accumulator of {l} diverged"
            ));
        }
    }
    Ok(())
}

/// [`engines_agree`] for the differential suites.
///
/// # Panics
///
/// On the first divergence, with its message.
pub fn assert_engines_agree(
    engines: &[(&str, RouteFn)],
    cs: &CommSet,
    model: &PowerModel,
    label: &str,
) {
    if let Err(msg) = engines_agree(engines, cs, model, label) {
        panic!("{msg}");
    }
}

/// The §6.4 acceptance contract: the whole one-trial campaign seeded
/// `seed` on the paper's mesh and model, run on
/// [`EngineConfig::REFERENCE`] — every engine on its oracle at once —
/// renders the same summary report bytes as on [`EngineConfig::LIVE`].
/// The selection is pinned per campaign worker, so nothing leaks into
/// other tests running alongside.
///
/// # Panics
///
/// If the two reports differ, or the live one is empty.
pub fn assert_campaign_matches_reference(seed: u64) {
    let (mesh, model) = (crate::paper_mesh(), crate::paper_model());
    let run = |engine| Summary::run_with(&mesh, &model, 1, seed, engine).render_report();
    let live = run(EngineConfig::LIVE);
    assert!(!live.is_empty());
    assert_eq!(
        live,
        run(EngineConfig::REFERENCE),
        "campaign summary (seed {seed:#x}) diverged with every engine on its oracle"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamr_mesh::Coord;
    use pamr_routing::{xy_routing, yx_routing, Comm};

    #[test]
    fn sweeps_are_deterministic_and_non_trivial() {
        let mut labels = Vec::new();
        let mut total_comms = 0usize;
        standard_sweep(|cs, label| {
            labels.push(label.to_string());
            total_comms += cs.len();
        });
        let mut again = Vec::new();
        standard_sweep(|_, label| again.push(label.to_string()));
        assert_eq!(labels, again, "sweep labels must be reproducible");
        // 6 meshes × 3 regimes × 4 seeds + 4 lengths × 4 seeds + 6 graphs.
        assert_eq!(labels.len(), 6 * 3 * 4 + 4 * 4 + 6);
        assert!(total_comms > 1000, "sweeps should exercise real instances");
    }

    #[test]
    fn a_divergent_engine_is_an_error_naming_label_and_engine() {
        // XY on the live scratch, YX on the oracle: they take different
        // paths whenever source and sink differ in both coordinates.
        const SPLIT: (&str, RouteFn) = ("SPLIT", |cs, _, s| {
            Ok(if s.engine().is_reference() {
                yx_routing(cs)
            } else {
                xy_routing(cs)
            })
        });
        let mesh = Mesh::new(3, 3);
        let cs = CommSet::new(
            mesh,
            vec![Comm::new(Coord::new(0, 0), Coord::new(2, 2), 100.0)],
        );
        let model = PowerModel::kim_horowitz();
        assert_ne!(xy_routing(&cs), yx_routing(&cs));
        let err = engines_agree(&[PR, SPLIT], &cs, &model, "corner pair").unwrap_err();
        assert!(
            err.contains("corner pair") && err.contains("SPLIT"),
            "unexpected message: {err}"
        );
        assert_eq!(
            engines_agree(&[PR, XYI, IG, TB], &cs, &model, "corner pair"),
            Ok(())
        );
    }
}
