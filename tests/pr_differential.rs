//! Differential oracle for the banded Path-Remover.
//!
//! The banded engine (`pamr_routing::PathRemover`) promises **bit-identical**
//! behaviour to the full-sweep reference (`pr::reference`): same routings,
//! same structured `PrError`s, same load maps, and — through the campaign —
//! byte-identical §6.4 summary reports. This suite enforces the contract
//! three ways:
//!
//! 1. a deterministic sweep over §6-style workloads (uniform and
//!    length-targeted draws, synthetic task graphs) across mesh sizes and
//!    communication counts;
//! 2. shrinking property tests over randomized instances (replay any
//!    failure with `PAMR_PROPTEST_SEED=<seed>`);
//! 3. a whole-campaign run with the engine switched behind
//!    [`HeuristicKind::Pr`] via an explicit [`EngineConfig`], asserting the
//!    rendered summary report byte for byte.
//!
//! [`HeuristicKind::Pr`]: pamr_routing::HeuristicKind::Pr
//! [`EngineConfig`]: pamr_routing::EngineConfig

use pamr::prelude::*;
use pamr::routing::{EngineConfig, EngineSel, ReferencePathRemover};
use pamr::sim::testutil;
use proptest::prelude::*;

/// Routes `cs` with both engines (explicitly, independent of the
/// scratch's engine config) and asserts identical outcomes — routings and
/// `PrError`s alike.
fn assert_engines_agree(cs: &CommSet, label: &str) {
    let model = PowerModel::kim_horowitz();
    let mut scratch = RouteScratch::new();
    let banded = PathRemover.try_route_banded_with(cs, &model, &mut scratch);
    let reference = ReferencePathRemover.try_route_with(cs, &model, &mut scratch);
    assert_eq!(
        banded, reference,
        "{label}: banded PR diverged from the full-sweep oracle"
    );
    // Feasibility and power are derived from the routing, but checking them
    // here pins the exact quantities the campaign statistics consume.
    if let (Ok(b), Ok(r)) = (&banded, &reference) {
        let pb = b.power(cs, &model).map(|p| p.total().to_bits());
        let pr_ = r.power(cs, &model).map(|p| p.total().to_bits());
        assert_eq!(pb.ok(), pr_.ok(), "{label}: power diverged");
    }
}

#[test]
fn uniform_workloads_match_across_mesh_sizes() {
    testutil::uniform_sweep(assert_engines_agree);
}

#[test]
fn length_targeted_workloads_match() {
    testutil::length_targeted_sweep(assert_engines_agree);
}

#[test]
fn task_graph_workloads_match() {
    testutil::task_graph_sweep(assert_engines_agree);
}

/// Random instances mixing all quadrants, straight lines, duplicates and
/// core-local (zero-length) communications on meshes up to 8×8.
fn any_instance() -> impl Strategy<Value = CommSet> {
    (1usize..=8, 1usize..=8)
        .prop_flat_map(|(p, q)| {
            let comms = prop::collection::vec(((0..p, 0..q), (0..p, 0..q), 1u32..=3500), 1..=24);
            (Just((p, q)), comms)
        })
        .prop_map(|((p, q), comms)| {
            CommSet::new(
                Mesh::new(p, q),
                comms
                    .into_iter()
                    .map(|((a, b), (c, d), w)| {
                        Comm::new(Coord::new(a, b), Coord::new(c, d), w as f64)
                    })
                    .collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn banded_pr_equals_reference_on_any_instance(cs in any_instance()) {
        let model = PowerModel::kim_horowitz();
        let mut scratch = RouteScratch::new();
        let banded = PathRemover.try_route_banded_with(&cs, &model, &mut scratch);
        let reference = ReferencePathRemover.try_route_with(&cs, &model, &mut scratch);
        prop_assert_eq!(banded, reference);
    }

    #[test]
    fn banded_pr_loads_are_bit_identical(cs in any_instance()) {
        // Load maps drive the removal order, so bit-identity here is the
        // mechanism behind routing identity — check it directly.
        let model = PowerModel::kim_horowitz();
        let mut scratch = RouteScratch::new();
        let banded = PathRemover.try_route_banded_with(&cs, &model, &mut scratch);
        let reference = ReferencePathRemover.try_route_with(&cs, &model, &mut scratch);
        if let (Ok(b), Ok(r)) = (banded, reference) {
            let lb = b.loads(&cs);
            let lr = r.loads(&cs);
            for l in cs.mesh().links() {
                prop_assert_eq!(
                    lb.get(l).to_bits(),
                    lr.get(l).to_bits(),
                    "load of {} diverged", l
                );
            }
        }
    }
}

#[test]
fn campaign_summary_is_byte_identical_across_engines() {
    // The §6.4 acceptance contract: a seeded campaign rendered through the
    // banded engine and through the reference oracle must print the same
    // bytes. The engine is swapped behind `HeuristicKind::Pr` with an
    // explicit `EngineConfig` pinned onto every campaign worker, so nothing
    // leaks into the other tests in this binary.
    let mesh = pamr::sim::paper_mesh();
    let model = pamr::sim::paper_model();
    let (trials, seed) = (1, 0xD1FF);
    let banded =
        pamr::sim::summary::Summary::run_with(&mesh, &model, trials, seed, EngineConfig::LIVE)
            .render_report();
    let reference = pamr::sim::summary::Summary::run_with(
        &mesh,
        &model,
        trials,
        seed,
        EngineConfig::LIVE.with_pr(EngineSel::Reference),
    )
    .render_report();
    assert!(!banded.is_empty());
    assert_eq!(
        banded, reference,
        "campaign summary diverged between PR engines"
    );
}
