//! Differential oracle for the queue-driven XY improver and the indexed
//! Improved greedy.
//!
//! Both rewritten improvement loops (`pamr_routing::XyImprover` on the
//! shared `loadq` max-load index, `pamr_routing::ImprovedGreedy` on the
//! per-group min-load index) promise **bit-identical** behaviour to their
//! literal full-scan references (`xyi::reference`, `ig::reference`): same
//! routings, same load maps, and — through the campaign — byte-identical
//! §6.4 summary reports. This suite enforces the contract the same three
//! ways `tests/pr_differential.rs` pins the banded Path-Remover:
//!
//! 1. a deterministic sweep over §6-style workloads (uniform and
//!    length-targeted draws, synthetic task graphs) across mesh sizes and
//!    communication counts;
//! 2. shrinking property tests over randomized instances (replay any
//!    failure with `PAMR_PROPTEST_SEED=<seed>`);
//! 3. a whole-campaign run with both engines switched behind
//!    [`HeuristicKind::Xyi`] / [`HeuristicKind::Ig`] via an explicit
//!    [`EngineConfig`], asserting the rendered summary report byte for
//!    byte.
//!
//! [`HeuristicKind::Xyi`]: pamr_routing::HeuristicKind::Xyi
//! [`HeuristicKind::Ig`]: pamr_routing::HeuristicKind::Ig
//! [`EngineConfig`]: pamr_routing::EngineConfig

use pamr::prelude::*;
use pamr::routing::{EngineConfig, EngineSel, ReferenceImprovedGreedy, ReferenceXyImprover};
use pamr::sim::testutil;
use proptest::prelude::*;

/// Routes `cs` with the rewritten engine and its reference (explicitly,
/// independent of the scratch's engine config) and asserts identical
/// outcomes — routings, bit-identical load maps and derived powers.
fn assert_engines_agree(cs: &CommSet, label: &str) {
    let model = PowerModel::kim_horowitz();
    let mut scratch = RouteScratch::new();
    let pairs: [(Routing, Routing, &str); 2] = [
        (
            XyImprover::default().route_queued_with(cs, &model, &mut scratch),
            ReferenceXyImprover::default().route_with(cs, &model, &mut scratch),
            "XYI",
        ),
        (
            ImprovedGreedy::default().route_indexed_with(cs, &model, &mut scratch),
            ReferenceImprovedGreedy::default().route_with(cs, &model, &mut scratch),
            "IG",
        ),
    ];
    for (fast, reference, engine) in &pairs {
        assert_eq!(
            fast, reference,
            "{label}: {engine} diverged from its full-scan oracle"
        );
        // Load maps drive every decision downstream (feasibility, §6.4
        // statistics), so pin them bit for bit, not just structurally.
        let lf = fast.loads(cs);
        let lr = reference.loads(cs);
        for l in cs.mesh().links() {
            assert_eq!(
                lf.get(l).to_bits(),
                lr.get(l).to_bits(),
                "{label}: {engine} load of {l} diverged"
            );
        }
        let pf = fast.power(cs, &model).map(|p| p.total().to_bits());
        let pr = reference.power(cs, &model).map(|p| p.total().to_bits());
        assert_eq!(pf.ok(), pr.ok(), "{label}: {engine} power diverged");
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn queued_xyi_equals_reference_on_any_instance(cs in any_instance()) {
        let model = PowerModel::kim_horowitz();
        let mut scratch = RouteScratch::new();
        let queued = XyImprover::default().route_queued_with(&cs, &model, &mut scratch);
        let reference = ReferenceXyImprover::default().route_with(&cs, &model, &mut scratch);
        prop_assert_eq!(queued, reference);
    }

    #[test]
    fn indexed_ig_equals_reference_on_any_instance(cs in any_instance()) {
        let model = PowerModel::kim_horowitz();
        let mut scratch = RouteScratch::new();
        let indexed = ImprovedGreedy::default().route_indexed_with(&cs, &model, &mut scratch);
        let reference = ReferenceImprovedGreedy::default().route_with(&cs, &model, &mut scratch);
        prop_assert_eq!(indexed, reference);
    }

    #[test]
    fn queued_xyi_loads_are_bit_identical(cs in any_instance()) {
        // Load maps drive the link-examination order, so bit-identity here
        // is the mechanism behind routing identity — check it directly.
        let model = PowerModel::kim_horowitz();
        let mut scratch = RouteScratch::new();
        let queued = XyImprover::default().route_queued_with(&cs, &model, &mut scratch);
        let reference = ReferenceXyImprover::default().route_with(&cs, &model, &mut scratch);
        let lq = queued.loads(&cs);
        let lr = reference.loads(&cs);
        for l in cs.mesh().links() {
            prop_assert_eq!(
                lq.get(l).to_bits(),
                lr.get(l).to_bits(),
                "load of {} diverged", l
            );
        }
    }
}

#[test]
fn campaign_summary_is_byte_identical_across_engines() {
    // The §6.4 acceptance contract: a seeded campaign rendered through the
    // rewritten engines and through the reference oracles must print the
    // same bytes. Both engines are swapped at once behind
    // `HeuristicKind::Xyi` / `HeuristicKind::Ig` with an explicit
    // `EngineConfig` pinned onto every campaign worker, so nothing leaks
    // into the other tests in this binary.
    let mesh = pamr::sim::paper_mesh();
    let model = pamr::sim::paper_model();
    let (trials, seed) = (1, 0x1D1FF);
    let fast =
        pamr::sim::summary::Summary::run_with(&mesh, &model, trials, seed, EngineConfig::LIVE)
            .render_report();
    let reference = pamr::sim::summary::Summary::run_with(
        &mesh,
        &model,
        trials,
        seed,
        EngineConfig::LIVE
            .with_xyi(EngineSel::Reference)
            .with_ig(EngineSel::Reference),
    )
    .render_report();
    assert!(!fast.is_empty());
    assert_eq!(
        fast, reference,
        "campaign summary diverged between XYI/IG engines"
    );
}
