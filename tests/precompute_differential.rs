//! Differential oracle for what the shared precompute carries between
//! instances.
//!
//! The live engines read one interned band per endpoint pair — its
//! diagonal link groups and row intervals — from a [`MeshPrecompute`]
//! shared across trials, plus the per-instance customization (bands and
//! sorted orders) a [`RouteScratch`] keeps for its last instance. The
//! bands are pure functions of `(mesh, src, snk)` and the customization
//! is revalidated against every instance, so what a scratch or campaign
//! has cached may only change *speed*, never results. `tests/pr_differential.rs` and
//! `tests/xyi_differential.rs` meet every cached value with the oracles'
//! literal rebuilds; this suite checks the cache *state*, warm against
//! cold:
//!
//! 1. the three §6-style sweeps of [`testutil`], each instance routed by
//!    every band-consuming heuristic on one scratch reused across the
//!    whole sweep (its interner already holds the bands of earlier
//!    instances on the same mesh) and on a fresh scratch;
//! 2. a shrinking property test whose warm scratch last routed the same
//!    endpoints with the weights reversed, so its customization must be
//!    rebuilt, not reused (replay any failure with
//!    `PAMR_PROPTEST_SEED=<seed>`);
//! 3. a whole campaign fed a caller's precompute, already warmed by a
//!    campaign on another seed, asserting the rendered §6.4 summary report
//!    byte for byte against a campaign that builds its own.
//!
//! [`MeshPrecompute`]: pamr_routing::MeshPrecompute
//! [`RouteScratch`]: pamr_routing::RouteScratch

mod common;

use common::any_instance;
use pamr::prelude::*;
use pamr::routing::{MeshPrecompute, PrError};
use pamr::sim::campaign::Campaign;
use pamr::sim::summary::Summary;
use pamr::sim::testutil;
use proptest::prelude::*;
use std::sync::Arc;

/// What one instance's routing hands the campaign.
type Outcome = (Vec<Result<Routing, PrError>>, Vec<u64>);

/// Routes `cs` with every heuristic that reads the precompute — SG (its
/// cached processing order), IG and PR — plus XYI, which shares their
/// scratch, and returns the routings (PR's structured error included) and
/// the bit patterns of their load maps.
fn route_all(cs: &CommSet, scratch: &mut RouteScratch) -> Outcome {
    let model = PowerModel::kim_horowitz();
    let mut routings: Vec<_> = [
        &SimpleGreedy as &dyn Heuristic,
        &ImprovedGreedy,
        &XyImprover,
    ]
    .into_iter()
    .map(|h| Ok(h.route_with(cs, &model, scratch)))
    .collect();
    routings.push(PathRemover.try_route_with(cs, &model, scratch));
    let load_bits = routings
        .iter()
        .flatten()
        .flat_map(|r| {
            let loads = r.loads(cs);
            cs.mesh()
                .links()
                .map(move |l| loads.get(l).to_bits())
                .collect::<Vec<_>>()
        })
        .collect();
    (routings, load_bits)
}

/// Routes `cs` on `warm` and on a fresh scratch and asserts identical
/// outcomes.
fn assert_cache_is_pure(warm: &mut RouteScratch, cs: &CommSet, label: &str) {
    assert_eq!(
        route_all(cs, warm),
        route_all(cs, &mut RouteScratch::new()),
        "{label}: a warm scratch routed differently from a fresh one"
    );
}

#[test]
fn uniform_workloads_match_across_mesh_sizes() {
    let mut warm = RouteScratch::new();
    testutil::uniform_sweep(|cs, label| assert_cache_is_pure(&mut warm, cs, label));
}

#[test]
fn length_targeted_workloads_match() {
    let mut warm = RouteScratch::new();
    testutil::length_targeted_sweep(|cs, label| assert_cache_is_pure(&mut warm, cs, label));
}

#[test]
fn task_graph_workloads_match() {
    let mut warm = RouteScratch::new();
    testutil::task_graph_sweep(|cs, label| assert_cache_is_pure(&mut warm, cs, label));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_tables_never_change_results(cs in any_instance(8, 24)) {
        // Same endpoints, weights reversed: the warm scratch's interner
        // holds every table `cs` needs, while its customization (SG's
        // weight order among it) describes another instance.
        let weights = cs.comms().iter().rev().map(|c| c.weight);
        let reweighted = CommSet::new(
            *cs.mesh(),
            cs.comms().iter().zip(weights).map(|(c, w)| Comm::new(c.src, c.snk, w)).collect(),
        );
        let mut warm = RouteScratch::new();
        route_all(&reweighted, &mut warm);
        prop_assert_eq!(route_all(&cs, &mut warm), route_all(&cs, &mut RouteScratch::new()));
    }
}

#[test]
fn campaign_summary_is_byte_identical_across_implementations() {
    // A campaign builds its own precompute unless the caller shares one,
    // as `pamr-bench` and the repository benchmark do. Share one already
    // warmed by a campaign on another seed: the bands it serves were
    // interned while routing other instances, and the report must not
    // tell.
    let (mesh, model) = (pamr::sim::paper_mesh(), pamr::sim::paper_model());
    let (trials, seed) = (1, 0xD1FF);
    let own = Summary::run(&mesh, &model, trials, seed).render_report();
    let warm = Arc::new(MeshPrecompute::new(mesh));
    let on_warm = |seed| {
        Campaign {
            pre: Some(&warm),
            ..Campaign::new(&mesh, &model, trials, seed)
        }
        .run_pooled()
    };
    on_warm(seed + 1);
    let shared = Summary::from_pooled(on_warm(seed)).render_report();
    assert!(!own.is_empty());
    assert_eq!(
        own, shared,
        "campaign summary diverged on a precompute warmed by another campaign"
    );
}
