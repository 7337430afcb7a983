//! Large-mesh differential oracle for the flat-CSR engine family.
//!
//! The CSR-backed hot paths — the banded Path-Remover on the flat band
//! tables, the queue-driven XY improver with the O(1) diagonal flip
//! locator, the indexed Improved greedy, and the shared
//! `CrossingIndex` link→users arena behind all three — promise
//! **bit-identical** behaviour to the full-scan reference engines not
//! just on the 8×8 paper mesh but on the large meshes the `pamr-bench
//! scaling` lane times. This suite pins that contract at both ends of
//! the grid:
//!
//! 1. the full §6-style 8×8-and-below sweeps (the same families
//!    `tests/pr_differential.rs` and `tests/xyi_differential.rs` replay),
//!    run through **all three** engines at once;
//! 2. seeded 64×64 instances — length-targeted traffic like the scaling
//!    lane's, plus a uniform draw — where a band-vs-scan asymmetry that
//!    stays hidden at 8×8 (wide bands, long diagonals, thousands of
//!    crossing rows) would surface;
//! 3. a whole-campaign run with *every* engine flipped to its reference at
//!    once ([`EngineConfig::REFERENCE`]), asserting the rendered §6.4
//!    summary report byte for byte.
//!
//! Replay any failure by its printed label; the sweeps are seeded and
//! deterministic.
//!
//! [`EngineConfig::REFERENCE`]: pamr_routing::EngineConfig::REFERENCE

use pamr::prelude::*;
use pamr::routing::{
    EngineConfig, ReferenceImprovedGreedy, ReferencePathRemover, ReferenceXyImprover,
};
use pamr::sim::testutil;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Routes `cs` through all three CSR-backed engines and their references
/// (explicitly, independent of the scratch's engine config) and asserts
/// identical outcomes — routings, bit-identical load maps, and powers.
/// PR may structurally fail (`PrError`); the error must then match too.
fn assert_all_engines_agree(cs: &CommSet, label: &str) {
    let model = PowerModel::kim_horowitz();
    let mut scratch = RouteScratch::new();

    let banded = PathRemover.try_route_banded_with(cs, &model, &mut scratch);
    let reference = ReferencePathRemover.try_route_with(cs, &model, &mut scratch);
    assert_eq!(
        banded, reference,
        "{label}: banded PR diverged from the full-sweep oracle"
    );

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
        // Load maps drive every decision downstream (queue order,
        // feasibility, §6.4 statistics), so pin them bit for bit, not just
        // structurally.
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
        let pr_ = reference.power(cs, &model).map(|p| p.total().to_bits());
        assert_eq!(pf.ok(), pr_.ok(), "{label}: {engine} power diverged");
    }
}

#[test]
fn all_engines_agree_on_standard_sweeps() {
    testutil::standard_sweep(assert_all_engines_agree);
}

/// A 64×64 instance shaped like the scaling lane's: source/sink pairs at
/// Manhattan distance 8 (bands stay narrow, so memory is linear in the
/// communication count while diagonals grow to length 127).
fn large_mesh_instance(n: usize, seed: u64) -> CommSet {
    let mesh = Mesh::new(64, 64);
    let mut rng = SmallRng::seed_from_u64(seed);
    LengthTargetedWorkload::new(n, 100.0, 800.0, 8).generate(&mesh, &mut rng)
}

#[test]
#[ignore = "large-mesh oracle (~1 min in release): run by the CI determinism job via --include-ignored"]
fn all_engines_agree_on_64x64_length_targeted() {
    let cs = large_mesh_instance(300, 0x5CA1E);
    assert_all_engines_agree(&cs, "64x64 length-targeted n=300");
}

#[test]
#[ignore = "large-mesh oracle (~30 s in release): run by the CI determinism job via --include-ignored"]
fn all_engines_agree_on_64x64_uniform() {
    // Uniform endpoints on a large mesh produce the *wide* bands the
    // length-targeted draws avoid — the stress case for the CSR band
    // tables' row arithmetic. Keep the count small: band area is
    // quadratic in the draw length here, and the reference engines the
    // CSR paths are pinned against rescan every band link per sweep.
    let mesh = Mesh::new(64, 64);
    let mut rng = SmallRng::seed_from_u64(0xB16_CA7);
    let cs = UniformWorkload::new(32, 100.0, 1500.0).generate(&mesh, &mut rng);
    assert_all_engines_agree(&cs, "64x64 uniform n=32");
}

#[test]
fn campaign_summary_is_byte_identical_with_every_engine_flipped() {
    // The §6.4 acceptance contract, strongest form: run the whole campaign
    // on `EngineConfig::REFERENCE` — every engine on its full-scan oracle
    // at once — and demand the same rendered bytes as the all-`Live` run.
    // The engine selection is pinned per campaign worker, so nothing leaks
    // into the other tests in this binary.
    let mesh = pamr::sim::paper_mesh();
    let model = pamr::sim::paper_model();
    let (trials, seed) = (1, 0x5CA_11D6);
    let fast =
        pamr::sim::summary::Summary::run_with(&mesh, &model, trials, seed, EngineConfig::LIVE)
            .render_report();
    let reference =
        pamr::sim::summary::Summary::run_with(&mesh, &model, trials, seed, EngineConfig::REFERENCE)
            .render_report();
    assert!(!fast.is_empty());
    assert_eq!(
        fast, reference,
        "campaign summary diverged with every engine on its reference"
    );
}
