//! All three engine/oracle pairs at once, from the paper's small meshes to
//! 64×64.
//!
//! The CSR-backed hot paths — the banded Path-Remover on the flat band
//! tables, the pending-link XY improver with the O(1) diagonal flip
//! locator, the indexed Improved greedy, and the shared `CrossingIndex`
//! link→users arena behind all three — promise **bit-identical**
//! behaviour to the full-scan oracles not just on the 8×8 paper mesh but
//! on the large meshes the `pamr-bench scaling` lane times. Every
//! comparison goes through [`testutil::assert_engines_agree`], the check
//! `tests/pr_differential.rs` and `tests/xyi_differential.rs` run per
//! engine:
//!
//! 1. the full §6-style 8×8-and-below sweeps through all three engines at
//!    once, under the continuous twin of the paper's model (no cost
//!    ladder: every link cost comes from the fit evaluated per query; the
//!    per-engine suites run the same sweeps under the discrete model);
//! 2. seeded 64×64 instances — length-targeted traffic like the scaling
//!    lane's, plus a uniform draw — where a band-vs-scan asymmetry that
//!    stays hidden at 8×8 (wide bands, long diagonals, thousands of
//!    crossing rows) would surface, and near-corner-to-corner pairs on
//!    70×70, whose 69-row diagonals need two words per PR row set;
//! 3. a whole-campaign run on [`EngineConfig::REFERENCE`], asserting the
//!    rendered §6.4 summary report byte for byte.
//!
//! Replay any failure by its printed label; the sweeps are seeded and
//! deterministic.
//!
//! [`EngineConfig::REFERENCE`]: pamr_routing::EngineConfig::REFERENCE

use pamr::prelude::*;
use pamr::sim::testutil::{self, assert_engines_agree, IG, PR, XYI};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn all_engines_agree_on_standard_sweeps() {
    let model = PowerModel::kim_horowitz_continuous();
    testutil::standard_sweep(|cs, label| assert_engines_agree(&[PR, XYI, IG], cs, &model, label));
}

/// All three engines against their oracles under the paper's discrete
/// model.
fn assert_all_engines_agree(cs: &CommSet, label: &str) {
    assert_engines_agree(&[PR, XYI, IG], cs, &PowerModel::kim_horowitz(), label);
}

#[test]
#[ignore = "large-mesh oracle, slow in debug builds: run by the CI determinism job via --include-ignored"]
fn all_engines_agree_on_64x64_length_targeted() {
    // The scaling lane's traffic shape: pairs at Manhattan distance 8, so
    // bands stay narrow while diagonals grow to length 127.
    let mesh = Mesh::new(64, 64);
    let mut rng = SmallRng::seed_from_u64(0x5CA1E);
    let cs = LengthTargetedWorkload::new(300, 100.0, 800.0, 8).generate(&mesh, &mut rng);
    assert_all_engines_agree(&cs, "64x64 length-targeted n=300");
}

#[test]
#[ignore = "large-mesh oracle, slow in debug builds: run by the CI determinism job via --include-ignored"]
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
#[ignore = "large-mesh oracle, slow in debug builds: run by the CI determinism job via --include-ignored"]
fn all_engines_agree_on_70x70_two_word_bands() {
    // Near-corner-to-corner pairs: the widest diagonal of each band spans
    // 69 rows, so banded PR stores every row set in two 64-bit words and
    // removals land on both sides of the word boundary. The pairs cross,
    // so their removals interact through the shared loads.
    let mesh = Mesh::new(70, 70);
    let cs = CommSet::new(
        mesh,
        vec![
            Comm::new(Coord::new(0, 0), Coord::new(69, 68), 700.0),
            Comm::new(Coord::new(0, 69), Coord::new(68, 0), 500.0),
            Comm::new(Coord::new(69, 1), Coord::new(0, 69), 300.0),
            Comm::new(Coord::new(68, 68), Coord::new(0, 0), 200.0),
        ],
    );
    assert_all_engines_agree(&cs, "70x70 near-corner n=4");
}

#[test]
fn campaign_summary_is_byte_identical_with_every_engine_flipped() {
    testutil::assert_campaign_matches_reference(0x5CA_11D6);
}
