//! Differential oracle for the pending-link XY improver, the indexed
//! Improved greedy and the in-place Two-bend.
//!
//! The three rewritten engines (`pamr_routing::XyImprover` on a
//! pending-link `MaxTree`, `pamr_routing::ImprovedGreedy` on the
//! per-group min-load index, `pamr_routing::TwoBend` pricing its
//! candidates in place from the cost ladder) promise **bit-identical**
//! behaviour to the literal references they dispatch to on
//! [`EngineConfig::REFERENCE`]: same routings, same load maps, and —
//! through the campaign — byte-identical §6.4 summary reports. Every
//! comparison goes through [`testutil::assert_engines_agree`], the same
//! check `tests/pr_differential.rs` pins the banded Path-Remover with:
//!
//! 1. the three §6-style sweeps of [`testutil`] (uniform and
//!    length-targeted draws, synthetic task graphs) under the paper's
//!    discrete model;
//! 2. shrinking property tests over random instances, under the discrete
//!    model and its continuous twin, which has no cost ladder (replay any
//!    failure with `PAMR_PROPTEST_SEED=<seed>`);
//! 3. a whole-campaign run on [`EngineConfig::REFERENCE`], asserting the
//!    rendered summary report byte for byte.
//!
//! [`EngineConfig::REFERENCE`]: pamr_routing::EngineConfig::REFERENCE

mod common;

use common::any_instance;
use pamr::prelude::*;
use pamr::sim::testutil::{self, assert_engines_agree, IG, TB, XYI};
use proptest::prelude::*;

/// XYI, IG and TB against their oracles under the paper's discrete model.
fn assert_xyi_ig_tb_agree(cs: &CommSet, label: &str) {
    assert_engines_agree(&[XYI, IG, TB], cs, &PowerModel::kim_horowitz(), label);
}

#[test]
fn uniform_workloads_match_across_mesh_sizes() {
    testutil::uniform_sweep(assert_xyi_ig_tb_agree);
}

#[test]
fn length_targeted_workloads_match() {
    testutil::length_targeted_sweep(assert_xyi_ig_tb_agree);
}

#[test]
fn task_graph_workloads_match() {
    testutil::task_graph_sweep(assert_xyi_ig_tb_agree);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn queued_xyi_equals_reference_on_any_instance(cs in any_instance(8, 24)) {
        assert_engines_agree(&[XYI], &cs, &PowerModel::kim_horowitz(), "discrete");
    }

    #[test]
    fn indexed_ig_equals_reference_on_any_instance(cs in any_instance(8, 24)) {
        assert_engines_agree(&[IG], &cs, &PowerModel::kim_horowitz(), "discrete");
    }

    #[test]
    fn queued_xyi_loads_are_bit_identical(cs in any_instance(8, 24)) {
        // Load maps drive the link-examination order. Under the
        // continuous model there is no ladder, so every link cost behind
        // that order comes from the power fit evaluated per query.
        assert_engines_agree(&[XYI], &cs, &PowerModel::kim_horowitz_continuous(), "continuous");
    }

    #[test]
    fn indexed_ig_loads_are_bit_identical(cs in any_instance(8, 24)) {
        // IG's candidate costs likewise come from the fit per query here.
        assert_engines_agree(&[IG], &cs, &PowerModel::kim_horowitz_continuous(), "continuous");
    }

    #[test]
    fn tb_equals_reference_on_any_instance(cs in any_instance(8, 24)) {
        assert_engines_agree(&[TB], &cs, &PowerModel::kim_horowitz(), "discrete");
    }

    #[test]
    fn tb_loads_are_bit_identical(cs in any_instance(8, 24)) {
        // No ladder under the continuous model: TB prices every link with
        // the power fit, on the live engine's in-place walk.
        assert_engines_agree(&[TB], &cs, &PowerModel::kim_horowitz_continuous(), "continuous");
    }
}

#[test]
fn campaign_summary_is_byte_identical_across_engines() {
    testutil::assert_campaign_matches_reference(0x1D1FF);
}
