//! Differential oracle for the banded Path-Remover.
//!
//! The banded engine (`pamr_routing::PathRemover` on
//! [`EngineConfig::LIVE`]) promises **bit-identical** behaviour to the
//! full-sweep reference it dispatches to on [`EngineConfig::REFERENCE`]:
//! same routings, same structured `PrError`s, same load maps, and —
//! through the campaign — byte-identical §6.4 summary reports. Every
//! comparison goes through [`testutil::assert_engines_agree`], the one
//! engine/oracle check shared with `tests/xyi_differential.rs` and
//! `tests/scaling_differential.rs`:
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
//! [`EngineConfig::LIVE`]: pamr_routing::EngineConfig::LIVE
//! [`EngineConfig::REFERENCE`]: pamr_routing::EngineConfig::REFERENCE

mod common;

use common::any_instance;
use pamr::prelude::*;
use pamr::sim::testutil::{self, assert_engines_agree, PR};
use proptest::prelude::*;

/// PR against its oracle under the paper's discrete model.
fn assert_pr_agrees(cs: &CommSet, label: &str) {
    assert_engines_agree(&[PR], cs, &PowerModel::kim_horowitz(), label);
}

#[test]
fn uniform_workloads_match_across_mesh_sizes() {
    testutil::uniform_sweep(assert_pr_agrees);
}

#[test]
fn length_targeted_workloads_match() {
    testutil::length_targeted_sweep(assert_pr_agrees);
}

#[test]
fn task_graph_workloads_match() {
    testutil::task_graph_sweep(assert_pr_agrees);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn banded_pr_equals_reference_on_any_instance(cs in any_instance(8, 24)) {
        assert_pr_agrees(&cs, "discrete");
    }

    #[test]
    fn banded_pr_loads_are_bit_identical(cs in any_instance(8, 24)) {
        // Load maps drive the removal order. Under the continuous model
        // there is no ladder, so every link cost behind that order comes
        // from the power fit evaluated per query.
        assert_engines_agree(&[PR], &cs, &PowerModel::kim_horowitz_continuous(), "continuous");
    }
}

#[test]
fn campaign_summary_is_byte_identical_across_engines() {
    testutil::assert_campaign_matches_reference(0xD1FF);
}
