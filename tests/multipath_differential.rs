//! Differential oracle for the s-MP rounding heuristic — the §7
//! "multi-path" future-work item.
//!
//! Under the theoretical model of §4 (continuous frequency scaling, no
//! leakage — the regime where the Frank–Wolfe duality gap certifies a
//! lower bound on **any** Manhattan routing, single- or multi-path), the
//! rounder promises a sandwich on every shared §6 sweep point:
//!
//! ```text
//! FW_bound  ≤  P(s-MP)  ≤  min over the 1-MP heuristics,   s ∈ {2, 4}
//! ```
//!
//! The left inequality holds because the stripped routing is itself a
//! Manhattan routing; the right one holds by construction (the rounded
//! candidate is played against the full [`Best`] portfolio). This suite
//! pins both on the shared sweeps, and adds shrinking property tests for
//! structural path validity: at most `s` Manhattan-monotone paths per
//! communication, weights summing to the communication's demand, and a
//! bit-reproducible routing.

mod common;

use common::any_instance;
use pamr::prelude::*;
use pamr::sim::testutil;
use proptest::prelude::*;

/// Iteration budget shared by the explicit bound run and the rounder. The
/// duality gap certifies a valid lower bound at **any** budget (more
/// iterations only tighten it), so a modest one keeps the sweep fast in
/// debug builds.
const FW_ITERS: usize = 48;

/// Routes `cs` with the 1-MP portfolio and the s-MP rounder for
/// s ∈ {2, 4} and asserts the power sandwich plus structural validity.
fn assert_sandwich(cs: &CommSet, label: &str) {
    let model = PowerModel::theory(3.0);
    let fw = frank_wolfe(cs, &model, FW_ITERS);
    // Unbounded capacity: every single-path heuristic is feasible, so the
    // minimum ranges over all six policies.
    let min1 = HeuristicKind::ALL
        .iter()
        .map(|k| k.route(cs, &model).power(cs, &model).unwrap().total())
        .fold(f64::INFINITY, f64::min);
    let eps = 1e-9 * min1.max(1.0);
    for s in [2usize, 4] {
        let r = FwMp::new(s).with_iterations(FW_ITERS).route(cs, &model);
        assert!(
            r.is_structurally_valid(cs, s),
            "{label} s={s}: rounded routing is structurally invalid"
        );
        let p = r.power(cs, &model).unwrap().total();
        assert!(
            fw.lower_bound <= p + eps,
            "{label} s={s}: P(s-MP) = {p} beats the certified bound {}",
            fw.lower_bound
        );
        assert!(
            p <= min1 + eps,
            "{label} s={s}: P(s-MP) = {p} lost to the 1-MP portfolio at {min1}"
        );
    }
}

#[test]
fn sandwich_holds_on_uniform_workloads() {
    testutil::uniform_sweep(assert_sandwich);
}

#[test]
fn sandwich_holds_on_length_targeted_workloads() {
    testutil::length_targeted_sweep(assert_sandwich);
}

#[test]
fn sandwich_holds_on_task_graph_workloads() {
    testutil::task_graph_sweep(assert_sandwich);
}

/// Structural contract shared by both s-MP constructions: ≤ `s` strictly
/// positive Manhattan-monotone paths per communication, weights summing to
/// the communication's demand.
fn check_paths(cs: &CommSet, r: &Routing, s: usize) -> Result<(), String> {
    prop_assert!(r.is_structurally_valid(cs, s));
    prop_assert!(r.max_paths_per_comm() <= s);
    for (i, c) in cs.comms().iter().enumerate() {
        let flows = r.flows(i);
        let sum: f64 = flows.iter().map(|(_, w)| w).sum();
        prop_assert!(
            (sum - c.weight).abs() <= 1e-9 * c.weight.max(1.0),
            "comm {}: flow sum {} != weight {}",
            i,
            sum,
            c.weight
        );
        for (p, w) in flows {
            prop_assert!(p.is_manhattan(cs.mesh()));
            prop_assert!(*w > 0.0);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn split_mp_paths_are_valid_on_any_instance(cs in any_instance(6, 12), s in 1usize..=4) {
        let model = PowerModel::theory(3.0);
        let r = SplitMp::new(PathRemover, s).route(&cs, &model);
        check_paths(&cs, &r, s)?;
        // Routing again must reproduce the routing bit for bit.
        prop_assert_eq!(&r, &SplitMp::new(PathRemover, s).route(&cs, &model));
    }

    #[test]
    fn fw_mp_paths_are_valid_on_any_instance(cs in any_instance(6, 12), s in 1usize..=4) {
        let model = PowerModel::theory(3.0);
        let fw_mp = || FwMp::new(s).with_iterations(FW_ITERS).route(&cs, &model);
        let r = fw_mp();
        check_paths(&cs, &r, s)?;
        prop_assert_eq!(&r, &fw_mp());
    }
}
