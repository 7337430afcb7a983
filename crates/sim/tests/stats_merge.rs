//! Property tests for [`PointStats::merge`] — the reduction operator the
//! campaign's statistics fold relies on.
//!
//! [`PointStats::of_trials`] folds a sweep point's trial outcomes in runs
//! with [`PointStats::add`]-style accumulation and merges the run
//! accumulators in order. That is sound because `merge` is:
//!
//! * **commutative** — exact, including the floating-point sums (IEEE
//!   addition commutes bit-for-bit);
//! * **associative** — exact on every counter, and within floating-point
//!   tolerance on the `f64` sums (IEEE addition does not associate
//!   bit-for-bit, which is precisely why the fold also fixes the run
//!   boundaries and the combine order: determinism comes from that fixed
//!   order, which depends on the trial count alone, statistical
//!   correctness from the properties checked here);
//! * **unital** — the default accumulator is an identity.
//!
//! The chunking property puts it together: accumulating any sequence of
//! trials under *arbitrary* chunk boundaries and merging in order agrees
//! with the sequential left fold.

use pamr_sim::{HeurAgg, PointStats};
use proptest::prelude::*;

/// Number of per-policy slots ([`pamr_routing::HeuristicKind::ALL`]).
const POLICIES: usize = 6;

/// Strategy: one synthetic trial's contribution to the accumulator.
///
/// Values are drawn directly (not by routing real instances) so the tests
/// explore far more of the state space than real campaigns would.
fn trial() -> impl Strategy<Value = PointStats> {
    prop::collection::vec(
        (
            0u32..2,
            0.0f64..1.0,
            0.0f64..0.01,
            0u64..50_000,
            0.0f64..1.0,
        ),
        POLICIES,
    )
    .prop_map(|per| {
        let best = per.iter().any(|&(s, ..)| s == 1);
        // BEST's per-trial pooled quantities: the winning policy's inverse
        // power dominates every member's, its static fraction is one of
        // theirs — any representative values exercise the merge the same.
        let sum_best_inv = if best {
            per.iter()
                .map(|&(_, _, inv, ..)| inv)
                .fold(0.0f64, f64::max)
        } else {
            0.0
        };
        let sum_best_static_frac = if best {
            per.iter().map(|&(.., frac)| frac).fold(0.0f64, f64::max)
        } else {
            0.0
        };
        PointStats {
            trials: 1,
            best_successes: best as usize,
            sum_best_inv,
            sum_best_static_frac,
            per_heur: per
                .into_iter()
                .map(|(succ, norm_inv, inv, micros, frac)| HeurAgg {
                    successes: succ as usize,
                    sum_norm_inv: norm_inv,
                    sum_inv: inv,
                    sum_micros: micros,
                    sum_static_frac: frac,
                })
                .collect(),
        }
    })
}

/// Exact equality on the counters, relative tolerance on the f64 sums.
fn assert_stats_eq(a: &PointStats, b: &PointStats, what: &str) -> Result<(), String> {
    prop_assert_eq!(a.trials, b.trials, "{}: trials", what);
    prop_assert_eq!(a.best_successes, b.best_successes, "{}: best", what);
    for (u, v, field) in [
        (a.sum_best_inv, b.sum_best_inv, "sum_best_inv"),
        (
            a.sum_best_static_frac,
            b.sum_best_static_frac,
            "sum_best_static_frac",
        ),
    ] {
        let tol = 1e-12 * (1.0 + u.abs().max(v.abs()));
        prop_assert!((u - v).abs() <= tol, "{what}: {field} {u} vs {v}");
    }
    for (i, (x, y)) in a.per_heur.iter().zip(&b.per_heur).enumerate() {
        prop_assert_eq!(x.successes, y.successes, "{}: successes[{}]", what, i);
        prop_assert_eq!(x.sum_micros, y.sum_micros, "{}: micros[{}]", what, i);
        for (u, v, field) in [
            (x.sum_norm_inv, y.sum_norm_inv, "sum_norm_inv"),
            (x.sum_inv, y.sum_inv, "sum_inv"),
            (x.sum_static_frac, y.sum_static_frac, "sum_static_frac"),
        ] {
            let tol = 1e-12 * (1.0 + u.abs().max(v.abs()));
            prop_assert!((u - v).abs() <= tol, "{what}: {field}[{i}] {u} vs {v}");
        }
    }
    Ok(())
}

/// Bitwise equality of every field (for properties that must hold
/// exactly): the shared fingerprint plus the `sum_micros` it leaves out.
fn fingerprint(s: &PointStats) -> (Vec<u64>, Vec<u64>) {
    let micros = s.per_heur.iter().map(|agg| agg.sum_micros).collect();
    (s.fingerprint(), micros)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn merge_commutes_exactly(a in trial(), b in trial()) {
        let ab = a.clone().merge(b.clone());
        let ba = b.merge(a);
        prop_assert_eq!(fingerprint(&ab), fingerprint(&ba));
    }

    #[test]
    fn merge_associates(a in trial(), b in trial(), c in trial()) {
        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.merge(b.merge(c));
        assert_stats_eq(&left, &right, "associativity")?;
    }

    #[test]
    fn default_is_identity(a in trial()) {
        let left = PointStats::default().merge(a.clone());
        let right = a.clone().merge(PointStats::default());
        prop_assert_eq!(fingerprint(&left), fingerprint(&a));
        prop_assert_eq!(fingerprint(&right), fingerprint(&a));
    }

    #[test]
    fn arbitrary_chunkings_agree_with_sequential_fold(
        trials in prop::collection::vec(trial(), 1..40),
        cuts in prop::collection::vec(0usize..40, 0..6),
    ) {
        // Sequential reference: one left fold over every trial.
        let sequential = trials
            .iter()
            .fold(PointStats::default(), |acc, t| acc.merge(t.clone()));
        // Chunked: split at arbitrary (sorted, deduplicated) boundaries,
        // fold each chunk independently, merge chunk accumulators in order
        // — the shape of the statistics fold.
        let mut bounds: Vec<usize> = cuts
            .into_iter()
            .map(|c| c % (trials.len() + 1))
            .collect();
        bounds.push(0);
        bounds.push(trials.len());
        bounds.sort_unstable();
        bounds.dedup();
        let chunked = bounds
            .windows(2)
            .map(|w| {
                trials[w[0]..w[1]]
                    .iter()
                    .fold(PointStats::default(), |acc, t| acc.merge(t.clone()))
            })
            .fold(PointStats::default(), PointStats::merge);
        assert_stats_eq(&chunked, &sequential, "chunking")?;
    }

    #[test]
    fn same_chunking_is_bit_reproducible(
        trials in prop::collection::vec(trial(), 1..40),
        chunk in 1usize..9,
    ) {
        // The determinism contract: identical chunk boundaries yield a
        // bit-identical result no matter how often the fold is repeated.
        let run = || {
            trials
                .chunks(chunk)
                .map(|c| c.iter().fold(PointStats::default(), |acc, t| acc.merge(t.clone())))
                .fold(PointStats::default(), PointStats::merge)
        };
        prop_assert_eq!(fingerprint(&run()), fingerprint(&run()));
    }
}
