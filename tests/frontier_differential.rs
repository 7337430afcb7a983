//! Differential oracle for the bi-objective power × latency frontier.
//!
//! Two contracts are pinned here, through the public facade (the same
//! surface `pamr frontier` drives):
//!
//! 1. **Dominance** — no returned Pareto point is dominated by *any* point
//!    any candidate achieves at *any* segment of the sweep (shrinking
//!    property test over random instances, discrete and continuous
//!    scaling alike);
//! 2. **Shard/merge byte-identity** — splitting the ε-constraint sweep
//!    over `--shard i/N` processes and merging the partials renders and
//!    serialises byte-for-byte like the single-process run.

mod common;

use common::any_instance;
use pamr::prelude::*;
use pamr::routing::frontier::pareto_filter;
use pamr::sim::{merge_frontier, FrontierPartial, FrontierReport, ShardSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn no_returned_point_is_dominated(
        // Meshes up to 5×5 keep the multi-path candidate (a Frank–Wolfe
        // run per instance) cheap in debug builds.
        cs in any_instance(5, 8),
        // The stub strategy set has no `select`: draw small ints instead.
        multi_path in 0usize..=1,
        discrete in 0usize..=1,
    ) {
        let split = 2 * multi_path;
        let model = if discrete == 1 {
            PowerModel::kim_horowitz()
        } else {
            PowerModel::kim_horowitz_continuous()
        };
        let problem = FrontierProblem { cs: &cs, model: &model, segments: 5, split };
        let pareto = frontier_points(&problem);

        // Every achievable point of the whole sweep, Pareto or not.
        let mut scratch = RouteScratch::new();
        let candidates = problem.candidates(&mut scratch);
        let all: Vec<FrontierPoint> = problem
            .segment_budgets(&candidates)
            .into_iter()
            .flat_map(|seg| problem.solve_segment(&candidates, seg))
            .collect();

        for p in &pareto {
            prop_assert!(
                all.iter().any(|q| q == p),
                "returned point {:?} was never achieved by the sweep", p
            );
            for q in &all {
                prop_assert!(
                    !(q.latency <= p.latency && q.power < p.power),
                    "returned point {:?} is dominated by {:?}", p, q
                );
            }
        }
        // The filter is idempotent and order-canonical.
        prop_assert_eq!(&pareto, &pareto_filter(all));
    }
}

#[test]
fn sharded_sweep_merges_byte_identically() {
    // The `pamr frontier --shard i/N` contract, end to end through the
    // facade: partials computed by separate "processes" (fresh state each)
    // merge into the same rendered report, CSV and JSON as one process.
    let mesh = Mesh::new(6, 6);
    let model = PowerModel::kim_horowitz();
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(7);
    let cs = UniformWorkload::new(14, 100.0, 1200.0).generate(&mesh, &mut rng);
    let (segments, split) = (12, 2);
    let full = FrontierReport::compute(&cs, &model, segments, split);
    assert!(
        full.check().is_ok(),
        "reference frontier fails its own check"
    );
    assert!(!full.pareto.is_empty(), "instance should be routable");
    for count in [2usize, 3] {
        let partials: Vec<FrontierPartial> = (0..count)
            .map(|i| {
                let json =
                    FrontierPartial::run(&cs, &model, segments, split, ShardSpec::new(i, count))
                        .to_json();
                // Round-trip through JSON exactly as the CLI does.
                FrontierPartial::from_json(&json).expect("partial round-trips")
            })
            .collect();
        let merged = merge_frontier(&partials).expect("complete shard set merges");
        let reference = FrontierReport {
            shard_count: count,
            ..full.clone()
        };
        assert_eq!(
            merged.render(),
            reference.render(),
            "{count}-way render diverged"
        );
        assert_eq!(
            merged.to_csv(),
            reference.to_csv(),
            "{count}-way CSV diverged"
        );
        assert_eq!(
            merged.to_json(),
            reference.to_json(),
            "{count}-way JSON diverged"
        );
    }
}
