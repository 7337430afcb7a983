//! Cross-process sharding contract: splitting the pooled §6 campaign into
//! N shards and recombining the partials must reproduce the single-process
//! run bit-for-bit — the property that makes multi-host fan-out safe — and
//! the partial-result JSON must round-trip exactly.

use pamr_sim::shard::{merge_partials, ShardPartial};
use pamr_sim::summary::Summary;
use pamr_sim::ShardSpec;

#[test]
fn sharded_campaign_is_byte_identical_to_single_process() {
    let mesh = pamr_sim::paper_mesh();
    let model = pamr_sim::paper_model();
    let (trials, seed) = (1, 42);
    let single = Summary::run(&mesh, &model, trials, seed);
    for count in [2, 3] {
        let partials: Vec<ShardPartial> = (0..count)
            .map(|i| ShardPartial::run(&mesh, &model, trials, seed, ShardSpec::new(i, count)))
            .collect();
        // Shards partition the sweep-point grid.
        let total: usize = partials.iter().map(|p| p.points.len()).sum();
        assert_eq!(
            total,
            single.pooled.trials / trials,
            "{count} shards do not partition the grid"
        );
        let merged = merge_partials(&partials).expect("complete shard set merges");
        assert_eq!(
            merged.pooled.fingerprint(),
            single.pooled.fingerprint(),
            "{count}-shard merge diverged from the single-process pooled stats"
        );
        // The rendered §6.4 report is the user-facing byte-identity.
        assert_eq!(
            merged.summary().render_report(),
            single.render_report(),
            "{count}-shard report diverged"
        );
    }
}

#[test]
fn partial_json_round_trips_exactly() {
    let mesh = pamr_sim::paper_mesh();
    let model = pamr_sim::paper_model();
    let partial = ShardPartial::run(&mesh, &model, 1, 7, ShardSpec::new(1, 3));
    let json = partial.to_json();
    let back = ShardPartial::from_json(&json).expect("partial JSON parses");
    assert_eq!(back.schema, partial.schema);
    assert_eq!(back.shard_index, 1);
    assert_eq!(back.shard_count, 3);
    assert_eq!(back.trials, partial.trials);
    assert_eq!(back.seed, partial.seed);
    assert_eq!(back.points.len(), partial.points.len());
    for (a, b) in partial.points.iter().zip(&back.points) {
        assert_eq!(a.exp_id, b.exp_id);
        assert_eq!(
            (a.figure, a.experiment, a.point_index),
            (b.figure, b.experiment, b.point_index)
        );
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "x of {}", a.exp_id);
        assert_eq!(
            a.stats.fingerprint(),
            b.stats.fingerprint(),
            "stats of {} point {} did not round-trip bit-exactly",
            a.exp_id,
            a.point_index
        );
        // The timing sum round-trips too (it is a plain u64).
        for (x, y) in a.stats.per_heur.iter().zip(&b.stats.per_heur) {
            assert_eq!(x.sum_micros, y.sum_micros);
        }
    }
    // And the re-serialised text is byte-identical.
    assert_eq!(json, back.to_json());
}

#[test]
fn merging_partials_from_different_campaigns_fails() {
    let mesh = pamr_sim::paper_mesh();
    let model = pamr_sim::paper_model();
    let a = ShardPartial::run(&mesh, &model, 1, 7, ShardSpec::new(0, 2));
    let b = ShardPartial::run(&mesh, &model, 1, 8, ShardSpec::new(1, 2));
    assert!(
        merge_partials(&[a, b]).is_err(),
        "partials with different seeds must not merge"
    );
}
