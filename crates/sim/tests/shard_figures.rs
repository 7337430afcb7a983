//! The figure identity: for any trials, seed and shard count,
//! `pamr merge --figures` prints exactly the concatenated stdout of
//! `fig7`, `fig8` and `fig9` — the per-figure counterpart of the pooled
//! §6.4 byte-identity gate in `shard_merge.rs`. The merge side is the
//! library path `pamr merge --figures` prints (`merge_figures`, then
//! `render_figure` per group); the other side runs the three binaries.

use pamr_sim::shard::{merge_figures, MergeError, ShardPartial};
use pamr_sim::table::render_figure;
use pamr_sim::ShardSpec;
use std::process::Command;

/// What `pamr merge --figures` prints over `count` shard partials.
fn merged_figures(trials: usize, seed: u64, count: usize) -> String {
    let mesh = pamr_sim::paper_mesh();
    let model = pamr_sim::paper_model();
    let partials: Vec<ShardPartial> = (0..count)
        .map(|i| ShardPartial::run(&mesh, &model, trials, seed, ShardSpec::new(i, count)))
        .collect();
    let figures = merge_figures(&partials).expect("complete shard set merges");
    (figures.iter().enumerate())
        .map(|(figure, results)| render_figure(figure, results, trials))
        .collect()
}

#[test]
fn sharded_figures_render_identically_to_the_unsharded_run() {
    let (trials, seed) = (1, 42);
    let binaries = [
        env!("CARGO_BIN_EXE_fig7"),
        env!("CARGO_BIN_EXE_fig8"),
        env!("CARGO_BIN_EXE_fig9"),
    ];
    let direct: String = (binaries.iter())
        .map(|bin| {
            let out = Command::new(bin)
                .args(["--trials", &trials.to_string(), "--seed", &seed.to_string()])
                .output()
                .expect("spawn a figure binary");
            assert!(out.status.success(), "{bin} failed");
            String::from_utf8(out.stdout).expect("figure output is UTF-8")
        })
        .collect();
    for count in [1, 2, 3] {
        assert_eq!(
            merged_figures(trials, seed, count),
            direct,
            "{count}-shard `pamr merge --figures` diverged from fig7 ‖ fig8 ‖ fig9"
        );
    }
}

#[test]
fn merge_figures_rejects_incomplete_shard_sets() {
    let mesh = pamr_sim::paper_mesh();
    let model = pamr_sim::paper_model();
    let half = ShardPartial::run(&mesh, &model, 1, 7, ShardSpec::new(0, 2));
    let err = merge_figures(std::slice::from_ref(&half)).unwrap_err();
    assert_eq!(err, MergeError::MissingShards(vec![1]));
    assert!(matches!(merge_figures(&[]), Err(MergeError::Empty)));
}
