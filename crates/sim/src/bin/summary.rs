//! Regenerates the §6.4 summary statistics: success rates, inverse-power
//! ratios versus XY, the static-power fraction and mean runtimes.
//!
//! Stdout carries only seed-determined text (byte-identical at any thread
//! count — the determinism CI lane diffs 1-thread vs N-thread runs);
//! wall-clock-dependent lines (progress, mean routing times) go to stderr.
//!
//! With `--shard i/N --out FILE` the binary instead runs only its shard of
//! the campaign and writes the partial-result JSON for `pamr merge`
//! (equivalent to `pamr shard`).

use pamr_sim::cli::{self, Options};
use pamr_sim::shard::ShardPartial;
use pamr_sim::summary::Summary;

fn main() {
    let opts = Options::from_args().unwrap_or_else(cli::exit_usage);
    let mesh = pamr_sim::paper_mesh();
    let model = pamr_sim::paper_model();
    if !opts.shard.is_full() {
        let out = opts.out.unwrap_or_else(|| {
            eprintln!("--shard i/N needs --out FILE to receive the partial results");
            std::process::exit(2);
        });
        eprintln!(
            "running shard {} of the campaign ({} trials per sweep point, {} worker thread(s)) ...",
            opts.shard,
            opts.trials,
            rayon::current_num_threads()
        );
        let partial = ShardPartial::run(&mesh, &model, opts.trials, opts.seed, opts.shard);
        std::fs::write(&out, partial.to_json())
            .unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
        eprintln!(
            "wrote {} sweep points to {} (recombine with `pamr merge`)",
            partial.points.len(),
            out.display()
        );
        return;
    }
    eprintln!(
        "running the full campaign ({} trials per sweep point, {} worker thread(s)) ...",
        opts.trials,
        rayon::current_num_threads()
    );
    let s = Summary::run(&mesh, &model, opts.trials, opts.seed);
    print!("{}", s.render_report());
    eprint!("{}", s.render_timings());
}
