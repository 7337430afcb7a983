//! Regenerates the §6.4 summary statistics: success rates, inverse-power
//! ratios versus XY, the static-power fraction and mean runtimes.
//!
//! Stdout carries only seed-determined text (byte-identical at any thread
//! count — the determinism CI lane diffs 1-thread vs N-thread runs);
//! wall-clock-dependent lines (progress, mean routing times) go to stderr.

use pamr_sim::cli::{self, Options};
use pamr_sim::out;
use pamr_sim::summary::Summary;

fn main() {
    let opts = Options::from_args().unwrap_or_else(cli::exit_usage);
    let mesh = pamr_sim::paper_mesh();
    let model = pamr_sim::paper_model();
    eprintln!(
        "running the full campaign ({} trials per sweep point, {} worker thread(s)) ...",
        opts.trials,
        rayon::current_num_threads()
    );
    let s = Summary::run(&mesh, &model, opts.trials, opts.seed);
    out!("{}", s.render_report());
    eprint!("{}", s.render_timings());
}
