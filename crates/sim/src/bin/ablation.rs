//! Ablation studies: the §6.4 leakage-ratio observation and the §7
//! multi-path future-work item.

use pamr_sim::ablation::{leak_sweep, order_sweep, smp_sweep};
use pamr_sim::cli::{self, Options};
use pamr_sim::outln;

fn main() {
    let opts = Options::from_args().unwrap_or_else(cli::exit_usage);
    let mesh = pamr_sim::paper_mesh();

    outln!("== leakage ablation: does a lower P_leak/P_0 favour PR over XYI? ==");
    outln!("(30 mixed communications, {} trials per row)", opts.trials);
    outln!(
        "{:>10} {:>9} {:>9} {:>14} {:>14}",
        "P_leak mW",
        "PR wins",
        "XYI wins",
        "both feasible",
        "P(PR)/P(XYI)"
    );
    for row in leak_sweep(&mesh, &[0.0, 4.0, 16.9, 40.0, 80.0], opts.trials, opts.seed) {
        outln!(
            "{:>10.1} {:>9} {:>9} {:>14} {:>14.4}",
            row.p_leak,
            row.pr_wins,
            row.xyi_wins,
            row.both_feasible,
            row.mean_ratio
        );
    }

    outln!("\n== s-MP ablation: SplitMp<PathRemover> on heavy traffic ==");
    outln!(
        "(12 communications U[2000,3400] Mb/s, {} trials)",
        opts.trials
    );
    outln!("{:>4} {:>10} {:>14}", "s", "successes", "mean power mW");
    let (rows, fw_lb) = smp_sweep(&mesh, &[1, 2, 3, 4], opts.trials, opts.seed);
    for row in &rows {
        outln!(
            "{:>4} {:>10} {:>14.1}",
            row.s,
            row.successes,
            row.mean_power
        );
    }
    outln!("continuous max-MP lower bound on the comparable set: {fw_lb:.1} mW");

    outln!("\n== processing-order ablation: 'decreasing weights gives the best results' (§5) ==");
    outln!("(TB on 30 mixed communications, {} trials)", opts.trials);
    outln!(
        "{:>20} {:>10} {:>14}",
        "order",
        "successes",
        "mean power mW"
    );
    for row in order_sweep(&mesh, opts.trials, opts.seed) {
        outln!(
            "{:>20} {:>10} {:>14.1}",
            format!("{:?}", row.order),
            row.successes,
            row.mean_power
        );
    }
}
