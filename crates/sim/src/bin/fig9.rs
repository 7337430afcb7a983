//! Regenerates Figure 9: sensitivity to the average length of
//! communications, in three weight regimes.

use pamr_sim::cli::{self, Options};
use pamr_sim::experiments::{fig9, run_experiment_sharded};
use pamr_sim::table::{failure_table, norm_inv_table, write_csv};

fn main() {
    let opts = Options::from_args().unwrap_or_else(cli::exit_usage);
    let mesh = pamr_sim::paper_mesh();
    let model = pamr_sim::paper_model();
    for exp in fig9() {
        println!("== {} — {} ==", exp.id, exp.title);
        let res = run_experiment_sharded(&exp, &mesh, &model, opts.trials, opts.seed, opts.shard);
        println!(
            "normalised power inverse (x = {}, {} trials/point)",
            exp.xlabel, opts.trials
        );
        print!("{}", norm_inv_table(&res));
        println!("failure ratio");
        print!("{}", failure_table(&res));
        println!();
        if let Some(dir) = &opts.csv {
            write_csv(&res, dir).expect("writing CSV");
        }
    }
}
