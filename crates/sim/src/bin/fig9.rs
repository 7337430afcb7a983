//! Regenerates Figure 9: sensitivity to the average length of
//! communications, in three weight regimes.

fn main() {
    pamr_sim::cli::figure_main(2);
}
