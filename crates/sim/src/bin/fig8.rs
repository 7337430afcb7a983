//! Regenerates Figure 8: sensitivity to the size (average weight) of
//! communications, for 10 / 20 / 40 communications.

fn main() {
    pamr_sim::cli::figure_main(1);
}
