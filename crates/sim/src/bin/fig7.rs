//! Regenerates Figure 7: sensitivity to the number of communications
//! (normalised power inverse + failure ratio, three weight regimes).

fn main() {
    pamr_sim::cli::figure_main(0);
}
