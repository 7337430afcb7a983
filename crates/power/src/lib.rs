//! # pamr-power — link power & frequency-scaling models
//!
//! Implements the power-consumption model of Section 3.1 of *Power-aware
//! Manhattan routing on chip multiprocessors* (INRIA RR-7752):
//!
//! An **active** link (non-zero bandwidth fraction `f`) dissipates
//!
//! ```text
//! P = P_leak + P_0 · (f · BW)^α ,        2 < α ≤ 3
//! ```
//!
//! while an inactive link dissipates nothing. The effective bandwidth
//! `f · BW` must cover the traffic routed through the link; with
//! **continuous** frequency scaling it equals the load exactly, with
//! **discrete** levels it is the smallest available level at or above the
//! load (Section 6: "we pick the first frequency in the set of possible
//! frequencies higher than the required continuous frequency").
//!
//! [`PowerModel::kim_horowitz`] is the paper's simulation model, fitted to
//! the adaptive-supply serial links of Kim & Horowitz (ISSCC'02; the paper's reference 7):
//! `P_leak = 16.9 mW`, `P_0 = 5.41`, `α = 2.95`, frequencies
//! {1, 2.5, 3.5} Gb/s, with communication weights expressed in Mb/s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;

pub use model::{FrequencyScale, Infeasible, PowerBreakdown, PowerModel};
