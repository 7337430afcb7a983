//! The host-speed probe: a fixed CPU task timed beside the measured work,
//! so that end-to-end timings can be read at one reference host speed.
//!
//! A shared virtual machine changes speed by up to a half for seconds to
//! minutes at a time, as other tenants load the physical cores and as the
//! clock moves. Every workload here is CPU-bound on one or two cores, so
//! its wall times move with the host, and runs of the same code made a few
//! minutes apart differ by more than any change worth detecting.
//!
//! The probe sorts the same 64 Ki pseudo-random keys (256 KiB, within one
//! core's L2 cache) with the standard library's unstable sort: branchy,
//! cache-resident work like the routing engines'. Over 150 s of a noisy
//! 2-vCPU host, the log of its time tracked the log of a fixed routing
//! batch's time with correlation 0.997; scaling by it cut that batch's
//! spread from 11% to 1%. The probe's code belongs to this benchmark, not to
//! the program, so no change to the program moves it.

use crate::report::{median, secs};
use std::hint::black_box;
use std::time::Instant;

/// Keys the probe sorts.
const KEYS: usize = 1 << 16;

/// The probe's time (s) at the reference host speed, a round figure near
/// its time on a 2-vCPU Xeon (Sapphire Rapids, 2.0 GHz) in that host's fast
/// phases (1.3–1.4 ms). Scaled timings read as wall times on such a host.
pub const REFERENCE_S: f64 = 1.25e-3;

/// Times the probe and keeps its readings.
#[derive(Default)]
pub struct Probe {
    keys: Vec<u32>,
    readings: Vec<f64>,
}

impl Probe {
    /// Runs the probe once and records its wall time.
    pub fn sample(&mut self) {
        let t = Instant::now();
        self.keys.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..KEYS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.keys.push((x >> 32) as u32);
        }
        self.keys.sort_unstable();
        black_box(&self.keys);
        self.readings.push(secs(t));
    }

    /// Readings so far.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// The factor that scales a time measured around readings
    /// `from..to` to the reference speed: [`REFERENCE_S`] over their
    /// median.
    pub fn scale(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.readings.len());
        let from = from.min(to.saturating_sub(1));
        REFERENCE_S / median(&self.readings[from..to])
    }
}
