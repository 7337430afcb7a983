//! Length-targeted communication sets (Figure 9 of the paper: sensitivity
//! to the average communication length).

use pamr_mesh::{Coord, Mesh};
use pamr_routing::{Comm, CommSet};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;

/// Generator drawing communications "whose length is around the target
/// average length" (§6.3): each source/sink pair is sampled uniformly among
/// the pairs at Manhattan distance `target ± 1` (clamped to the distances
/// that exist on the mesh).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LengthTargetedWorkload {
    /// Number of communications to draw.
    pub n: usize,
    /// Smallest possible weight.
    pub w_min: f64,
    /// Largest possible weight.
    pub w_max: f64,
    /// Target Manhattan distance between source and sink.
    pub target_len: usize,
}

impl LengthTargetedWorkload {
    /// Creates the generator.
    ///
    /// # Panics
    /// Panics unless `0 < w_min ≤ w_max` and `target_len ≥ 1`.
    pub fn new(n: usize, w_min: f64, w_max: f64, target_len: usize) -> Self {
        assert!(w_min > 0.0 && w_min <= w_max, "invalid weight range");
        assert!(target_len >= 1, "target length must be at least 1");
        LengthTargetedWorkload {
            n,
            w_min,
            w_max,
            target_len,
        }
    }

    /// Draws one instance on `mesh`.
    ///
    /// Meshes up to [`PAIR_ENUM_MAX_CORES`] cores sample from the
    /// [`PairBuckets`] enumeration — that path fixes the RNG draw
    /// sequence every committed fixture was blessed under. Only the
    /// buckets of the distances `target ± 1` are built: they hold the
    /// full enumeration's pairs in its order, so each draw picks the same
    /// pair. Larger meshes switch to [`sample_pair_at`], which draws from
    /// the *same* uniform distribution over ordered pairs without
    /// materialising the pair lists (137 GB on a 256×256 mesh), at the
    /// cost of a different draw sequence per communication.
    pub fn generate<R: Rng + ?Sized>(&self, mesh: &Mesh, rng: &mut R) -> CommSet {
        let max_len = mesh.rows() + mesh.cols() - 2;
        let lo = self.target_len.saturating_sub(1).max(1).min(max_len);
        let hi = (self.target_len + 1).min(max_len);
        let buckets =
            (mesh.num_cores() <= PAIR_ENUM_MAX_CORES).then(|| PairBuckets::within(mesh, lo..=hi));
        let comms = (0..self.n)
            .map(|_| {
                let len = rng.gen_range(lo..=hi);
                let (src, snk) = match &buckets {
                    Some(b) => b.sample(len, rng),
                    None => sample_pair_at(mesh, len, rng),
                };
                let weight = if self.w_min == self.w_max {
                    self.w_min
                } else {
                    rng.gen_range(self.w_min..=self.w_max)
                };
                Comm::new(src, snk, weight)
            })
            .collect();
        CommSet::new(*mesh, comms)
    }
}

/// Largest core count still sampled through the [`PairBuckets`]
/// enumeration (64×64). Above this the O(cores²) pair list is replaced
/// by the displacement-weighted [`sample_pair_at`].
pub const PAIR_ENUM_MAX_CORES: usize = 4096;

/// Uniformly samples an ordered core pair at exactly Manhattan distance
/// `len` without enumerating pairs.
///
/// A pair is one signed displacement `(dx, dy)` with `|dx| + |dy| = len`
/// plus a source admitting it; there are `(p − |dx|)·(q − |dy|)` sources
/// per signed displacement, so drawing the displacement with that weight
/// and then the source uniformly is exactly the uniform distribution
/// [`PairBuckets::sample`] draws from (the per-call RNG consumption
/// differs). Runs in O(len) time and O(1) space.
///
/// # Panics
/// Panics if no core pair exists at distance `len` on `mesh`.
pub fn sample_pair_at<R: Rng + ?Sized>(mesh: &Mesh, len: usize, rng: &mut R) -> (Coord, Coord) {
    let (p, q) = (mesh.rows(), mesh.cols());
    let total = pairs_at_distance(mesh, len);
    assert!(total > 0, "no core pair at distance {len}");
    let mut r = rng.gen_range(0..total);
    for (dx, dy) in signed_displacements(p, q, len) {
        let w = ((p - dx.unsigned_abs()) * (q - dy.unsigned_abs())) as u64;
        if r < w {
            // Source uniform among the admitting rectangle: a negative
            // component shifts the base so src + (dx, dy) stays in-mesh.
            let u = rng.gen_range(0..p - dx.unsigned_abs())
                + if dx < 0 { dx.unsigned_abs() } else { 0 };
            let v = rng.gen_range(0..q - dy.unsigned_abs())
                + if dy < 0 { dy.unsigned_abs() } else { 0 };
            let src = Coord::new(u, v);
            let snk = Coord::new(u.wrapping_add_signed(dx), v.wrapping_add_signed(dy));
            return (src, snk);
        }
        r -= w;
    }
    unreachable!("displacement weights sum to the pair count");
}

/// Number of ordered core pairs at exactly distance `len` — the closed
/// form `Σ (p − |dx|)·(q − |dy|)` over signed displacements, equal to
/// [`PairBuckets::count`] without building the buckets.
pub fn pairs_at_distance(mesh: &Mesh, len: usize) -> u64 {
    let (p, q) = (mesh.rows(), mesh.cols());
    if len == 0 {
        // Distance 0 is the core itself; the bucket enumeration skips
        // `a == b`, so the closed form must too.
        return 0;
    }
    signed_displacements(p, q, len)
        .map(|(dx, dy)| ((p - dx.unsigned_abs()) * (q - dy.unsigned_abs())) as u64)
        .sum()
}

/// All signed displacements `(dx, dy)` with `|dx| + |dy| = len` that fit
/// a `p`×`q` mesh, in a fixed deterministic order.
fn signed_displacements(p: usize, q: usize, len: usize) -> impl Iterator<Item = (isize, isize)> {
    let adx_min = len.saturating_sub(q.saturating_sub(1));
    let adx_max = len.min(p.saturating_sub(1));
    (adx_min..=adx_max).flat_map(move |adx| {
        let ady = len - adx;
        let dxs: &[isize] = if adx == 0 { &[0] } else { &[1, -1] };
        let dys: &[isize] = if ady == 0 { &[0] } else { &[1, -1] };
        dxs.iter().flat_map(move |&sx| {
            dys.iter()
                .map(move |&sy| (sx * adx as isize, sy * ady as isize))
        })
    })
}

/// All ordered core pairs of a mesh, bucketed by Manhattan distance.
///
/// Each bucket lists its pairs by source, then sink, in
/// [`Mesh::cores`] order. [`PairBuckets::new`] is O(cores²).
#[derive(Debug, Clone)]
pub struct PairBuckets {
    by_len: Vec<Vec<(Coord, Coord)>>,
}

impl PairBuckets {
    /// Enumerates every ordered pair of distinct cores.
    pub fn new(mesh: &Mesh) -> Self {
        let max = mesh.rows() + mesh.cols() - 2;
        let mut by_len: Vec<Vec<(Coord, Coord)>> = vec![Vec::new(); max + 1];
        for a in mesh.cores() {
            for b in mesh.cores() {
                if a != b {
                    by_len[a.manhattan(b)].push((a, b));
                }
            }
        }
        PairBuckets { by_len }
    }

    /// Enumerates the pairs at the distances in `lens` alone; the other
    /// buckets stay empty. A bucket it builds equals [`PairBuckets::new`]'s,
    /// so [`PairBuckets::sample`] draws the same pair from either. Each
    /// source visits only the cores within distance `lens.end()` of it.
    fn within(mesh: &Mesh, lens: RangeInclusive<usize>) -> Self {
        let max = mesh.rows() + mesh.cols() - 2;
        let (lo, hi) = ((*lens.start()).max(1), (*lens.end()).min(max));
        let mut by_len: Vec<Vec<(Coord, Coord)>> = vec![Vec::new(); max + 1];
        for a in mesh.cores() {
            for u in a.u.saturating_sub(hi)..=(a.u + hi).min(mesh.rows() - 1) {
                let reach = hi - a.u.abs_diff(u);
                for v in a.v.saturating_sub(reach)..=(a.v + reach).min(mesh.cols() - 1) {
                    let b = Coord::new(u, v);
                    let d = a.manhattan(b);
                    if d >= lo {
                        by_len[d].push((a, b));
                    }
                }
            }
        }
        PairBuckets { by_len }
    }

    /// Largest distance with at least one pair.
    pub fn max_len(&self) -> usize {
        self.by_len.len() - 1
    }

    /// Number of ordered pairs at exactly distance `len`.
    pub fn count(&self, len: usize) -> usize {
        self.by_len.get(len).map_or(0, Vec::len)
    }

    /// Uniformly samples a pair at exactly distance `len`.
    ///
    /// # Panics
    /// Panics if no pair exists at that distance.
    pub fn sample<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> (Coord, Coord) {
        let bucket = &self.by_len[len];
        assert!(!bucket.is_empty(), "no core pair at distance {len}");
        bucket[rng.gen_range(0..bucket.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn buckets_cover_all_pairs() {
        let mesh = Mesh::new(4, 4);
        let b = PairBuckets::new(&mesh);
        let total: usize = (1..=b.max_len()).map(|l| b.count(l)).sum();
        assert_eq!(total, 16 * 15);
        assert_eq!(b.count(0), 0);
        assert_eq!(b.max_len(), 6);
        // Exactly two ordered pairs at the maximum distance per corner pair:
        // (0,0)↔(3,3) and (0,3)↔(3,0).
        assert_eq!(b.count(6), 4);
    }

    #[test]
    fn buckets_within_a_band_draw_the_full_enumerations_pairs() {
        for (p, q) in [(8, 8), (5, 7), (1, 9)] {
            let mesh = Mesh::new(p, q);
            let full = PairBuckets::new(&mesh);
            for len in 1..=full.max_len() {
                let band = PairBuckets::within(&mesh, len - 1..=len + 1);
                for (d, bucket) in band.by_len.iter().enumerate() {
                    let built = d + 1 >= len && d <= len + 1;
                    let want: &[(Coord, Coord)] = if built { &full.by_len[d] } else { &[] };
                    assert_eq!(bucket, want, "{p}x{q}, band {len}±1, distance {d}");
                }
                for seed in 0..4 {
                    let mut a = SmallRng::seed_from_u64(seed);
                    let mut b = SmallRng::seed_from_u64(seed);
                    for _ in 0..32 {
                        assert_eq!(
                            band.sample(len, &mut a),
                            full.sample(len, &mut b),
                            "{p}x{q}, distance {len}, seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn generated_lengths_stay_near_target() {
        let mesh = Mesh::new(8, 8);
        let gen = LengthTargetedWorkload::new(200, 200.0, 800.0, 10);
        let cs = gen.generate(&mesh, &mut SmallRng::seed_from_u64(3));
        for c in cs.comms() {
            let l = c.len();
            assert!((9..=11).contains(&l), "length {l} outside target band");
        }
        let mean = cs.mean_length();
        assert!((mean - 10.0).abs() < 0.5, "mean length {mean}");
    }

    #[test]
    fn extreme_targets_are_clamped() {
        let mesh = Mesh::new(8, 8);
        // Target beyond the mesh diameter (14): must clamp to 13..14.
        let gen = LengthTargetedWorkload::new(50, 100.0, 200.0, 20);
        let cs = gen.generate(&mesh, &mut SmallRng::seed_from_u64(9));
        for c in cs.comms() {
            assert!(c.len() >= 13);
        }
        // Target 1: lengths in 1..=2.
        let gen = LengthTargetedWorkload::new(50, 100.0, 200.0, 1);
        let cs = gen.generate(&mesh, &mut SmallRng::seed_from_u64(9));
        for c in cs.comms() {
            assert!((1..=2).contains(&c.len()));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mesh = Mesh::new(8, 8);
        let gen = LengthTargetedWorkload::new(25, 100.0, 3500.0, 7);
        let a = gen.generate(&mesh, &mut SmallRng::seed_from_u64(11));
        let b = gen.generate(&mesh, &mut SmallRng::seed_from_u64(11));
        assert_eq!(a, b);
    }

    #[test]
    fn closed_form_count_matches_bucket_enumeration() {
        for (p, q) in [(4, 4), (1, 8), (8, 1), (3, 5), (2, 2), (1, 1)] {
            let mesh = Mesh::new(p, q);
            let b = PairBuckets::new(&mesh);
            for len in 0..=(p + q) {
                assert_eq!(
                    pairs_at_distance(&mesh, len),
                    b.count(len) as u64,
                    "count at distance {len} diverged on {p}x{q}"
                );
            }
        }
    }

    #[test]
    fn direct_sampler_draws_valid_pairs() {
        let mesh = Mesh::new(5, 7);
        let mut rng = SmallRng::seed_from_u64(42);
        for len in 1..=(mesh.rows() + mesh.cols() - 2) {
            for _ in 0..64 {
                let (src, snk) = sample_pair_at(&mesh, len, &mut rng);
                assert_eq!(src.manhattan(snk), len, "{src}->{snk}");
                assert_ne!(src, snk);
                assert!(src.u < 5 && src.v < 7, "source {src} off-mesh");
                assert!(snk.u < 5 && snk.v < 7, "sink {snk} off-mesh");
            }
        }
    }

    #[test]
    fn direct_sampler_covers_every_bucket_pair() {
        // On a mesh small enough to enumerate, enough draws must hit every
        // ordered pair the buckets hold — uniform support, no gaps from a
        // mis-shifted source rectangle.
        let mesh = Mesh::new(2, 3);
        let b = PairBuckets::new(&mesh);
        let mut rng = SmallRng::seed_from_u64(7);
        for len in 1..=b.max_len() {
            let mut seen: Vec<(Coord, Coord)> = Vec::new();
            for _ in 0..64 * b.count(len) {
                let pair = sample_pair_at(&mesh, len, &mut rng);
                if !seen.contains(&pair) {
                    seen.push(pair);
                }
            }
            assert_eq!(seen.len(), b.count(len), "missing pairs at distance {len}");
        }
    }

    #[test]
    fn generate_switches_sampler_above_the_enumeration_threshold() {
        // 65×65 = 4225 cores, just past PAIR_ENUM_MAX_CORES: generate must
        // take the direct-sampler path and still honour the length band.
        let mesh = Mesh::new(65, 65);
        assert!(mesh.num_cores() > PAIR_ENUM_MAX_CORES);
        let gen = LengthTargetedWorkload::new(100, 100.0, 800.0, 8);
        let cs = gen.generate(&mesh, &mut SmallRng::seed_from_u64(13));
        assert_eq!(cs.comms().len(), 100);
        for c in cs.comms() {
            assert!((7..=9).contains(&c.len()), "length {} off-target", c.len());
        }
    }
}
