//! The `pamr frontier` pipeline: fan the ε-constraint segments of a
//! [`FrontierProblem`] out over the work pool, optionally sharded across
//! processes, and merge the per-segment point lists into the
//! dominance-filtered Pareto report.
//!
//! The parallel structure mirrors the §6 campaign ([`crate::campaign`]) and
//! its shard pipeline ([`crate::shard`]): segments are pure functions of
//! `(instance, model, segment budget)`, the pool combines them in segment
//! order, and a shard owns every segment `s` with `s % count == index` —
//! so the merged multi-process frontier is **byte-identical** to the
//! single-process [`frontier_points`](pamr_routing::frontier_points) run.
//! The `frontier` suite in `crates/sim/tests` gates both properties.

use pamr_power::PowerModel;
use pamr_routing::frontier::pareto_filter;
use pamr_routing::{CommSet, FrontierPoint, FrontierProblem, RouteScratch, Segment};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

use crate::campaign::ShardSpec;
use crate::shard::{check_shard_set, MergeError, ShardedPartial};

/// On-disk format version of [`FrontierPartial`]. Bump on any change to
/// the partial's shape so stale files fail loudly at merge time.
pub const FRONTIER_SCHEMA: u32 = 1;

/// The points of one solved ε-constraint segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentPoints {
    /// The segment (index + latency budget).
    pub segment: Segment,
    /// One point per candidate that met the budget.
    pub points: Vec<FrontierPoint>,
}

/// One process's slice of a sharded frontier sweep: the segments it owns,
/// solved, plus enough provenance to validate recombination.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontierPartial {
    /// Format version ([`FRONTIER_SCHEMA`]).
    pub schema: u32,
    /// This shard's index.
    pub shard_index: usize,
    /// Total number of shards in the sweep.
    pub shard_count: usize,
    /// Total number of ε-constraint segments (across all shards).
    pub segments: usize,
    /// Path bound of the FW-MP candidate (`< 2` = 1-MP portfolio only).
    pub split: usize,
    /// Owned segments in ascending index order, each with its points.
    pub owned: Vec<SegmentPoints>,
}

impl FrontierPartial {
    /// Solves this shard's slice of the sweep: candidates and budgets are
    /// recomputed deterministically (they are pure functions of the
    /// instance), then every owned segment is solved on the work pool.
    pub fn run(
        cs: &CommSet,
        model: &PowerModel,
        segments: usize,
        split: usize,
        shard: ShardSpec,
    ) -> FrontierPartial {
        let problem = FrontierProblem {
            cs,
            model,
            segments,
            split,
        };
        let mut scratch = RouteScratch::new();
        let candidates = problem.candidates(&mut scratch);
        let owned_segments: Vec<Segment> = problem
            .segment_budgets(&candidates)
            .into_iter()
            .filter(|seg| shard.owns(seg.index))
            .collect();
        // Segments are pure and independent; the pool's in-order combine
        // keeps the collected vector in segment order at any thread count.
        let owned: Vec<SegmentPoints> = owned_segments
            .into_par_iter()
            .map(|segment| SegmentPoints {
                points: problem.solve_segment(&candidates, segment),
                segment,
            })
            .collect();
        FrontierPartial {
            schema: FRONTIER_SCHEMA,
            shard_index: shard.index,
            shard_count: shard.count,
            segments,
            split,
            owned,
        }
    }

    /// Serialises to the on-disk JSON form. `serde_json` prints the
    /// shortest round-trip float form, so equal partials are equal bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("partial serialises")
    }

    /// Parses the on-disk JSON form.
    pub fn from_json(text: &str) -> Result<FrontierPartial, MergeError> {
        serde_json::from_str(text).map_err(|e| MergeError::Parse(e.to_string()))
    }
}

impl ShardedPartial for FrontierPartial {
    type Item = SegmentPoints;
    type Key = usize;
    const SCHEMA: u32 = FRONTIER_SCHEMA;

    fn header(&self) -> (u32, usize, usize) {
        (self.schema, self.shard_index, self.shard_count)
    }

    fn params(&self) -> [(&'static str, u64); 2] {
        [
            ("segments", self.segments as u64),
            ("split", self.split as u64),
        ]
    }

    fn items(&self) -> &[SegmentPoints] {
        &self.owned
    }

    fn locate(sp: &SegmentPoints) -> (usize, usize, String) {
        let index = sp.segment.index;
        (index, index, format!("segment {index}"))
    }
}

/// Recombines the partials of a sharded frontier sweep into the report the
/// single-process run prints.
///
/// After the shard-set check every segment must lie in `0..segments` and,
/// unless every shard found the instance infeasible, be present. The
/// per-segment points are concatenated in ascending segment order — the
/// order [`frontier_points`](pamr_routing::frontier_points) uses — and
/// dominance-filtered, so the result is bit-identical to the unsharded
/// sweep.
pub fn merge_frontier(partials: &[FrontierPartial]) -> Result<FrontierReport, MergeError> {
    let by_index = check_shard_set(partials)?;
    let first = &partials[0];
    if let Some(&stray) = by_index.keys().find(|&&i| i >= first.segments) {
        return Err(MergeError::BadPoint(format!(
            "segment {stray} out of range 0..{}",
            first.segments
        )));
    }
    let mut all = Vec::new();
    if !by_index.is_empty() {
        for index in 0..first.segments {
            let sp = by_index
                .get(&index)
                .ok_or_else(|| MergeError::BadPoint(format!("segment {index} missing")))?;
            all.extend(sp.points.iter().cloned());
        }
    }
    Ok(FrontierReport {
        segments: first.segments,
        split: first.split,
        shard_count: first.shard_count,
        pareto: pareto_filter(all),
    })
}

/// The deliverable of `pamr frontier`: the dominance-filtered Pareto set
/// plus the sweep's provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierReport {
    /// Number of ε-constraint segments swept.
    pub segments: usize,
    /// Path bound of the FW-MP candidate.
    pub split: usize,
    /// How many shards contributed (1 for a single-process run).
    pub shard_count: usize,
    /// The Pareto points, ascending latency / strictly descending power.
    pub pareto: Vec<FrontierPoint>,
}

impl FrontierReport {
    /// Computes the full frontier in one process, fanning the segments out
    /// over the work pool. Byte-identical to the sequential
    /// [`frontier_points`](pamr_routing::frontier_points) (the `frontier`
    /// suite asserts it) and to a
    /// sharded run recombined by [`merge_frontier`].
    pub fn compute(
        cs: &CommSet,
        model: &PowerModel,
        segments: usize,
        split: usize,
    ) -> FrontierReport {
        let partial = FrontierPartial::run(cs, model, segments, split, ShardSpec::FULL);
        merge_frontier(std::slice::from_ref(&partial)).expect("full partial merges")
    }

    /// The fig-style text rendering: one row per Pareto point, tightest
    /// latency first. Deterministic — every quantity is seed-determined.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "power × latency frontier ({} segments, split {}, {} Pareto point(s))",
            self.segments,
            self.split,
            self.pareto.len()
        );
        let _ = writeln!(s, "{:>12} {:>12}  policy", "latency", "power mW");
        for p in &self.pareto {
            let _ = writeln!(s, "{:>12.6} {:>12.3}  {}", p.latency, p.power, p.label);
        }
        s
    }

    /// CSV rows (`latency,power,label`), one per Pareto point.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("latency,power,label\n");
        for p in &self.pareto {
            let _ = writeln!(s, "{},{},{}", p.latency, p.power, p.label);
        }
        s
    }

    /// The machine-readable JSON form of the whole report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }

    /// Structural self-check: the Pareto set must ascend in latency and
    /// strictly descend in power. `Err` names the offending pair.
    pub fn check(&self) -> Result<(), String> {
        for (k, w) in self.pareto.windows(2).enumerate() {
            if w[0].latency > w[1].latency {
                return Err(format!("points {k},{} out of latency order", k + 1));
            }
            if w[1].power >= w[0].power {
                return Err(format!("point {} does not improve power", k + 1));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamr_mesh::{Coord, Mesh};
    use pamr_routing::{frontier_points, Comm};

    fn instance() -> CommSet {
        CommSet::new(
            Mesh::new(4, 4),
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(3, 3), 900.0),
                Comm::new(Coord::new(0, 3), Coord::new(3, 0), 1400.0),
                Comm::new(Coord::new(1, 0), Coord::new(2, 3), 600.0),
            ],
        )
    }

    #[test]
    fn pooled_frontier_matches_the_sequential_solver() {
        let cs = instance();
        let model = crate::paper_model();
        let report = FrontierReport::compute(&cs, &model, 8, 2);
        let sequential = frontier_points(&FrontierProblem {
            cs: &cs,
            model: &model,
            segments: 8,
            split: 2,
        });
        assert_eq!(report.pareto, sequential);
        assert!(report.check().is_ok());
    }

    #[test]
    fn sharded_merge_is_byte_identical_to_one_process() {
        let cs = instance();
        let model = crate::paper_model();
        let full = FrontierReport::compute(&cs, &model, 9, 2);
        for count in [2, 3] {
            let partials: Vec<FrontierPartial> = (0..count)
                .map(|i| FrontierPartial::run(&cs, &model, 9, 2, ShardSpec::new(i, count)))
                .collect();
            let merged = merge_frontier(&partials).expect("complete shard set merges");
            assert_eq!(
                merged.render(),
                FrontierReport {
                    shard_count: count,
                    ..full.clone()
                }
                .render(),
                "{count}-shard frontier diverged from the 1-process run"
            );
            assert_eq!(merged.pareto, full.pareto);
        }
    }

    #[test]
    fn merge_rejects_incomplete_and_inconsistent_sets() {
        let cs = instance();
        let model = crate::paper_model();
        let half = FrontierPartial::run(&cs, &model, 6, 2, ShardSpec::new(0, 2));
        assert_eq!(
            merge_frontier(std::slice::from_ref(&half)).unwrap_err(),
            MergeError::MissingShards(vec![1])
        );
        assert!(matches!(merge_frontier(&[]), Err(MergeError::Empty)));
        let other = FrontierPartial::run(&cs, &model, 6, 4, ShardSpec::new(1, 2));
        assert!(matches!(
            merge_frontier(&[half, other]),
            Err(MergeError::Inconsistent(_))
        ));
    }

    #[test]
    fn partial_json_round_trips() {
        let cs = instance();
        let model = crate::paper_model();
        let partial = FrontierPartial::run(&cs, &model, 5, 2, ShardSpec::new(1, 2));
        let back = FrontierPartial::from_json(&partial.to_json()).expect("round trip");
        assert_eq!(back.to_json(), partial.to_json());
    }
}
