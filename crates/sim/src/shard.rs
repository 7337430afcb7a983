//! Cross-process shard-and-merge for the §6 campaign.
//!
//! One process per shard runs [`ShardPartial::run`] over the sweep points
//! it owns (`p % count == index`, see [`ShardSpec`]) and serialises the
//! per-point statistics to JSON (`pamr shard --shard i/N --out part_i.json`).
//! A merge step ([`merge_partials`], `pamr merge part_*.json`) recombines
//! the partials and renders the identical §6.4 report.
//!
//! **Byte-determinism.** Three properties make the recombination exact, the
//! same associative-merge structure Pettersson & Ozlen (arXiv:1701.08920)
//! exploit for parallel bi-objective sweeps:
//!
//! * every trial's seed depends only on `(experiment, point, trial)`
//!   indices, so a shard's per-point [`PointStats`] are bit-equal to the
//!   single-process run's;
//! * the merge replays the single-process pooling order — canonical
//!   figure → experiment → point — rather than folding whole shards, so
//!   the floating-point addition sequence is identical, not merely
//!   mathematically equivalent;
//! * the JSON round trip is exact (shortest round-trip float formatting).
//!
//! `summary` is [`merge_partials`] over one full partial, so `summary` and
//! `pamr shard` × N + `pamr merge` share one pooling loop and print the
//! same bytes, which the CI `shard-merge` job enforces with `diff`.
//! [`merge_figures`] recombines the same partials into the Figure 7–9
//! tables `fig7`–`fig9` print.

use crate::campaign::{Campaign, ShardSpec};
use crate::experiments::{campaign_figures, grid, ExperimentResult};
use crate::stats::PointStats;
use crate::summary::Summary;
use pamr_mesh::Mesh;
use pamr_power::PowerModel;
use pamr_routing::HeuristicKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Format version of the partial-result JSON.
pub const PARTIAL_SCHEMA: u32 = 1;

/// One sweep point's statistics, addressed by its canonical campaign
/// coordinates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartialPoint {
    /// Figure group index (0 = fig7, 1 = fig8, 2 = fig9).
    pub figure: usize,
    /// Experiment index within the figure group.
    pub experiment: usize,
    /// Experiment id (`"fig7a"`, ...), for validation and readability.
    pub exp_id: String,
    /// Sweep-point index within the experiment.
    pub point_index: usize,
    /// The x-value the paper plots.
    pub x: f64,
    /// The accumulated trial statistics of this point.
    pub stats: PointStats,
}

/// The serialisable output of one shard of the pooled §6 campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardPartial {
    /// Format version ([`PARTIAL_SCHEMA`]).
    pub schema: u32,
    /// This shard's index.
    pub shard_index: usize,
    /// Total number of shards in the campaign.
    pub shard_count: usize,
    /// Trials per sweep point.
    pub trials: usize,
    /// Master seed of the campaign.
    pub seed: u64,
    /// Owned sweep points, in canonical figure → experiment → point order.
    pub points: Vec<PartialPoint>,
}

impl ShardPartial {
    /// Runs this shard's slice of the full §6 campaign (all nine
    /// sub-figures, every owned sweep point).
    pub fn run(
        mesh: &Mesh,
        model: &PowerModel,
        trials: usize,
        seed: u64,
        shard: ShardSpec,
    ) -> ShardPartial {
        ShardPartial::of(&Campaign {
            shard,
            ..Campaign::new(mesh, model, trials, seed)
        })
    }

    /// The partial of `campaign`: [`Campaign::run_grid`] over all three
    /// figure groups, under the campaign's header.
    pub(crate) fn of(campaign: &Campaign) -> ShardPartial {
        ShardPartial {
            schema: PARTIAL_SCHEMA,
            shard_index: campaign.shard.index,
            shard_count: campaign.shard.count,
            trials: campaign.trials,
            seed: campaign.seed,
            points: campaign.run_grid(None),
        }
    }

    /// Serialises to the on-disk JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("partial serialises")
    }

    /// Parses the on-disk JSON form.
    pub fn from_json(text: &str) -> Result<ShardPartial, MergeError> {
        serde_json::from_str(text).map_err(|e| MergeError::Parse(e.to_string()))
    }
}

/// Why a set of shard partials cannot be recombined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No partials were given.
    Empty,
    /// A partial did not parse as JSON of the expected shape.
    Parse(String),
    /// A partial uses an unknown format version.
    Schema {
        /// Version found in the file.
        found: u32,
    },
    /// The partials disagree on trials, seed or shard count.
    Inconsistent(String),
    /// The same shard index appears twice.
    DuplicateShard(usize),
    /// Fewer partials than `shard_count` were given.
    MissingShards(Vec<usize>),
    /// A sweep point is missing, duplicated, or foreign to its shard.
    BadPoint(String),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard partials to merge"),
            MergeError::Parse(e) => write!(f, "cannot parse shard partial: {e}"),
            MergeError::Schema { found } => {
                write!(
                    f,
                    "unknown partial schema {found} (expected {PARTIAL_SCHEMA})"
                )
            }
            MergeError::Inconsistent(what) => {
                write!(f, "shard partials from different campaigns: {what}")
            }
            MergeError::DuplicateShard(i) => write!(f, "shard {i} appears more than once"),
            MergeError::MissingShards(missing) => {
                write!(f, "missing shard partial(s): {missing:?}")
            }
            MergeError::BadPoint(what) => write!(f, "bad sweep point: {what}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// The recombined campaign: the pooled accumulator plus its provenance.
#[derive(Debug, Clone)]
pub struct MergedCampaign {
    /// Trials per sweep point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// How many shards were recombined.
    pub shard_count: usize,
    /// Every trial of every sweep point, pooled in canonical order.
    pub pooled: PointStats,
}

impl MergedCampaign {
    /// The §6.4 summary view of the recombined campaign.
    pub fn summary(self) -> Summary {
        Summary::from_pooled(self.pooled)
    }
}

/// A partial format the shard-set check reads: the campaign partials of
/// `pamr shard` and the frontier partials of `pamr frontier --shard`.
pub(crate) trait ShardedPartial {
    /// One delivered item: a sweep point or a segment.
    type Item;
    /// Where an item sits in the whole run.
    type Key: Ord;
    /// The format version this build reads and writes.
    const SCHEMA: u32;
    /// `(schema, shard index, shard count)` as the file states them.
    fn header(&self) -> (u32, usize, usize);
    /// The run parameters every partial of one set must share, by name.
    fn params(&self) -> [(&'static str, u64); 2];
    /// The delivered items.
    fn items(&self) -> &[Self::Item];
    /// An item's key, the index that picks its owning shard, and its name
    /// in error messages.
    fn locate(item: &Self::Item) -> (Self::Key, usize, String);
}

impl ShardedPartial for ShardPartial {
    type Item = PartialPoint;
    type Key = (usize, usize, usize);
    const SCHEMA: u32 = PARTIAL_SCHEMA;

    fn header(&self) -> (u32, usize, usize) {
        (self.schema, self.shard_index, self.shard_count)
    }

    fn params(&self) -> [(&'static str, u64); 2] {
        [("trials", self.trials as u64), ("seed", self.seed)]
    }

    fn items(&self) -> &[PartialPoint] {
        &self.points
    }

    fn locate(pt: &PartialPoint) -> (Self::Key, usize, String) {
        let label = format!("{} point {}", pt.exp_id, pt.point_index);
        (
            (pt.figure, pt.experiment, pt.point_index),
            pt.point_index,
            label,
        )
    }
}

/// The one shard-set check behind [`merge_partials`], [`merge_figures`]
/// and [`merge_frontier`](crate::frontier::merge_frontier): every partial
/// carries this build's schema and the first partial's run parameters and
/// shard count, every shard index in `0..count` appears exactly once, and
/// every item comes once, from the shard that owns it. Returns the items
/// by key.
pub(crate) fn check_shard_set<P: ShardedPartial>(
    partials: &[P],
) -> Result<BTreeMap<P::Key, &P::Item>, MergeError> {
    let first = partials.first().ok_or(MergeError::Empty)?;
    let (_, _, count) = first.header();
    let mut present = vec![false; count];
    for p in partials {
        let (schema, index, n) = p.header();
        if schema != P::SCHEMA {
            return Err(MergeError::Schema { found: schema });
        }
        for ((name, want), (_, got)) in first.params().into_iter().zip(p.params()) {
            if got != want {
                return Err(MergeError::Inconsistent(format!("{name} {got} vs {want}")));
            }
        }
        if n != count {
            return Err(MergeError::Inconsistent(format!(
                "shard count {n} vs {count}"
            )));
        }
        if index >= count {
            return Err(MergeError::Inconsistent(format!(
                "shard index {index} out of range 0..{count}"
            )));
        }
        if std::mem::replace(&mut present[index], true) {
            return Err(MergeError::DuplicateShard(index));
        }
    }
    let missing: Vec<usize> = (0..count).filter(|&i| !present[i]).collect();
    if !missing.is_empty() {
        return Err(MergeError::MissingShards(missing));
    }
    let mut items = BTreeMap::new();
    for p in partials {
        let (_, index, _) = p.header();
        for item in p.items() {
            let (key, owner, label) = P::locate(item);
            if !ShardSpec::new(index, count).owns(owner) {
                return Err(MergeError::BadPoint(format!(
                    "{label} delivered by shard {index} which does not own it"
                )));
            }
            if items.insert(key, item).is_some() {
                return Err(MergeError::BadPoint(format!("{label} delivered twice")));
            }
        }
    }
    Ok(items)
}

/// Validates a set of campaign partials and returns every sweep point of
/// the grid in canonical figure → experiment → point order. Besides the
/// shard-set check, each point must sit where the grid puts it (id and x)
/// and carry one aggregate per policy over the header's trial count:
/// [`PointStats::merge`] zips per-policy slots positionally, so a skewed
/// payload would otherwise merge silently into a wrong report.
fn validate_and_order(partials: &[ShardPartial]) -> Result<Vec<&PartialPoint>, MergeError> {
    let mut by_coord = check_shard_set(partials)?;
    let (trials, policies) = (partials[0].trials, HeuristicKind::ALL.len());
    let figures = campaign_figures();
    let mut ordered = Vec::with_capacity(by_coord.len());
    for g in grid(&figures) {
        let (id, pi, x) = (g.exp.id, g.point_index, g.point.x);
        let bad = |what: String| MergeError::BadPoint(format!("{id} point {pi} {what}"));
        let pt = (by_coord.remove(&(g.figure, g.experiment, pi)))
            .ok_or_else(|| bad("missing".into()))?;
        if pt.exp_id != id || pt.x.to_bits() != x.to_bits() {
            return Err(bad(format!(
                "arrived as {} at x = {}, expected x = {x}",
                pt.exp_id, pt.x
            )));
        }
        let (found, n) = (pt.stats.per_heur.len(), pt.stats.trials);
        if found != policies || n != trials {
            return Err(bad(format!(
                "carries {found} per-policy aggregates over {n} trials, expected {policies} over {trials}"
            )));
        }
        ordered.push(pt);
    }
    match by_coord.keys().next() {
        Some(stray) => Err(MergeError::BadPoint(format!(
            "unknown sweep point at coordinate {stray:?}"
        ))),
        None => Ok(ordered),
    }
}

/// Recombines the partials of a sharded campaign.
///
/// Validates that the partials form one complete, consistent campaign,
/// then pools the per-point statistics in the canonical figure →
/// experiment → point order. This is the campaign's one pooling loop:
/// [`Campaign::run_pooled`] (and so `summary`) is this merge over one full
/// partial, so N shards recombine bit-identically to one process.
pub fn merge_partials(partials: &[ShardPartial]) -> Result<MergedCampaign, MergeError> {
    let ordered = validate_and_order(partials)?;
    let first = &partials[0];
    Ok(MergedCampaign {
        trials: first.trials,
        seed: first.seed,
        shard_count: first.shard_count,
        pooled: (ordered.into_iter()).fold(PointStats::default(), |pooled, pt| {
            pooled.merge(pt.stats.clone())
        }),
    })
}

/// Recombines the partials of a sharded campaign into per-figure
/// [`ExperimentResult`] tables — the inputs of the Figure 7–9 renderers —
/// instead of the pooled §6.4 accumulator.
///
/// Returns one `Vec<ExperimentResult>` per figure group, in the canonical
/// fig7 → fig8 → fig9 order, after the same validation as
/// [`merge_partials`]. Every per-point statistic is the bit-exact value
/// `fig7`–`fig9` compute, so `pamr merge --figures` prints exactly what
/// those binaries print (`crates/sim/tests/shard_figures.rs` gates this).
pub fn merge_figures(partials: &[ShardPartial]) -> Result<Vec<Vec<ExperimentResult>>, MergeError> {
    let ordered = validate_and_order(partials)?;
    Ok((0..3)
        .map(|fi| figure_results(fi, ordered.iter().copied()))
        .collect())
}

/// Gathers the points of figure group `figure` (canonical order) into one
/// [`ExperimentResult`] per sub-figure.
pub(crate) fn figure_results<'a>(
    figure: usize,
    points: impl IntoIterator<Item = &'a PartialPoint>,
) -> Vec<ExperimentResult> {
    let mut results: Vec<ExperimentResult> = campaign_figures()[figure]
        .iter()
        .map(|exp| ExperimentResult {
            id: exp.id,
            points: Vec::new(),
        })
        .collect();
    for pt in points.into_iter().filter(|pt| pt.figure == figure) {
        results[pt.experiment].points.push((pt.x, pt.stats.clone()));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_partial() -> ShardPartial {
        ShardPartial::run(
            &crate::paper_mesh(),
            &crate::paper_model(),
            1,
            5,
            ShardSpec::FULL,
        )
    }

    #[test]
    fn full_partial_covers_the_whole_grid() {
        let p = tiny_partial();
        let expected: usize = campaign_figures()
            .iter()
            .flatten()
            .map(|e| e.points.len())
            .sum();
        assert_eq!(p.points.len(), expected);
        let merged = merge_partials(std::slice::from_ref(&p)).unwrap();
        assert_eq!(merged.pooled.trials, expected);
    }

    #[test]
    fn merge_rejects_broken_partial_sets() {
        let p = tiny_partial();
        assert!(matches!(merge_partials(&[]), Err(MergeError::Empty)));
        // Duplicate shard.
        let err = merge_partials(&[p.clone(), p.clone()]).unwrap_err();
        assert_eq!(err, MergeError::DuplicateShard(0));
        // Missing shard.
        let mut half = p.clone();
        half.shard_count = 2;
        let err = merge_partials(std::slice::from_ref(&half)).unwrap_err();
        assert_eq!(err, MergeError::MissingShards(vec![1]));
        // Inconsistent campaigns.
        let mut other_seed = p.clone();
        other_seed.seed ^= 1;
        other_seed.shard_index = 1;
        other_seed.shard_count = 2;
        let mut first = p.clone();
        first.shard_count = 2;
        assert!(matches!(
            merge_partials(&[first, other_seed]).unwrap_err(),
            MergeError::Inconsistent(_)
        ));
        // Tampered point ownership.
        let mut bad = p.clone();
        bad.points[0].point_index += 1;
        assert!(matches!(
            merge_partials(std::slice::from_ref(&bad)).unwrap_err(),
            MergeError::BadPoint(_)
        ));
        // Tampered per-policy payload (wrong aggregate count).
        let mut skewed = p.clone();
        skewed.points[0].stats.per_heur.pop();
        assert!(matches!(
            merge_partials(std::slice::from_ref(&skewed)).unwrap_err(),
            MergeError::BadPoint(_)
        ));
        // Per-point trial count disagreeing with the header.
        let mut short = p.clone();
        short.points[0].stats.trials += 1;
        assert!(matches!(
            merge_partials(std::slice::from_ref(&short)).unwrap_err(),
            MergeError::BadPoint(_)
        ));
        // Unknown schema.
        let mut vx = p;
        vx.schema = 99;
        assert!(matches!(
            merge_partials(std::slice::from_ref(&vx)).unwrap_err(),
            MergeError::Schema { found: 99 }
        ));
    }
}
