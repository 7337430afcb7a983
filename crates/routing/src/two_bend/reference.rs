//! The enumerate-and-price Two-bend: the differential oracle for the live
//! engine in [`crate::two_bend`].
//!
//! This is §5.3 in its most literal form: build every two-bend `Path` of
//! the communication with [`Path::two_bend`], price each of its links with
//! two [`surrogate_link_cost`] calls (a `powf` each under a discrete
//! model), and keep the first cheapest candidate. It is deliberately kept
//! independent of the live engine's in-place walk and cost ladder, so that
//! `tests/xyi_differential.rs` can pin the two against each other, and it
//! runs in the live engine's place on
//! [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).

use crate::comm::{CommSet, SortOrder};
use crate::heuristic::{surrogate_link_cost, Heuristic};
use crate::routing::Routing;
use crate::scratch::RouteScratch;
use pamr_mesh::Path;
use pamr_power::PowerModel;

/// **TB (reference)** — the enumerate-and-price Two-bend oracle.
///
/// Produces bit-identical routings to [`crate::TwoBend`] at a higher
/// per-candidate cost; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReferenceTwoBend {
    /// Processing order (mirrors [`TwoBend::order`](crate::TwoBend)).
    pub order: SortOrder,
}

impl Heuristic for ReferenceTwoBend {
    fn name(&self) -> &'static str {
        "TB"
    }

    fn route_with(&self, cs: &CommSet, model: &PowerModel, scratch: &mut RouteScratch) -> Routing {
        let mesh = cs.mesh();
        scratch.loads.fit(mesh);
        let loads = &mut scratch.loads;
        let mut paths: Vec<Option<Path>> = vec![None; cs.len()];
        for &i in &cs.by_order(self.order) {
            let c = &cs.comms()[i];
            let mut best: Option<(f64, Path)> = None;
            for cand in Path::two_bend(mesh, c.src, c.snk) {
                // Marginal surrogate cost of sending the communication down
                // this path; the untouched links cancel out, so comparing
                // marginals is the same as comparing total powers.
                let cost: f64 = cand
                    .links(mesh)
                    .map(|l| {
                        let load = loads.get(l);
                        surrogate_link_cost(model, load + c.weight)
                            - surrogate_link_cost(model, load)
                    })
                    .sum();
                if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                    best = Some((cost, cand));
                }
            }
            let (_, path) = best.expect("two_bend always yields at least one path");
            loads.add_path(mesh, &path, c.weight);
            paths[i] = Some(path);
        }
        Routing::single(cs, paths.into_iter().map(Option::unwrap).collect())
    }
}
