//! The power model: static + dynamic link power under frequency scaling.

use pamr_mesh::LoadMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Relative slack tolerated on capacity checks, to absorb floating-point
/// accumulation when many fractional flows sum to exactly the capacity.
pub const CAPACITY_EPS: f64 = 1e-6;

/// How link frequency (effective bandwidth) can be chosen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FrequencyScale {
    /// `f · BW` can match the load exactly (the paper's theoretical model).
    Continuous,
    /// Only the given effective-bandwidth levels exist (sorted ascending,
    /// same unit as the loads). The smallest level ≥ load is selected.
    Discrete(Vec<f64>),
}

impl FrequencyScale {
    /// Effective bandwidth needed to carry `load`, or `None` if no level can.
    ///
    /// `capacity` is the largest admissible load (`BW`); the continuous
    /// model refuses loads above it, the discrete model refuses loads above
    /// its top level.
    pub fn effective_bandwidth(&self, load: f64, capacity: f64) -> Option<f64> {
        debug_assert!(load >= 0.0);
        if load == 0.0 {
            return Some(0.0);
        }
        let slack = capacity * CAPACITY_EPS;
        match self {
            FrequencyScale::Continuous => (load <= capacity + slack).then_some(load.min(capacity)),
            FrequencyScale::Discrete(levels) => {
                levels.iter().copied().find(|&lv| load <= lv + slack)
            }
        }
    }
}

/// Error returned when a link load exceeds every available frequency level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Infeasible;

impl fmt::Display for Infeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link load exceeds the maximum link bandwidth")
    }
}

impl std::error::Error for Infeasible {}

/// Static/dynamic decomposition of a routing's total power.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// Total leakage power: `P_leak ×` number of active links.
    pub leakage: f64,
    /// Total dynamic power: `Σ P_0 · (f·BW)^α` over active links.
    pub dynamic: f64,
    /// Number of links carrying traffic.
    pub active_links: usize,
}

impl PowerBreakdown {
    /// Total power, leakage + dynamic.
    #[inline]
    pub fn total(&self) -> f64 {
        self.leakage + self.dynamic
    }

    /// Fraction of total power that is static (§6.4 reports ≈ 1/7 for the
    /// paper's campaign). Zero when no link is active.
    pub fn static_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.leakage / t
        }
    }
}

/// The paper's link power model (Section 3.1).
///
/// `P(link) = P_leak + P_0 · b^α` for an active link whose chosen effective
/// bandwidth is `b` (expressed in power units: `b = load · load_unit`), and
/// `P = 0` for an inactive link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Leakage (static) power of an active link.
    pub p_leak: f64,
    /// Dynamic power coefficient `P_0`.
    pub p0: f64,
    /// Dynamic power exponent `α ∈ (2, 3]`.
    pub alpha: f64,
    /// Maximum link bandwidth `BW`, in load units.
    pub capacity: f64,
    /// Frequency scaling mode.
    pub scale: FrequencyScale,
    /// Conversion from load units to the unit the power fit expects
    /// (the Kim–Horowitz model is fitted in Gb/s but the campaign's weights
    /// are Mb/s, so `load_unit = 1e-3` there; `1.0` for abstract units).
    pub load_unit: f64,
}

impl PowerModel {
    /// Continuous-frequency model in abstract units.
    pub fn continuous(p_leak: f64, p0: f64, alpha: f64, capacity: f64) -> Self {
        assert!(
            alpha > 1.0,
            "the model needs a strictly convex dynamic term"
        );
        PowerModel {
            p_leak,
            p0,
            alpha,
            capacity,
            scale: FrequencyScale::Continuous,
            load_unit: 1.0,
        }
    }

    /// The theoretical-analysis model of Section 4: `P_leak = 0`, `P_0 = 1`,
    /// unbounded capacity (pure load-balancing objective).
    pub fn theory(alpha: f64) -> Self {
        PowerModel::continuous(0.0, 1.0, alpha, f64::INFINITY)
    }

    /// The Figure 2 toy model: `P_leak = 0`, `P_0 = 1`, `α = 3`, `BW = 4`.
    pub fn fig2() -> Self {
        PowerModel::continuous(0.0, 1.0, 3.0, 4.0)
    }

    /// The simulation model of Section 6, fitted to Kim & Horowitz (the paper's reference 7):
    /// `P_leak = 16.9 mW`, `P_0 = 5.41`, `α = 2.95`, discrete link
    /// frequencies {1, 2.5, 3.5} Gb/s. Loads are in **Mb/s** (the unit used
    /// for all communication weights in the campaign), powers in mW.
    pub fn kim_horowitz() -> Self {
        PowerModel {
            p_leak: 16.9,
            p0: 5.41,
            alpha: 2.95,
            capacity: 3500.0,
            scale: FrequencyScale::Discrete(vec![1000.0, 2500.0, 3500.0]),
            load_unit: 1e-3,
        }
    }

    /// Continuous variant of [`PowerModel::kim_horowitz`] (same constants,
    /// exact frequency matching) — used by ablation benches.
    pub fn kim_horowitz_continuous() -> Self {
        PowerModel {
            scale: FrequencyScale::Continuous,
            ..PowerModel::kim_horowitz()
        }
    }

    /// True iff a single link can legally carry `load`.
    pub fn is_feasible(&self, load: f64) -> bool {
        self.scale
            .effective_bandwidth(load, self.capacity)
            .is_some()
    }

    /// The effective bandwidth (in load units) the link must run at to carry
    /// `load`, or `None` if infeasible. Zero loads need no bandwidth.
    pub fn effective_bandwidth(&self, load: f64) -> Option<f64> {
        self.scale.effective_bandwidth(load, self.capacity)
    }

    /// Power of one link carrying `load`; `Err(Infeasible)` if the load
    /// exceeds the maximum bandwidth. An idle link consumes nothing.
    pub fn link_power(&self, load: f64) -> Result<f64, Infeasible> {
        if load == 0.0 {
            return Ok(0.0);
        }
        let b = self.effective_bandwidth(load).ok_or(Infeasible)?;
        Ok(self.p_leak + self.p0 * (b * self.load_unit).powf(self.alpha))
    }

    /// Dynamic part only of [`PowerModel::link_power`].
    pub fn link_dynamic_power(&self, load: f64) -> Result<f64, Infeasible> {
        if load == 0.0 {
            return Ok(0.0);
        }
        let b = self.effective_bandwidth(load).ok_or(Infeasible)?;
        Ok(self.p0 * (b * self.load_unit).powf(self.alpha))
    }

    /// Total power of a whole load map, with its static/dynamic breakdown.
    pub fn power(&self, loads: &LoadMap) -> Result<PowerBreakdown, Infeasible> {
        let mut out = PowerBreakdown::default();
        for (_, load) in loads.iter_active() {
            out.dynamic += self.link_dynamic_power(load)?;
            out.leakage += self.p_leak;
            out.active_links += 1;
        }
        Ok(out)
    }

    /// Convenience: total power or `Err` if any link is overloaded.
    pub fn total_power(&self, loads: &LoadMap) -> Result<f64, Infeasible> {
        Ok(self.power(loads)?.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamr_mesh::{Coord, Mesh, Path, Step};

    #[test]
    fn idle_link_consumes_nothing() {
        let m = PowerModel::kim_horowitz();
        assert_eq!(m.link_power(0.0).unwrap(), 0.0);
        assert_eq!(m.link_dynamic_power(0.0).unwrap(), 0.0);
    }

    #[test]
    fn continuous_matches_formula() {
        let m = PowerModel::continuous(2.0, 3.0, 3.0, 10.0);
        // P = 2 + 3·4³ = 194.
        assert!((m.link_power(4.0).unwrap() - 194.0).abs() < 1e-12);
        assert!((m.link_dynamic_power(4.0).unwrap() - 192.0).abs() < 1e-12);
        assert!(m.link_power(10.0).is_ok());
        assert!(m.link_power(10.1).is_err());
    }

    #[test]
    fn discrete_rounds_up_to_next_level() {
        let m = PowerModel::kim_horowitz();
        assert_eq!(m.effective_bandwidth(1.0), Some(1000.0));
        assert_eq!(m.effective_bandwidth(1000.0), Some(1000.0));
        assert_eq!(m.effective_bandwidth(1000.1), Some(2500.0));
        assert_eq!(m.effective_bandwidth(2500.0), Some(2500.0));
        assert_eq!(m.effective_bandwidth(3499.0), Some(3500.0));
        assert_eq!(m.effective_bandwidth(3500.0), Some(3500.0));
        assert_eq!(m.effective_bandwidth(3600.0), None);
        assert!(!m.is_feasible(3600.0));
    }

    #[test]
    fn kim_horowitz_power_magnitudes() {
        // P(1 Gb/s) = 16.9 + 5.41·1^2.95 = 22.31 mW.
        let m = PowerModel::kim_horowitz();
        let p1 = m.link_power(500.0).unwrap(); // rounds up to 1 Gb/s
        assert!((p1 - (16.9 + 5.41)).abs() < 1e-9, "p1 = {p1}");
        // P(3.5 Gb/s) = 16.9 + 5.41·3.5^2.95 ≈ 235.7 mW.
        let p35 = m.link_power(3500.0).unwrap();
        let expected = 16.9 + 5.41 * 3.5f64.powf(2.95);
        assert!((p35 - expected).abs() < 1e-9);
        assert!(p35 > 200.0 && p35 < 260.0);
    }

    #[test]
    fn paper_fig2_xy_power() {
        // Fig. 2(a): both communications (sizes 1 and 3) share the same two
        // XY links; each link carries 4 = BW → P = 2 · 4³ = 128.
        let model = PowerModel::fig2();
        let mesh = Mesh::new(2, 2);
        let mut loads = LoadMap::new(&mesh);
        let xy = Path::xy(Coord::new(0, 0), Coord::new(1, 1));
        loads.add_path(&mesh, &xy, 1.0);
        loads.add_path(&mesh, &xy, 3.0);
        let p = model.power(&loads).unwrap();
        assert!((p.total() - 128.0).abs() < 1e-9);
        assert_eq!(p.active_links, 2);
        assert_eq!(p.leakage, 0.0);
    }

    #[test]
    fn paper_fig2_1mp_and_2mp_powers() {
        let model = PowerModel::fig2();
        let mesh = Mesh::new(2, 2);
        let src = Coord::new(0, 0);
        let snk = Coord::new(1, 1);
        // 1-MP: γ1 on XY, γ2 on YX → 2·(1³ + 3³) = 56.
        let mut loads = LoadMap::new(&mesh);
        loads.add_path(&mesh, &Path::xy(src, snk), 1.0);
        loads.add_path(&mesh, &Path::yx(src, snk), 3.0);
        assert!((model.total_power(&loads).unwrap() - 56.0).abs() < 1e-9);
        // 2-MP: split γ2 = 1 + 2 → every link carries 2 → 4·2³ = 32.
        let mut loads = LoadMap::new(&mesh);
        loads.add_path(&mesh, &Path::xy(src, snk), 1.0);
        loads.add_path(&mesh, &Path::xy(src, snk), 1.0);
        loads.add_path(&mesh, &Path::yx(src, snk), 2.0);
        assert!((model.total_power(&loads).unwrap() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn overload_detected_via_loadmap() {
        let model = PowerModel::fig2(); // BW = 4
        let mesh = Mesh::new(2, 2);
        let mut loads = LoadMap::new(&mesh);
        let l = mesh.link_id(Coord::new(0, 0), Step::Right).unwrap();
        loads.add(l, 4.5);
        assert!(model.power(&loads).is_err());
    }

    #[test]
    fn static_fraction() {
        let mut b = PowerBreakdown {
            leakage: 1.0,
            dynamic: 6.0,
            active_links: 3,
        };
        assert!((b.static_fraction() - 1.0 / 7.0).abs() < 1e-12);
        b.leakage = 0.0;
        b.dynamic = 0.0;
        assert_eq!(b.static_fraction(), 0.0);
    }

    #[test]
    fn capacity_eps_tolerates_float_accumulation() {
        let m = PowerModel::continuous(0.0, 1.0, 3.0, 1.0);
        // A load epsilon above capacity from floating-point accumulation.
        let load = 1.0 + 1e-9;
        assert!(load > 1.0);
        assert!(m.is_feasible(load));
        // effective bandwidth is clamped back to capacity.
        assert!(m.effective_bandwidth(load).unwrap() <= 1.0);
    }

    #[test]
    fn theory_model_unbounded() {
        let m = PowerModel::theory(3.0);
        assert!(m.is_feasible(1e12));
        assert_eq!(m.link_power(2.0).unwrap(), 8.0);
    }

    #[test]
    #[should_panic]
    fn non_convex_alpha_rejected() {
        let _ = PowerModel::continuous(0.0, 1.0, 0.5, 1.0);
    }
}
