//! Calibration targets derived from the paper, and the scale knob.
//!
//! ## Where the numbers come from
//!
//! Figure 4's rows are mutually consistent only under the reading
//! *duration = number of snapshot days observed (k), filters strict
//! `k > d`* (see DESIGN.md §2). Under that reading the cohort algebra
//! is fully determined by the paper:
//!
//! | constraint (paper) | value |
//! |---|---|
//! | total conflicts | 38 225 |
//! | E\[k\] over all | 30.9 → Σk ≈ 1 181 k day-observations |
//! | one-time (k = 1) | 13 730, of which 11 358 on 1998-04-07 |
//! | E\[k \| k>1\] | 47.7 (consistency check: (1 181 153 − 13 730)/24 495 ≈ 47.7 ✓) |
//! | k > 9 | 10 177 conflicts, E = 107.5 → Σ ≈ 1 094 k |
//! | k > 29 / k > 89 | E = 175.3 / 281.8 |
//! | k > 300 | 1 002 conflicts; max 1246; ~1 326 ongoing at cutoff |
//!
//! Solving the bucket means gives the cohort table in
//! [`Calibration::paper`]; `moas-core` re-measures everything, and
//! `tests/paper_scale.rs` holds the measured numbers to the paper's.
//!
//! The daily baseline [`Calibration::baseline`] is piecewise-linear
//! through Figure 2's yearly medians (mid-year anchors, since the
//! median of a linear ramp over a year sits at mid-year).

use crate::window::StudyWindow;
use moas_net::{Date, DayIndex};
use moas_topology::graph::GrowthParams;
use moas_topology::prefixes::PlanParams;

/// One duration cohort of the generative model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cohort {
    /// Cohort label (used for RNG sub-streams and reports).
    pub name: &'static str,
    /// Number of conflicts (at scale 1.0).
    pub count: usize,
    /// Smallest observed duration (snapshot days).
    pub min_days: u32,
    /// Largest observed duration.
    pub max_days: u32,
    /// Target mean duration.
    pub mean_days: f64,
    /// Fraction of the cohort that is right-censored (still active at
    /// the cutoff — the paper's "ongoing" conflicts).
    pub censored_frac: f64,
    /// Fraction with an intermittent (non-contiguous) active pattern.
    pub intermittent_frac: f64,
}

/// All numeric targets of the generative model.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Background one-timers (k = 1) outside the incidents.
    pub one_timers: usize,
    /// Duration cohorts for k ≥ 2 background conflicts.
    pub cohorts: Vec<Cohort>,
    /// 1998-04-07 incident size (one-day conflicts by AS 8584).
    pub incident_1998_count: usize,
    /// 2001-04 incident: conflicts active per day offset from Apr 6.
    /// Decreasing profile; a prefix active on offset j is active on all
    /// earlier offsets (nested withdrawal of the leak).
    pub incident_2001_profile: [usize; 5],
    /// Exchange-point prefixes (all near-window-length conflicts).
    pub exchange_points: usize,
    /// Prefixes whose routes end in AS sets (excluded by §III).
    pub as_set_routes: usize,
    /// The single longest observed duration (paper: 1246 of 1279).
    pub longest_days: u32,
    /// Baseline anchors: (date, expected active conflicts).
    pub baseline_anchors: Vec<(Date, f64)>,
}

impl Calibration {
    /// The paper-scale calibration (see module docs for derivations).
    pub fn paper() -> Self {
        Calibration {
            one_timers: 1_643,
            cohorts: vec![
                Cohort {
                    name: "short",
                    count: 6_118,
                    min_days: 2,
                    max_days: 9,
                    mean_days: 6.3,
                    censored_frac: 0.0,
                    intermittent_frac: 0.05,
                },
                Cohort {
                    name: "medium",
                    count: 4_414,
                    min_days: 10,
                    max_days: 29,
                    mean_days: 19.0,
                    censored_frac: 0.01,
                    intermittent_frac: 0.12,
                },
                Cohort {
                    name: "long",
                    count: 2_706,
                    min_days: 30,
                    max_days: 89,
                    mean_days: 55.0,
                    censored_frac: 0.115,
                    intermittent_frac: 0.15,
                },
                Cohort {
                    name: "verylong",
                    count: 2_055,
                    min_days: 90,
                    max_days: 300,
                    mean_days: 165.0,
                    censored_frac: 0.225,
                    intermittent_frac: 0.15,
                },
                Cohort {
                    name: "persistent",
                    count: 972, // + 30 exchange points = 1002 with k > 300
                    min_days: 301,
                    max_days: 1_100,
                    mean_days: 500.0,
                    censored_frac: 0.50,
                    intermittent_frac: 0.10,
                },
            ],
            incident_1998_count: 11_357,
            incident_2001_profile: [8_930, 8_200, 7_300, 6_400, 5_532],
            exchange_points: 30,
            as_set_routes: 12,
            longest_days: 1_246,
            baseline_anchors: vec![
                (Date::ymd(1997, 11, 8), 600.0),
                (Date::ymd(1998, 7, 2), 683.0),
                (Date::ymd(1999, 7, 2), 810.5),
                (Date::ymd(2000, 7, 1), 951.0),
                (Date::ymd(2001, 4, 9), 1_294.0),
                (Date::ymd(2001, 8, 15), 1_448.0),
            ],
        }
    }

    /// Scales every cohort and incident by `scale` (for fast tests),
    /// keeping structure. Counts round down but stay ≥ 1 where the
    /// original was ≥ 1; the baseline is scaled linearly.
    pub fn scaled(&self, scale: f64) -> Calibration {
        if (scale - 1.0).abs() < f64::EPSILON {
            return self.clone();
        }
        let s = |n: usize| -> usize { ((n as f64 * scale).round() as usize).max(1) };
        Calibration {
            one_timers: s(self.one_timers),
            cohorts: self
                .cohorts
                .iter()
                .map(|c| Cohort {
                    count: s(c.count),
                    ..*c
                })
                .collect(),
            incident_1998_count: s(self.incident_1998_count),
            incident_2001_profile: {
                let mut p = [0usize; 5];
                for (i, v) in self.incident_2001_profile.iter().enumerate() {
                    p[i] = s(*v);
                }
                // Keep the nested (non-increasing) property after rounding.
                for i in 1..5 {
                    p[i] = p[i].min(p[i - 1]);
                }
                p
            },
            exchange_points: s(self.exchange_points),
            as_set_routes: s(self.as_set_routes),
            longest_days: self.longest_days,
            baseline_anchors: self
                .baseline_anchors
                .iter()
                .map(|(d, v)| (*d, v * scale))
                .collect(),
        }
    }

    /// The expected number of active conflicts on a day (piecewise
    /// linear through the anchors, clamped outside).
    pub fn baseline(&self, day: DayIndex) -> f64 {
        let anchors = &self.baseline_anchors;
        if anchors.is_empty() {
            return 0.0;
        }
        let x = day.0 as f64;
        let first = (anchors[0].0.day_index().0 as f64, anchors[0].1);
        if x <= first.0 {
            return first.1;
        }
        for pair in anchors.windows(2) {
            let (d0, v0) = (pair[0].0.day_index().0 as f64, pair[0].1);
            let (d1, v1) = (pair[1].0.day_index().0 as f64, pair[1].1);
            if x <= d1 {
                let t = (x - d0) / (d1 - d0).max(1.0);
                return v0 + t * (v1 - v0);
            }
        }
        anchors.last().map(|(_, v)| *v).unwrap_or(0.0)
    }

    /// Total background conflicts (everything outside the two
    /// incidents).
    pub fn background_total(&self) -> usize {
        self.one_timers + self.exchange_points + self.cohorts.iter().map(|c| c.count).sum::<usize>()
    }

    /// Total distinct conflicts including incidents — the paper's
    /// 38 225 at scale 1.0.
    pub fn grand_total(&self) -> usize {
        self.background_total() + self.incident_1998_count + self.incident_2001_profile[0]
    }
}

/// Top-level simulation parameters.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Master seed: every stream derives from it.
    pub seed: u64,
    /// Scale factor (1.0 = paper scale).
    pub scale: f64,
    /// Calibration targets (already scaled if `scale` ≠ 1).
    pub calibration: Calibration,
    /// Topology growth parameters.
    pub growth: GrowthParams,
    /// Prefix-plan parameters.
    pub plan: PlanParams,
}

impl SimParams {
    /// Paper-scale parameters with the default seed.
    pub fn paper() -> Self {
        SimParams {
            seed: 2001,
            scale: 1.0,
            calibration: Calibration::paper(),
            growth: GrowthParams::default(),
            plan: PlanParams::default(),
        }
    }

    /// A laptop-test configuration: a world shrunk by `scale`
    /// (topology, conflict counts, baseline — durations stay unscaled;
    /// they are calendar facts).
    pub fn test(scale: f64) -> Self {
        SimParams {
            seed: 2001,
            scale,
            calibration: Calibration::paper().scaled(scale),
            growth: GrowthParams::scaled(scale),
            plan: PlanParams::default(),
        }
    }

    /// Builds the study window for these parameters.
    pub fn window(&self) -> StudyWindow {
        StudyWindow::paper(&moas_net::rng::DetRng::new(self.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_totals_match() {
        let c = Calibration::paper();
        // 38 225 total conflicts (paper §IV-A).
        assert_eq!(c.grand_total(), 38_225);
        // One-timers: 11 357 (incident) + 1 643 (background) + the
        // first-day-only slice of the 2001 incident = 13 730.
        let inc2001_one_timers = c.incident_2001_profile[0] - c.incident_2001_profile[1];
        assert_eq!(
            c.incident_1998_count + c.one_timers + inc2001_one_timers,
            13_730
        );
        // k > 300 cohort: persistent + exchange points = 1 002.
        assert_eq!(c.cohorts.last().unwrap().count + c.exchange_points, 1_002);
    }

    #[test]
    fn expected_duration_mass_close_to_paper() {
        // Σk should approximate 38 225 × 30.9 ≈ 1 181 k day-observations.
        let c = Calibration::paper();
        let mut sum = 0.0;
        sum += (c.incident_1998_count + c.one_timers) as f64; // k = 1
                                                              // 2001 incident: nested profile — day j count minus day j+1
                                                              // count gives the cohort with k = j+1.
        let p = c.incident_2001_profile;
        for j in 0..5 {
            let next = if j + 1 < 5 { p[j + 1] } else { 0 };
            sum += ((p[j] - next) * (j + 1)) as f64;
        }
        for co in &c.cohorts {
            sum += co.count as f64 * co.mean_days;
        }
        sum += c.exchange_points as f64 * 1_200.0; // near-window XPs
        let target = 38_225.0 * 30.9;
        let err = (sum - target).abs() / target;
        assert!(err < 0.05, "duration mass off by {:.1}%", err * 100.0);
    }

    #[test]
    fn baseline_hits_anchor_values() {
        let c = Calibration::paper();
        assert!((c.baseline(Date::ymd(1998, 7, 2).day_index()) - 683.0).abs() < 1.0);
        assert!((c.baseline(Date::ymd(2000, 7, 1).day_index()) - 951.0).abs() < 1.0);
        // Interpolation between anchors is monotone here.
        let a = c.baseline(Date::ymd(1999, 1, 1).day_index());
        assert!(683.0 < a && a < 810.5, "got {a}");
        // Clamps outside.
        assert_eq!(c.baseline(Date::ymd(1990, 1, 1).day_index()), 600.0);
        assert_eq!(c.baseline(Date::ymd(2005, 1, 1).day_index()), 1_448.0);
    }

    #[test]
    fn scaling_preserves_structure() {
        let c = Calibration::paper().scaled(0.01);
        assert!(c.grand_total() < 600);
        assert!(c.cohorts.iter().all(|co| co.count >= 1));
        // Nested incident profile preserved.
        for i in 1..5 {
            assert!(c.incident_2001_profile[i] <= c.incident_2001_profile[i - 1]);
        }
        // Baseline scaled too.
        assert!(c.baseline(Date::ymd(2000, 7, 1).day_index()) < 12.0);
    }

    #[test]
    fn scale_one_is_identity() {
        let a = Calibration::paper();
        let b = a.scaled(1.0);
        assert_eq!(a.grand_total(), b.grand_total());
        assert_eq!(a.cohorts, b.cohorts);
    }

    #[test]
    fn params_window_is_paper_window() {
        let p = SimParams::paper();
        let w = p.window();
        assert_eq!(w.core_len(), 1_279);
    }
}
