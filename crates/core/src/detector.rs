//! Invalid-conflict identification — the paper's §VII future work.
//!
//! Two mechanisms, both descendants of what later shipped in systems
//! like PHAS, ARTEMIS and BGPalerter:
//!
//! * [`OriginProfiler`] — learns how many prefixes each AS normally
//!   originates (exponentially weighted) and raises an
//!   [`Anomaly::OriginSurge`] when an AS suddenly originates far more
//!   (the AS 8584 and AS 15412 signatures: "AS 15412 normally
//!   originates only 5 prefixes; on April 6th it suddenly originated
//!   thousands").
//! * [`MoasMonitor`] — tracks the stable origin set per prefix and
//!   raises [`Anomaly::NewOrigin`] when a previously unseen origin
//!   appears, unless allow-listed (operator-confirmed multi-homing).
//!
//! The detector sees only routing data; ground truth is used solely by
//! the evaluation harness to score it.

use crate::detect::DayObservation;
use moas_net::{Asn, Date, Prefix};
use serde::Serialize;
use std::collections::{HashMap, HashSet};

/// An alarm raised by the detector.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Anomaly {
    /// An AS originated far more conflicted prefixes than its profile.
    OriginSurge {
        /// The surging AS.
        asn: Asn,
        /// Conflicted prefixes it originated today.
        today: u32,
        /// Its smoothed historical involvement.
        baseline: f64,
        /// The day.
        date: Date,
    },
    /// A prefix gained an origin never seen before.
    NewOrigin {
        /// The prefix.
        prefix: Prefix,
        /// The new origin.
        origin: Asn,
        /// The day.
        date: Date,
    },
}

/// Configuration for the origin profiler.
#[derive(Debug, Clone, Copy)]
pub struct ProfilerConfig {
    /// EWMA smoothing factor for the per-AS baseline.
    pub alpha: f64,
    /// Multiplicative surge threshold over the baseline.
    pub surge_factor: f64,
    /// Absolute minimum involvement to consider a surge (suppresses
    /// noise from tiny counts).
    pub min_count: u32,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            alpha: 0.1,
            surge_factor: 10.0,
            min_count: 20,
        }
    }
}

/// One EWMA smoothing step: `(1 - alpha) * baseline + alpha * value`.
/// The update shared by the per-AS profiler and [`EwmaSurge`].
pub fn ewma_step(baseline: f64, alpha: f64, value: f64) -> f64 {
    (1.0 - alpha) * baseline + alpha * value
}

/// The §VII surge test shared by the per-AS profiler and
/// [`EwmaSurge`]: `value` breaches when it exceeds
/// `max(baseline, 1) * surge_factor`. The `max(…, 1)` floor keeps a
/// near-zero baseline from flagging every small uptick.
pub fn surge_breach(baseline: f64, value: f64, surge_factor: f64) -> bool {
    value > baseline.max(1.0) * surge_factor
}

/// Configuration for a scalar [`EwmaSurge`] detector.
#[derive(Debug, Clone, Copy)]
pub struct SurgeConfig {
    /// EWMA smoothing factor for the baseline.
    pub alpha: f64,
    /// Multiplicative surge threshold over the baseline.
    pub surge_factor: f64,
    /// Absolute minimum value to consider a surge (suppresses noise
    /// from tiny values — the scalar analogue of
    /// [`ProfilerConfig::min_count`]).
    pub min_value: f64,
}

impl Default for SurgeConfig {
    fn default() -> Self {
        SurgeConfig {
            alpha: 0.1,
            surge_factor: 10.0,
            min_value: 20.0,
        }
    }
}

/// The paper's §VII EWMA surge detector over a single scalar series —
/// exactly the [`OriginProfiler`] machinery (test-before-update
/// against `max(baseline, 1) * surge_factor`, first observation
/// priming the baseline at `alpha * value`) with the per-AS map
/// replaced by one baseline. This is what the operational alerting
/// layer runs over its own metrics: a feed-lag spike or ingest-rate
/// collapse is the same statistical object as an origin surge.
#[derive(Debug, Clone)]
pub struct EwmaSurge {
    config: SurgeConfig,
    baseline: Option<f64>,
}

impl EwmaSurge {
    /// A detector with no baseline yet (first observation primes it).
    pub fn new(config: SurgeConfig) -> Self {
        EwmaSurge {
            config,
            baseline: None,
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &SurgeConfig {
        &self.config
    }

    /// The smoothed baseline (0 until primed).
    pub fn baseline(&self) -> f64 {
        self.baseline.unwrap_or(0.0)
    }

    /// Whether `value` breaches right now, *without* advancing the
    /// baseline — the hysteresis hook: an alert engine freezes the
    /// baseline while a rule is pending/firing so an ongoing anomaly
    /// cannot absorb itself into normality.
    pub fn breach(&self, value: f64) -> bool {
        value >= self.config.min_value
            && surge_breach(self.baseline(), value, self.config.surge_factor)
    }

    /// Advances the baseline one EWMA step (priming it on the first
    /// call, mirroring the profiler's `or_insert(alpha * count)`).
    pub fn advance(&mut self, value: f64) {
        self.baseline = Some(match self.baseline {
            Some(b) => ewma_step(b, self.config.alpha, value),
            None => self.config.alpha * value,
        });
    }

    /// Tests then advances — the profiler's test-before-update order,
    /// so a surge does not immediately absorb itself.
    pub fn observe(&mut self, value: f64) -> bool {
        let breach = self.breach(value);
        self.advance(value);
        breach
    }
}

/// Learns per-AS conflict-involvement baselines and flags surges.
#[derive(Debug, Clone)]
pub struct OriginProfiler {
    config: ProfilerConfig,
    baseline: HashMap<Asn, f64>,
}

impl OriginProfiler {
    /// Creates a profiler.
    pub fn new(config: ProfilerConfig) -> Self {
        OriginProfiler {
            config,
            baseline: HashMap::new(),
        }
    }

    /// Feeds one day's observation; returns any surge anomalies.
    /// The baseline is updated *after* testing, so a surge does not
    /// immediately absorb itself.
    pub fn observe(&mut self, obs: &DayObservation) -> Vec<Anomaly> {
        let date = obs.date.unwrap_or(Date::ymd(1970, 1, 1));
        let today = crate::causes::involvement_by_origin(obs);
        self.observe_counts(date, &today)
    }

    /// Feeds one day's per-AS involvement counts directly — the entry
    /// point for sharded pipelines that merge per-shard involvement
    /// (integer sums, so cross-shard aggregation is exact) before the
    /// profiler sees the day. [`OriginProfiler::observe`] is this with
    /// the counts derived from a full [`DayObservation`].
    pub fn observe_counts(&mut self, date: Date, today: &HashMap<Asn, u32>) -> Vec<Anomaly> {
        let mut anomalies = Vec::new();
        for (&asn, &count) in today {
            let base = self.baseline.get(&asn).copied().unwrap_or(0.0);
            if count >= self.config.min_count
                && surge_breach(base, count as f64, self.config.surge_factor)
            {
                anomalies.push(Anomaly::OriginSurge {
                    asn,
                    today: count,
                    baseline: base,
                    date,
                });
            }
        }
        // EWMA update (ASes absent today decay toward zero).
        let alpha = self.config.alpha;
        for (asn, base) in self.baseline.iter_mut() {
            let today_count = today.get(asn).copied().unwrap_or(0) as f64;
            *base = ewma_step(*base, alpha, today_count);
        }
        for (&asn, &count) in today {
            self.baseline.entry(asn).or_insert(alpha * count as f64);
        }
        anomalies.sort_by_key(|a| match a {
            Anomaly::OriginSurge { today, asn, .. } => (std::cmp::Reverse(*today), asn.value()),
            _ => (std::cmp::Reverse(0), 0),
        });
        anomalies
    }

    /// Current baseline for an AS.
    pub fn baseline_of(&self, asn: Asn) -> f64 {
        self.baseline.get(&asn).copied().unwrap_or(0.0)
    }
}

/// Tracks stable origin sets per prefix and flags new origins.
#[derive(Debug, Clone, Default)]
pub struct MoasMonitor {
    /// Known (accepted) origins per prefix.
    known: HashMap<Prefix, HashSet<Asn>>,
    /// Operator allowlist: (prefix, origin) pairs never alarmed.
    allowlist: HashSet<(Prefix, Asn)>,
    /// Days a prefix must keep an origin before it is auto-accepted.
    accept_after: u32,
    /// Pending origins: (prefix, origin) → consecutive days seen.
    pending: HashMap<(Prefix, Asn), u32>,
}

impl MoasMonitor {
    /// Creates a monitor that auto-accepts an origin after it persists
    /// `accept_after` days (0 = first sighting is immediately known —
    /// alarms still fire on that first day).
    pub fn new(accept_after: u32) -> Self {
        MoasMonitor {
            accept_after,
            ..MoasMonitor::default()
        }
    }

    /// Adds an allowlist entry (operator-confirmed multi-homing).
    pub fn allow(&mut self, prefix: Prefix, origin: Asn) {
        self.allowlist.insert((prefix, origin));
    }

    /// Feeds one day's observation; returns new-origin alarms.
    pub fn observe(&mut self, obs: &DayObservation) -> Vec<Anomaly> {
        let date = obs.date.unwrap_or(Date::ymd(1970, 1, 1));
        let mut alarms = Vec::new();
        for c in &obs.conflicts {
            let known = self.known.entry(c.prefix).or_default();
            for &origin in &c.origins {
                if known.contains(&origin) || self.allowlist.contains(&(c.prefix, origin)) {
                    continue;
                }
                let days = self.pending.entry((c.prefix, origin)).or_insert(0);
                if *days == 0 {
                    alarms.push(Anomaly::NewOrigin {
                        prefix: c.prefix,
                        origin,
                        date,
                    });
                }
                *days += 1;
                if *days > self.accept_after {
                    known.insert(origin);
                    self.pending.remove(&(c.prefix, origin));
                }
            }
        }
        alarms
    }

    /// Number of (prefix, origin) pairs accepted as stable.
    pub fn known_pairs(&self) -> usize {
        self.known.values().map(HashSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::PrefixConflict;
    use moas_net::AsPath;

    fn obs(date: Date, conflicts: &[(&str, &[u32])]) -> DayObservation {
        let conflicts = conflicts
            .iter()
            .map(|(p, origins)| {
                let paths: Vec<(u16, AsPath)> = origins
                    .iter()
                    .enumerate()
                    .map(|(i, o)| (i as u16, format!("{} {o}", 100 + i).parse().unwrap()))
                    .collect();
                PrefixConflict {
                    prefix: p.parse().unwrap(),
                    origins: origins.iter().map(|&o| Asn::new(o)).collect(),
                    paths,
                }
            })
            .collect();
        DayObservation {
            date: Some(date),
            conflicts,
            as_set_prefixes: vec![],
            total_prefixes: 0,
            empty_path_routes: 0,
            total_routes: 0,
        }
    }

    fn mass_fault_day(date: Date, faulty: u32, n: usize) -> DayObservation {
        let conflicts: Vec<(String, Vec<u32>)> = (0..n)
            .map(|i| {
                (
                    format!("10.{}.{}.0/24", i / 256, i % 256),
                    vec![faulty, 1000 + i as u32],
                )
            })
            .collect();
        let borrowed: Vec<(&str, &[u32])> = conflicts
            .iter()
            .map(|(p, o)| (p.as_str(), o.as_slice()))
            .collect();
        obs(date, &borrowed)
    }

    #[test]
    fn profiler_flags_mass_fault() {
        let mut prof = OriginProfiler::new(ProfilerConfig::default());
        // Quiet days: AS 8584 involved in 2 conflicts.
        for day in 0..10 {
            let o = obs(
                Date::ymd(1998, 3, 1).plus_days(day),
                &[("10.0.0.0/24", &[8584, 7]), ("10.0.1.0/24", &[8584, 9])],
            );
            let alarms = prof.observe(&o);
            assert!(alarms.is_empty(), "quiet day {day} alarmed: {alarms:?}");
        }
        // The spike: 500 conflicts involving 8584.
        let spike = mass_fault_day(Date::ymd(1998, 4, 7), 8584, 500);
        let alarms = prof.observe(&spike);
        assert!(alarms.iter().any(|a| matches!(
            a,
            Anomaly::OriginSurge { asn, .. } if *asn == Asn::new(8584)
        )));
        // The victim origins (each involved once) must NOT alarm.
        assert!(alarms.iter().all(|a| match a {
            Anomaly::OriginSurge { asn, .. } => *asn == Asn::new(8584),
            _ => true,
        }));
    }

    #[test]
    fn profiler_ignores_cold_start_small_counts() {
        let mut prof = OriginProfiler::new(ProfilerConfig::default());
        let o = obs(Date::ymd(1998, 1, 1), &[("10.0.0.0/24", &[5, 7])]);
        assert!(prof.observe(&o).is_empty(), "min_count must suppress");
    }

    #[test]
    fn profiler_baseline_learns_and_decays() {
        let mut prof = OriginProfiler::new(ProfilerConfig {
            alpha: 0.5,
            ..ProfilerConfig::default()
        });
        let o = obs(Date::ymd(1998, 1, 1), &[("10.0.0.0/24", &[5, 7])]);
        prof.observe(&o);
        let b1 = prof.baseline_of(Asn::new(5));
        assert!(b1 > 0.0);
        // A day without AS 5 decays its baseline.
        let quiet = obs(Date::ymd(1998, 1, 2), &[("10.0.1.0/24", &[8, 9])]);
        prof.observe(&quiet);
        assert!(prof.baseline_of(Asn::new(5)) < b1);
    }

    #[test]
    fn repeated_surge_absorbs_into_baseline() {
        // A persistent high level stops alarming once learned.
        let mut prof = OriginProfiler::new(ProfilerConfig {
            alpha: 0.5,
            surge_factor: 5.0,
            min_count: 10,
        });
        let mut alarm_days = 0;
        for day in 0..10 {
            let spike = mass_fault_day(Date::ymd(1998, 1, 1).plus_days(day), 8584, 100);
            if !prof.observe(&spike).is_empty() {
                alarm_days += 1;
            }
        }
        assert!(alarm_days <= 3, "alarmed {alarm_days} days; should absorb");
    }

    #[test]
    fn monitor_alarms_once_per_new_origin() {
        let mut mon = MoasMonitor::new(2);
        let day1 = obs(Date::ymd(2001, 4, 6), &[("192.0.2.0/24", &[7, 15412])]);
        let alarms1 = mon.observe(&day1);
        assert_eq!(alarms1.len(), 2, "both origins are new on day 1");
        let day2 = obs(Date::ymd(2001, 4, 7), &[("192.0.2.0/24", &[7, 15412])]);
        assert!(mon.observe(&day2).is_empty(), "no repeat alarms");
    }

    #[test]
    fn monitor_accepts_persistent_origins() {
        let mut mon = MoasMonitor::new(2);
        for day in 0..4 {
            let o = obs(
                Date::ymd(2001, 1, 1).plus_days(day),
                &[("192.0.2.0/24", &[7, 9])],
            );
            mon.observe(&o);
        }
        assert_eq!(mon.known_pairs(), 2);
        // Re-appearance after acceptance: silent.
        let again = obs(Date::ymd(2001, 2, 1), &[("192.0.2.0/24", &[7, 9])]);
        assert!(mon.observe(&again).is_empty());
    }

    /// The scalar detector must be the profiler's machinery exactly:
    /// feeding one AS's counts through both yields identical breach
    /// decisions and baselines.
    #[test]
    fn ewma_surge_matches_profiler_on_one_series() {
        let cfg = ProfilerConfig::default();
        let mut profiler = OriginProfiler::new(cfg);
        let mut scalar = EwmaSurge::new(SurgeConfig {
            alpha: cfg.alpha,
            surge_factor: cfg.surge_factor,
            min_value: cfg.min_count as f64,
        });
        let asn = Asn::new(42);
        for (day, count) in [5u32, 6, 5, 400, 7, 5].iter().enumerate() {
            let mut today = HashMap::new();
            today.insert(asn, *count);
            let date = Date::ymd(2001, 1, 1).plus_days(day as i64);
            let profiler_alarm = !profiler.observe_counts(date, &today).is_empty();
            let scalar_alarm = scalar.observe(*count as f64);
            assert_eq!(
                profiler_alarm, scalar_alarm,
                "day {day} count {count}: breach decisions must agree"
            );
            let diff = (profiler.baseline_of(asn) - scalar.baseline()).abs();
            assert!(diff < 1e-12, "baselines must track exactly, diff {diff}");
        }
    }

    /// Frozen-baseline hysteresis: `breach` alone never advances, so a
    /// sustained anomaly cannot absorb itself (unlike `observe`, which
    /// keeps the profiler's absorb-into-baseline behavior).
    #[test]
    fn ewma_surge_breach_does_not_advance() {
        let mut s = EwmaSurge::new(SurgeConfig::default());
        for _ in 0..5 {
            s.observe(5.0);
        }
        let base = s.baseline();
        for _ in 0..50 {
            assert!(s.breach(400.0), "frozen baseline keeps breaching");
        }
        assert_eq!(s.baseline(), base, "breach() must not move the baseline");
        // observe() absorbs, eventually un-breaching — the profiler's
        // repeated_surge_absorbs_into_baseline behavior.
        let mut absorbed = s.clone();
        for _ in 0..50 {
            absorbed.observe(400.0);
        }
        assert!(!absorbed.breach(400.0), "observe() absorbs the surge");
    }

    #[test]
    fn surge_breach_floors_a_small_baseline_at_one() {
        // Baseline 0.5 with factor 10: the threshold is 1 × 10, not 5.
        assert!(!surge_breach(0.5, 6.0, 10.0));
        assert!(!surge_breach(0.5, 10.0, 10.0));
        assert!(surge_breach(0.5, 10.5, 10.0));
    }

    #[test]
    fn monitor_respects_allowlist() {
        let mut mon = MoasMonitor::new(5);
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        mon.allow(p, Asn::new(9));
        let o = obs(Date::ymd(2001, 1, 1), &[("192.0.2.0/24", &[7, 9])]);
        let alarms = mon.observe(&o);
        assert_eq!(alarms.len(), 1);
        assert!(matches!(
            &alarms[0],
            Anomaly::NewOrigin { origin, .. } if *origin == Asn::new(7)
        ));
    }
}
