//! Accumulation of daily observations across the study window.
//!
//! The timeline is the bridge from per-day detection to the paper's
//! longitudinal statistics: per-prefix observed-day counts (§IV-B
//! durations count days in existence, continuous or not, same ASes or
//! not), daily conflict counts (Fig. 1), and daily class/mask-length
//! histograms (Figs. 5 and 6).

use crate::classify::classify;
use crate::detect::DayObservation;
use moas_net::{Asn, Date, Prefix};
use serde::Serialize;
use std::collections::HashMap;

/// Per-day aggregates.
#[derive(Debug, Clone, Serialize)]
pub struct DailyStats {
    /// The snapshot date.
    pub date: Date,
    /// Number of MOAS conflicts observed.
    pub conflict_count: u32,
    /// Conflicts per §V class (indexed by
    /// [`ConflictClass::index`](crate::classify::ConflictClass::index)).
    pub class_counts: [u32; 4],
    /// Conflicts per prefix length (index = mask length 0–32; IPv6
    /// lengths > 32 are clamped into the last bucket for this v4-era
    /// reproduction).
    pub masklen_counts: Vec<u32>,
    /// Prefixes excluded for AS-set origins.
    pub as_set_count: u32,
    /// Distinct prefixes in the table that day.
    pub total_prefixes: u32,
    /// Total routes scanned.
    pub total_routes: u64,
}

/// Longitudinal record for one conflicted prefix.
#[derive(Debug, Clone, Serialize)]
pub struct PrefixRecord {
    /// Days observed in conflict within the core window — the paper's
    /// duration.
    pub core_days: u32,
    /// Days observed including the extension window.
    pub total_days: u32,
    /// First snapshot index observed.
    pub first_idx: u32,
    /// Last snapshot index observed.
    pub last_idx: u32,
    /// Union of conflicting origins over the whole window.
    pub origins: Vec<Asn>,
    /// Prefix length.
    pub masklen: u8,
}

/// The accumulated analysis over a study window.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The snapshot dates, by position.
    dates: Vec<Date>,
    /// Number of core (≤ cutoff) snapshot days.
    core_len: usize,
    /// Per-day stats, by position (`None` = not yet recorded).
    daily: Vec<Option<DailyStats>>,
    /// Per-prefix longitudinal records.
    prefixes: HashMap<Prefix, PrefixRecord>,
}

impl Timeline {
    /// Creates an empty timeline for a window described by its
    /// snapshot dates and core length.
    pub fn new(dates: Vec<Date>, core_len: usize) -> Self {
        assert!(core_len <= dates.len());
        Timeline {
            daily: vec![None; dates.len()],
            dates,
            core_len,
            prefixes: HashMap::new(),
        }
    }

    /// Number of core snapshot days.
    pub fn core_len(&self) -> usize {
        self.core_len
    }

    /// All snapshot dates.
    pub fn dates(&self) -> &[Date] {
        &self.dates
    }

    /// Records one day's observation at snapshot position `idx`.
    /// Recording the same position twice replaces the daily stats but
    /// would double-count durations — callers drive each day once.
    pub fn record(&mut self, idx: usize, obs: &DayObservation) {
        assert!(idx < self.dates.len(), "index {idx} out of window");
        let core = idx < self.core_len;
        let mut stats = DailyStats {
            date: self.dates[idx],
            conflict_count: obs.conflicts.len() as u32,
            class_counts: [0; 4],
            masklen_counts: vec![0; 33],
            as_set_count: obs.as_set_prefixes.len() as u32,
            total_prefixes: obs.total_prefixes as u32,
            total_routes: obs.total_routes as u64,
        };
        for c in &obs.conflicts {
            let class = classify(c);
            stats.class_counts[class.index()] += 1;
            stats.masklen_counts[c.prefix.len().min(32) as usize] += 1;

            let rec = self
                .prefixes
                .entry(c.prefix)
                .or_insert_with(|| PrefixRecord {
                    core_days: 0,
                    total_days: 0,
                    first_idx: idx as u32,
                    last_idx: idx as u32,
                    origins: Vec::new(),
                    masklen: c.prefix.len(),
                });
            rec.total_days += 1;
            if core {
                rec.core_days += 1;
            }
            rec.first_idx = rec.first_idx.min(idx as u32);
            rec.last_idx = rec.last_idx.max(idx as u32);
            for o in &c.origins {
                if !rec.origins.contains(o) {
                    rec.origins.push(*o);
                }
            }
        }
        self.daily[idx] = Some(stats);
    }

    /// Merges another timeline (built over disjoint day positions of
    /// the same window) into this one.
    pub fn merge(&mut self, other: Timeline) {
        assert_eq!(self.dates, other.dates, "windows differ");
        for (i, day) in other.daily.into_iter().enumerate() {
            if let Some(d) = day {
                assert!(self.daily[i].is_none(), "both shards recorded day {i}");
                self.daily[i] = Some(d);
            }
        }
        for (prefix, rec) in other.prefixes {
            match self.prefixes.get_mut(&prefix) {
                None => {
                    self.prefixes.insert(prefix, rec);
                }
                Some(mine) => {
                    mine.core_days += rec.core_days;
                    mine.total_days += rec.total_days;
                    mine.first_idx = mine.first_idx.min(rec.first_idx);
                    mine.last_idx = mine.last_idx.max(rec.last_idx);
                    for o in rec.origins {
                        if !mine.origins.contains(&o) {
                            mine.origins.push(o);
                        }
                    }
                }
            }
        }
    }

    /// Daily stats at a position (if recorded).
    pub fn day(&self, idx: usize) -> Option<&DailyStats> {
        self.daily.get(idx).and_then(|d| d.as_ref())
    }

    /// All recorded daily stats in day order.
    pub fn days(&self) -> impl Iterator<Item = &DailyStats> {
        self.daily.iter().flatten()
    }

    /// Recorded daily stats within the core window.
    pub fn core_days(&self) -> impl Iterator<Item = &DailyStats> {
        self.daily[..self.core_len].iter().flatten()
    }

    /// The per-prefix records.
    pub fn prefixes(&self) -> &HashMap<Prefix, PrefixRecord> {
        &self.prefixes
    }

    /// Total distinct conflicted prefixes (the paper's 38 225).
    pub fn total_conflicts(&self) -> usize {
        self.prefixes.values().filter(|r| r.core_days > 0).count()
    }

    /// Conflicts active on the final core day (the paper's "still
    /// ongoing" 1 326).
    pub fn ongoing_at_cutoff(&self) -> usize {
        if self.core_len == 0 {
            return 0;
        }
        let last = (self.core_len - 1) as u32;
        self.prefixes
            .values()
            .filter(|r| r.core_days > 0 && r.last_idx >= last && r.first_idx <= last)
            .filter(|r| {
                // Active on the exact last core day: last_idx == last
                // or it spans past it into the extension having been
                // seen that day. Since records only note first/last,
                // use last_idx == last as "seen on the last core day"
                // unless the record extends beyond — then check is
                // conservative. Extension days only exist for ongoing
                // conflicts, so last_idx ≥ last implies presence.
                r.last_idx >= last
            })
            .count()
    }

    /// Observed core-window durations of all conflicts.
    pub fn durations(&self) -> Vec<u32> {
        self.prefixes
            .values()
            .filter(|r| r.core_days > 0)
            .map(|r| r.core_days)
            .collect()
    }

    /// Total as-set-excluded prefixes ever seen (distinct count is not
    /// tracked per prefix; this reports the maximum daily count, which
    /// corresponds to the paper's "roughly 12 routes").
    pub fn max_daily_as_set(&self) -> u32 {
        self.days().map(|d| d.as_set_count).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ConflictClass;
    use crate::detect::PrefixConflict;
    use moas_net::AsPath;

    fn dates(n: usize) -> Vec<Date> {
        (0..n)
            .map(|i| Date::ymd(2001, 1, 1).plus_days(i as i64))
            .collect()
    }

    fn obs(prefixes: &[(&str, &[&str])]) -> DayObservation {
        let conflicts = prefixes
            .iter()
            .map(|(p, paths)| {
                let parsed: Vec<(u16, AsPath)> = paths
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i as u16, s.parse().unwrap()))
                    .collect();
                let mut origins: Vec<Asn> = parsed
                    .iter()
                    .filter_map(|(_, p)| p.origin().as_single())
                    .collect();
                origins.sort_unstable();
                origins.dedup();
                PrefixConflict {
                    prefix: p.parse().unwrap(),
                    origins,
                    paths: parsed,
                }
            })
            .collect();
        DayObservation {
            date: None,
            conflicts,
            as_set_prefixes: vec![],
            total_prefixes: prefixes.len(),
            empty_path_routes: 0,
            total_routes: prefixes.len() * 2,
        }
    }

    #[test]
    fn durations_count_observed_days() {
        let mut tl = Timeline::new(dates(10), 10);
        let o = obs(&[("192.0.2.0/24", &["1 7", "2 9"])]);
        tl.record(0, &o);
        tl.record(1, &o);
        tl.record(5, &o); // intermittent: still counts
        let d = tl.durations();
        assert_eq!(d, vec![3]);
        assert_eq!(tl.total_conflicts(), 1);
    }

    #[test]
    fn extension_days_do_not_count_toward_core_duration() {
        let mut tl = Timeline::new(dates(10), 8); // core = first 8 days
        let o = obs(&[("192.0.2.0/24", &["1 7", "2 9"])]);
        tl.record(6, &o);
        tl.record(7, &o);
        tl.record(8, &o); // extension
        tl.record(9, &o); // extension
        assert_eq!(tl.durations(), vec![2]);
        let rec = &tl.prefixes()[&"192.0.2.0/24".parse().unwrap()];
        assert_eq!(rec.total_days, 4);
    }

    #[test]
    fn ongoing_requires_last_core_day() {
        let mut tl = Timeline::new(dates(5), 5);
        let o = obs(&[("192.0.2.0/24", &["1 7", "2 9"])]);
        tl.record(2, &o);
        assert_eq!(tl.ongoing_at_cutoff(), 0);
        tl.record(4, &o);
        assert_eq!(tl.ongoing_at_cutoff(), 1);
    }

    #[test]
    fn daily_class_and_masklen_histograms() {
        let mut tl = Timeline::new(dates(3), 3);
        let o = obs(&[
            ("192.0.2.0/24", &["1 7", "2 9"]),    // distinct
            ("10.0.0.0/8", &["1 5", "1 6 8"]),    // splitview
            ("198.51.0.0/16", &["1 2", "1 2 3"]), // origtran
        ]);
        tl.record(0, &o);
        let d = tl.day(0).unwrap();
        assert_eq!(d.conflict_count, 3);
        assert_eq!(d.class_counts[ConflictClass::OrigTranAS.index()], 1);
        assert_eq!(d.class_counts[ConflictClass::SplitView.index()], 1);
        assert_eq!(d.class_counts[ConflictClass::DistinctPaths.index()], 1);
        assert_eq!(d.masklen_counts[24], 1);
        assert_eq!(d.masklen_counts[8], 1);
        assert_eq!(d.masklen_counts[16], 1);
    }

    #[test]
    fn origins_accumulate_across_days() {
        let mut tl = Timeline::new(dates(4), 4);
        tl.record(0, &obs(&[("192.0.2.0/24", &["1 7", "2 9"])]));
        tl.record(1, &obs(&[("192.0.2.0/24", &["1 7", "2 11"])]));
        let rec = &tl.prefixes()[&"192.0.2.0/24".parse().unwrap()];
        let mut origins = rec.origins.clone();
        origins.sort_unstable();
        assert_eq!(origins, vec![Asn::new(7), Asn::new(9), Asn::new(11)]);
    }

    #[test]
    fn merge_combines_disjoint_shards() {
        let d = dates(6);
        let mut a = Timeline::new(d.clone(), 6);
        let mut b = Timeline::new(d, 6);
        let o = obs(&[("192.0.2.0/24", &["1 7", "2 9"])]);
        a.record(0, &o);
        a.record(1, &o);
        b.record(3, &o);
        b.record(5, &o);
        a.merge(b);
        assert_eq!(tlen(&a), 4);
        assert_eq!(a.durations(), vec![4]);
        assert_eq!(a.ongoing_at_cutoff(), 1);

        fn tlen(t: &Timeline) -> usize {
            t.days().count()
        }
    }

    #[test]
    #[should_panic(expected = "both shards recorded")]
    fn merge_rejects_overlap() {
        let d = dates(3);
        let mut a = Timeline::new(d.clone(), 3);
        let mut b = Timeline::new(d, 3);
        let o = obs(&[("192.0.2.0/24", &["1 7", "2 9"])]);
        a.record(0, &o);
        b.record(0, &o);
        a.merge(b);
    }

    #[test]
    fn as_set_daily_max() {
        let mut tl = Timeline::new(dates(2), 2);
        let mut o = obs(&[]);
        o.as_set_prefixes = vec![
            ("10.0.0.0/8".parse().unwrap(), vec![Asn::new(1)]),
            ("11.0.0.0/8".parse().unwrap(), vec![Asn::new(2)]),
        ];
        tl.record(0, &o);
        assert_eq!(tl.max_daily_as_set(), 2);
    }
}
