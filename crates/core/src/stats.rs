//! Regeneration of the paper's tables and figures from a [`Timeline`].

use crate::timeline::Timeline;
use moas_net::Date;
use serde::Serialize;
use std::collections::BTreeMap;

/// Median of a slice (average of middle two for even lengths).
/// Returns `None` for empty input.
pub fn median_u32(values: &mut [u32]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2] as f64
    } else {
        (values[n / 2 - 1] as f64 + values[n / 2] as f64) / 2.0
    })
}

/// One point of the Fig. 1 series.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig1Point {
    /// Snapshot date.
    pub date: Date,
    /// Conflicts that day.
    pub conflicts: u32,
}

/// Fig. 1: the daily conflict count over the core window.
pub fn fig1_daily_counts(tl: &Timeline) -> Vec<Fig1Point> {
    tl.core_days()
        .map(|d| Fig1Point {
            date: d.date,
            conflicts: d.conflict_count,
        })
        .collect()
}

/// The `k` largest daily counts (the paper's footnote peaks).
pub fn fig1_peaks(tl: &Timeline, k: usize) -> Vec<Fig1Point> {
    let mut points = fig1_daily_counts(tl);
    points.sort_by_key(|p| std::cmp::Reverse(p.conflicts));
    points.truncate(k);
    points
}

/// One row of the Fig. 2 table.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct YearlyMedian {
    /// Calendar year.
    pub year: i32,
    /// Median of the daily conflict counts in that year.
    pub median: f64,
    /// Increase over the previous listed year, in percent.
    pub growth_pct: Option<f64>,
}

/// Fig. 2: yearly medians of the daily conflict count with growth
/// rates, for the years the paper tabulates (1998–2001).
pub fn fig2_yearly_medians(tl: &Timeline, years: &[i32]) -> Vec<YearlyMedian> {
    let mut per_year: BTreeMap<i32, Vec<u32>> = BTreeMap::new();
    for d in tl.core_days() {
        per_year
            .entry(d.date.year())
            .or_default()
            .push(d.conflict_count);
    }
    let mut out = Vec::new();
    let mut prev: Option<f64> = None;
    for &year in years {
        let Some(mut counts) = per_year.remove(&year) else {
            continue;
        };
        let median = median_u32(&mut counts).unwrap_or(0.0);
        let growth_pct = prev.map(|p| (median - p) / p * 100.0);
        out.push(YearlyMedian {
            year,
            median,
            growth_pct,
        });
        prev = Some(median);
    }
    out
}

/// Fig. 3: the duration histogram — for each observed duration (in
/// snapshot days), how many conflicts had exactly that duration.
pub fn fig3_duration_histogram(tl: &Timeline) -> Vec<(u32, u32)> {
    let mut hist: BTreeMap<u32, u32> = BTreeMap::new();
    for d in tl.durations() {
        *hist.entry(d).or_default() += 1;
    }
    hist.into_iter().collect()
}

/// One row of the Fig. 4 expectation table.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ExpectationRow {
    /// Strict lower bound on duration (days): the "longer than N days"
    /// filter.
    pub longer_than: u32,
    /// Conflicts passing the filter.
    pub count: usize,
    /// Mean duration of those conflicts.
    pub expectation: f64,
}

/// Fig. 4: expectation of duration over filtered data sets. Filters
/// are strict (`duration > longer_than`), matching the paper's rows
/// (see DESIGN.md §2 for the consistency argument).
pub fn fig4_expectations(tl: &Timeline, thresholds: &[u32]) -> Vec<ExpectationRow> {
    let durations = tl.durations();
    thresholds
        .iter()
        .map(|&t| {
            let passing: Vec<u32> = durations.iter().copied().filter(|&d| d > t).collect();
            let count = passing.len();
            let expectation = if count == 0 {
                0.0
            } else {
                passing.iter().map(|&d| d as u64).sum::<u64>() as f64 / count as f64
            };
            ExpectationRow {
                longer_than: t,
                count,
                expectation,
            }
        })
        .collect()
}

/// Headline duration facts beyond the table.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DurationSummary {
    /// Total conflicts (distinct prefixes).
    pub total: usize,
    /// One-time conflicts (observed exactly one day).
    pub one_timers: usize,
    /// Conflicts longer than 300 days.
    pub over_300: usize,
    /// The longest observed duration.
    pub longest: u32,
    /// Conflicts still active on the final core day.
    pub ongoing: usize,
}

/// Computes the headline duration summary.
pub fn duration_summary(tl: &Timeline) -> DurationSummary {
    let durations = tl.durations();
    DurationSummary {
        total: durations.len(),
        one_timers: durations.iter().filter(|&&d| d == 1).count(),
        over_300: durations.iter().filter(|&&d| d > 300).count(),
        longest: durations.iter().copied().max().unwrap_or(0),
        ongoing: tl.ongoing_at_cutoff(),
    }
}

/// Fig. 5: per-year median daily conflict count by prefix length.
/// Returns `year → [median per mask length 0..=32]`.
pub fn fig5_masklen_by_year(tl: &Timeline, years: &[i32]) -> BTreeMap<i32, Vec<f64>> {
    let mut out = BTreeMap::new();
    for &year in years {
        let mut per_len: Vec<Vec<u32>> = vec![Vec::new(); 33];
        for d in tl.core_days().filter(|d| d.date.year() == year) {
            for (len, &count) in d.masklen_counts.iter().enumerate() {
                per_len[len].push(count);
            }
        }
        let medians: Vec<f64> = per_len
            .iter_mut()
            .map(|v| median_u32(v).unwrap_or(0.0))
            .collect();
        if medians.iter().any(|&m| m > 0.0) {
            out.insert(year, medians);
        }
    }
    out
}

/// One point of the Fig. 6 series.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig6Point {
    /// Snapshot date.
    pub date: Date,
    /// OrigTranAS count.
    pub orig_tran: u32,
    /// SplitView count.
    pub split_view: u32,
    /// DistinctPaths count (paper's catch-all: includes the residual
    /// partial-overlap class).
    pub distinct: u32,
    /// The residual (also folded into `distinct`), reported for
    /// transparency.
    pub other: u32,
}

/// Fig. 6: daily class counts between two dates (inclusive), using
/// core and extension days.
pub fn fig6_class_series(tl: &Timeline, from: Date, to: Date) -> Vec<Fig6Point> {
    tl.days()
        .filter(|d| d.date >= from && d.date <= to)
        .map(|d| Fig6Point {
            date: d.date,
            orig_tran: d.class_counts[0],
            split_view: d.class_counts[1],
            distinct: d.class_counts[2] + d.class_counts[3],
            other: d.class_counts[3],
        })
        .collect()
}

/// Aggregate class shares over a date range (for the `figures`
/// binary's reports).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ClassShares {
    /// Mean daily OrigTranAS count.
    pub orig_tran: f64,
    /// Mean daily SplitView count.
    pub split_view: f64,
    /// Mean daily DistinctPaths count (incl. residual).
    pub distinct: f64,
}

/// Mean daily class counts over a range.
pub fn fig6_shares(tl: &Timeline, from: Date, to: Date) -> ClassShares {
    let points = fig6_class_series(tl, from, to);
    let n = points.len().max(1) as f64;
    ClassShares {
        orig_tran: points.iter().map(|p| p.orig_tran as u64).sum::<u64>() as f64 / n,
        split_view: points.iter().map(|p| p.split_view as u64).sum::<u64>() as f64 / n,
        distinct: points.iter().map(|p| p.distinct as u64).sum::<u64>() as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
    use super::*;
    use crate::detect::{DayObservation, PrefixConflict};
    use moas_net::AsPath;

    fn mk_timeline(daily_conflicts: &[(Date, usize)]) -> Timeline {
        let dates: Vec<Date> = daily_conflicts.iter().map(|(d, _)| *d).collect();
        let mut tl = Timeline::new(dates.clone(), dates.len());
        for (idx, (_, n)) in daily_conflicts.iter().enumerate() {
            let conflicts: Vec<PrefixConflict> = (0..*n)
                .map(|i| {
                    let paths: Vec<(u16, AsPath)> = vec![
                        (0, format!("1 {}", 100 + i).parse().unwrap()),
                        (1, format!("2 {}", 200 + i).parse().unwrap()),
                    ];
                    PrefixConflict {
                        prefix: format!("10.{}.{}.0/24", i / 256, i % 256).parse().unwrap(),
                        origins: paths
                            .iter()
                            .filter_map(|(_, p)| p.origin().as_single())
                            .collect(),
                        paths,
                    }
                })
                .collect();
            let obs = DayObservation {
                date: Some(dates[idx]),
                total_prefixes: *n,
                total_routes: n * 2,
                conflicts,
                as_set_prefixes: vec![],
                empty_path_routes: 0,
            };
            tl.record(idx, &obs);
        }
        tl
    }

    #[test]
    fn median_edges() {
        assert_eq!(median_u32(&mut []), None);
        assert_eq!(median_u32(&mut [5]), Some(5.0));
        assert_eq!(median_u32(&mut [1, 2]), Some(1.5));
        assert_eq!(median_u32(&mut [3, 1, 2]), Some(2.0));
    }

    #[test]
    fn fig1_series_and_peaks() {
        let tl = mk_timeline(&[
            (Date::ymd(1998, 1, 1), 3),
            (Date::ymd(1998, 1, 2), 10),
            (Date::ymd(1998, 1, 3), 5),
        ]);
        let series = fig1_daily_counts(&tl);
        assert_eq!(series.len(), 3);
        assert_eq!(series[1].conflicts, 10);
        let peaks = fig1_peaks(&tl, 1);
        assert_eq!(peaks[0].date, Date::ymd(1998, 1, 2));
    }

    #[test]
    fn fig2_medians_and_growth() {
        let mut days = Vec::new();
        for i in 0..5 {
            days.push((Date::ymd(1998, 3, 1).plus_days(i), 10));
        }
        for i in 0..5 {
            days.push((Date::ymd(1999, 3, 1).plus_days(i), 12));
        }
        let tl = mk_timeline(&days);
        let rows = fig2_yearly_medians(&tl, &[1998, 1999]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].median, 10.0);
        assert!(rows[0].growth_pct.is_none());
        assert_eq!(rows[1].median, 12.0);
        let g = rows[1].growth_pct.unwrap();
        assert!((g - 20.0).abs() < 1e-9);
    }

    #[test]
    fn fig2_skips_missing_years() {
        let tl = mk_timeline(&[(Date::ymd(1998, 1, 1), 1)]);
        let rows = fig2_yearly_medians(&tl, &[1998, 1999, 2000]);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn fig3_histogram_counts_durations() {
        // One prefix observed on all 3 days, the rest only on their day.
        let dates: Vec<Date> = (0..3).map(|i| Date::ymd(2001, 1, 1).plus_days(i)).collect();
        let mut tl = Timeline::new(dates.clone(), 3);
        let persistent = PrefixConflict {
            prefix: "192.0.2.0/24".parse().unwrap(),
            origins: vec![],
            paths: vec![(0, "1 7".parse().unwrap()), (1, "2 9".parse().unwrap())],
        };
        for idx in 0..3 {
            let mut conflicts = vec![persistent.clone()];
            conflicts.push(PrefixConflict {
                prefix: format!("10.0.{idx}.0/24").parse().unwrap(),
                origins: vec![],
                paths: vec![(0, "1 7".parse().unwrap()), (1, "2 9".parse().unwrap())],
            });
            let obs = DayObservation {
                date: Some(dates[idx]),
                conflicts,
                as_set_prefixes: vec![],
                total_prefixes: 2,
                empty_path_routes: 0,
                total_routes: 4,
            };
            tl.record(idx, &obs);
        }
        let hist = fig3_duration_histogram(&tl);
        assert_eq!(hist, vec![(1, 3), (3, 1)]);
    }

    #[test]
    fn fig4_strict_filters() {
        let dates: Vec<Date> = (0..5).map(|i| Date::ymd(2001, 1, 1).plus_days(i)).collect();
        let mut tl = Timeline::new(dates.clone(), 5);
        // Prefix A on days 0..5 (dur 5), B on day 0 (dur 1).
        for idx in 0..5 {
            let mut conflicts = vec![PrefixConflict {
                prefix: "192.0.2.0/24".parse().unwrap(),
                origins: vec![],
                paths: vec![(0, "1 7".parse().unwrap()), (1, "2 9".parse().unwrap())],
            }];
            if idx == 0 {
                conflicts.push(PrefixConflict {
                    prefix: "10.0.0.0/24".parse().unwrap(),
                    origins: vec![],
                    paths: vec![(0, "1 7".parse().unwrap()), (1, "2 9".parse().unwrap())],
                });
            }
            let obs = DayObservation {
                date: Some(dates[idx]),
                conflicts,
                as_set_prefixes: vec![],
                total_prefixes: 2,
                empty_path_routes: 0,
                total_routes: 4,
            };
            tl.record(idx, &obs);
        }
        let rows = fig4_expectations(&tl, &[0, 1, 4]);
        // >0: both (mean 3), >1: only A (mean 5), >4: A (mean 5).
        assert_eq!(rows[0].count, 2);
        assert!((rows[0].expectation - 3.0).abs() < 1e-9);
        assert_eq!(rows[1].count, 1);
        assert!((rows[1].expectation - 5.0).abs() < 1e-9);
        assert_eq!(rows[2].count, 1);

        let summary = duration_summary(&tl);
        assert_eq!(summary.total, 2);
        assert_eq!(summary.one_timers, 1);
        assert_eq!(summary.longest, 5);
        assert_eq!(summary.ongoing, 1);
    }

    #[test]
    fn fig5_medians_by_year() {
        let tl = mk_timeline(&[(Date::ymd(1998, 1, 1), 4), (Date::ymd(1998, 1, 2), 4)]);
        let by_year = fig5_masklen_by_year(&tl, &[1998, 1999]);
        assert!(by_year.contains_key(&1998));
        assert!(!by_year.contains_key(&1999));
        // All test conflicts are /24.
        assert_eq!(by_year[&1998][24], 4.0);
        assert_eq!(by_year[&1998][16], 0.0);
    }

    #[test]
    fn fig6_series_folds_other_into_distinct() {
        let dates = vec![Date::ymd(2001, 5, 20)];
        let mut tl = Timeline::new(dates.clone(), 1);
        let obs = DayObservation {
            date: Some(dates[0]),
            conflicts: vec![
                // Partial overlap → Other, folded into distinct.
                PrefixConflict {
                    prefix: "10.0.0.0/24".parse().unwrap(),
                    origins: vec![],
                    paths: vec![
                        (0, "701 1239 7007".parse().unwrap()),
                        (1, "209 1239 8584".parse().unwrap()),
                    ],
                },
                // True distinct.
                PrefixConflict {
                    prefix: "10.0.1.0/24".parse().unwrap(),
                    origins: vec![],
                    paths: vec![(0, "1 7".parse().unwrap()), (1, "2 9".parse().unwrap())],
                },
            ],
            as_set_prefixes: vec![],
            total_prefixes: 2,
            empty_path_routes: 0,
            total_routes: 4,
        };
        tl.record(0, &obs);
        let series = fig6_class_series(&tl, Date::ymd(2001, 5, 15), Date::ymd(2001, 8, 15));
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].distinct, 2);
        assert_eq!(series[0].other, 1);
        let shares = fig6_shares(&tl, Date::ymd(2001, 5, 15), Date::ymd(2001, 8, 15));
        assert_eq!(shares.distinct, 2.0);
    }
}
