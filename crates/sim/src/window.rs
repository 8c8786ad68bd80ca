//! The study window: snapshot days, archive gaps, incident dates.
//!
//! The paper's window is stated as 1997-11-08 → 2001-07-18, which spans
//! 1349 calendar days, yet the paper counts **1279 days** of data and a
//! maximum possible duration of 1279 — real archives have gaps. We
//! model a deterministic 70-day gap set so both facts hold at once.
//! Section V's Figure 6 uses data through 2001-08-15; the window
//! carries that extension separately so duration statistics still stop
//! at the paper's cutoff.

use moas_net::rng::DetRng;
use moas_net::{Date, DayIndex};

/// Dates the gap generator must never remove (incidents and endpoints).
fn protected(day: DayIndex) -> bool {
    let protected_dates = [
        Date::ymd(1997, 11, 8),
        Date::ymd(1998, 4, 6),
        Date::ymd(1998, 4, 7),
        Date::ymd(1998, 4, 8),
        Date::ymd(2001, 7, 18),
    ];
    if protected_dates.iter().any(|d| d.day_index() == day) {
        return true;
    }
    // Keep everything from 2001-03-15 on intact: the April incident
    // ramp and the Figure 6 classification window need daily data.
    day >= Date::ymd(2001, 3, 15).day_index()
}

/// The observation window of the study.
#[derive(Debug, Clone)]
pub struct StudyWindow {
    start: Date,
    end: Date,
    extended_end: Date,
    /// Snapshot days in order (calendar days minus gaps, plus the
    /// extension days).
    days: Vec<DayIndex>,
    /// Number of snapshot days at or before `end` (the paper's 1279).
    core_len: usize,
}

impl StudyWindow {
    /// The paper's window with the canonical gap count (70), yielding
    /// 1279 core snapshot days.
    pub fn paper(rng: &DetRng) -> Self {
        Self::new(
            Date::ymd(1997, 11, 8),
            Date::ymd(2001, 7, 18),
            Date::ymd(2001, 8, 15),
            70,
            rng,
        )
    }

    /// A short window for unit tests (90 core days, no extension gap).
    pub fn test_window(rng: &DetRng) -> Self {
        Self::new(
            Date::ymd(2001, 1, 1),
            Date::ymd(2001, 3, 31),
            Date::ymd(2001, 4, 10),
            0,
            rng,
        )
    }

    /// Builds a window with `gap_count` missing days drawn
    /// deterministically from the un-protected part of the core range.
    pub fn new(start: Date, end: Date, extended_end: Date, gap_count: usize, rng: &DetRng) -> Self {
        assert!(start <= end && end <= extended_end);
        let mut rng = rng.substream("window-gaps");
        let s = start.day_index();
        let e = end.day_index();
        let xe = extended_end.day_index();

        let candidates: Vec<DayIndex> = (s.0..=e.0)
            .map(DayIndex)
            .filter(|d| !protected(*d))
            .collect();
        let picked = rng.sample_indices(candidates.len(), gap_count);
        let mut gaps: Vec<i64> = picked.iter().map(|&i| candidates[i].0).collect();
        gaps.sort_unstable();

        let mut days = Vec::with_capacity((xe.0 - s.0 + 1) as usize);
        let mut core_len = 0usize;
        for d in s.0..=xe.0 {
            if gaps.binary_search(&d).is_ok() {
                continue;
            }
            days.push(DayIndex(d));
            if d <= e.0 {
                core_len += 1;
            }
        }
        StudyWindow {
            start,
            end,
            extended_end,
            days,
            core_len,
        }
    }

    /// First day of the window.
    pub fn start(&self) -> Date {
        self.start
    }

    /// The paper's cutoff date (duration statistics stop here).
    pub fn end(&self) -> Date {
        self.end
    }

    /// The end of the Figure 6 extension.
    pub fn extended_end(&self) -> Date {
        self.extended_end
    }

    /// All snapshot days including the extension.
    pub fn all_days(&self) -> &[DayIndex] {
        &self.days
    }

    /// The core snapshot days (≤ `end`) — the paper's 1279 days.
    pub fn core_days(&self) -> &[DayIndex] {
        &self.days[..self.core_len]
    }

    /// Number of core snapshot days.
    pub fn core_len(&self) -> usize {
        self.core_len
    }

    /// Total number of snapshot days including the extension.
    pub fn total_len(&self) -> usize {
        self.days.len()
    }

    /// Whether `day` is a snapshot day (core or extension).
    pub fn has_snapshot(&self, day: DayIndex) -> bool {
        self.days.binary_search(&day).is_ok()
    }

    /// The position of `day` in the snapshot sequence, if present.
    pub fn snapshot_index(&self, day: DayIndex) -> Option<usize> {
        self.days.binary_search(&day).ok()
    }

    /// The snapshot day at sequence position `idx`.
    pub fn day_at(&self, idx: usize) -> DayIndex {
        self.days[idx]
    }

    /// Snapshot positions of a calendar year's days within the core
    /// window (used for yearly medians).
    pub fn core_positions_in_year(&self, year: i32) -> Vec<usize> {
        self.core_days()
            .iter()
            .enumerate()
            .filter(|(_, d)| d.date().year() == year)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Incident dates from §VI-E.
pub mod incidents {
    use moas_net::Date;

    /// AS 8584 falsely originates ~11k prefixes.
    pub fn fault_1998() -> Date {
        Date::ymd(1998, 4, 7)
    }

    /// First day of the AS 15412 leak (paper: "on April 6th, AS 15412
    /// suddenly originated thousands of prefixes").
    pub fn fault_2001_start() -> Date {
        Date::ymd(2001, 4, 6)
    }

    /// Last day of the leak's large footprint (5532 conflicts with
    /// (3561, 15412) out of 6627 that day).
    pub fn fault_2001_end() -> Date {
        Date::ymd(2001, 4, 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_window() -> StudyWindow {
        StudyWindow::paper(&DetRng::new(2001))
    }

    #[test]
    fn paper_window_has_1279_core_days() {
        let w = paper_window();
        assert_eq!(w.core_len(), 1279);
        // 1349 calendar days − 70 gaps = 1279.
        assert_eq!(w.start().days_until(&w.end()) + 1, 1349);
    }

    #[test]
    fn extension_days_present() {
        let w = paper_window();
        let ext = w.total_len() - w.core_len();
        // 2001-07-19 .. 2001-08-15 = 28 days, all protected from gaps.
        assert_eq!(ext, 28);
    }

    #[test]
    fn gaps_are_deterministic_per_seed() {
        let a = StudyWindow::paper(&DetRng::new(5));
        let b = StudyWindow::paper(&DetRng::new(5));
        assert_eq!(a.all_days(), b.all_days());
        let c = StudyWindow::paper(&DetRng::new(6));
        assert_ne!(a.all_days(), c.all_days());
    }

    #[test]
    fn incident_days_are_snapshot_days() {
        let w = paper_window();
        assert!(w.has_snapshot(incidents::fault_1998().day_index()));
        for d in incidents::fault_2001_start().iter_to(incidents::fault_2001_end()) {
            assert!(w.has_snapshot(d.day_index()), "missing {d}");
        }
        assert!(w.has_snapshot(w.start().day_index()));
        assert!(w.has_snapshot(w.end().day_index()));
    }

    #[test]
    fn snapshot_index_roundtrip() {
        let w = paper_window();
        for idx in [0usize, 1, 100, 1278, w.total_len() - 1] {
            let d = w.day_at(idx);
            assert_eq!(w.snapshot_index(d), Some(idx));
        }
    }

    #[test]
    fn non_snapshot_day_is_reported() {
        let w = paper_window();
        // Find a gap: a calendar day in the core range missing from
        // the snapshot list.
        let s = w.start().day_index().0;
        let e = w.end().day_index().0;
        let gap = (s..=e).map(DayIndex).find(|d| !w.has_snapshot(*d));
        let gap = gap.expect("70 gaps must exist");
        assert_eq!(w.snapshot_index(gap), None);
    }

    #[test]
    fn days_are_strictly_increasing() {
        let w = paper_window();
        for pair in w.all_days().windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn year_positions_partition_core() {
        let w = paper_window();
        let total: usize = [1997, 1998, 1999, 2000, 2001]
            .iter()
            .map(|&y| w.core_positions_in_year(y).len())
            .sum();
        assert_eq!(total, w.core_len());
        // 1998 has at most 365 snapshot days.
        assert!(w.core_positions_in_year(1998).len() <= 365);
        assert!(w.core_positions_in_year(1996).is_empty());
    }

    #[test]
    fn test_window_shape() {
        let w = StudyWindow::test_window(&DetRng::new(1));
        assert_eq!(w.core_len(), 90);
        assert_eq!(w.total_len(), 100);
    }
}
