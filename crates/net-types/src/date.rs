//! A minimal proleptic-Gregorian calendar.
//!
//! The study is organized around calendar dates: the archive window
//! (1997-11-08 → 2001-07-18), per-year medians (Fig. 2), and the dated
//! incidents (1998-04-07, 2001-04-06/10, 1997-04-25). This module
//! provides exactly the date arithmetic those analyses need — civil date
//! ↔ day-number conversion, ordering, iteration — with no external
//! dependency. The conversion uses the standard "days from civil"
//! algorithm (era/400-year cycle), valid far beyond the study window.

use crate::error::NetParseError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::str::FromStr;

/// A day number: days since the Unix epoch (1970-01-01 = 0).
///
/// Negative values are valid (dates before 1970). `DayIndex` is the
/// canonical time axis of the whole workspace: snapshots, conflict
/// timelines, and incident schedules all use it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct DayIndex(pub i64);

impl DayIndex {
    /// The civil date for this day number.
    pub fn date(self) -> Date {
        Date::from_day_index(self)
    }

    /// ISO weekday, 1 = Monday … 7 = Sunday.
    pub fn weekday(self) -> u8 {
        // 1970-01-01 was a Thursday (ISO weekday 4).
        (((self.0 + 3).rem_euclid(7)) + 1) as u8
    }
}

impl Add<i64> for DayIndex {
    type Output = DayIndex;
    fn add(self, rhs: i64) -> DayIndex {
        DayIndex(self.0 + rhs)
    }
}

impl AddAssign<i64> for DayIndex {
    fn add_assign(&mut self, rhs: i64) {
        self.0 += rhs;
    }
}

impl Sub<i64> for DayIndex {
    type Output = DayIndex;
    fn sub(self, rhs: i64) -> DayIndex {
        DayIndex(self.0 - rhs)
    }
}

impl Sub<DayIndex> for DayIndex {
    type Output = i64;
    fn sub(self, rhs: DayIndex) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for DayIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.date())
    }
}

/// A civil (proleptic-Gregorian) calendar date.
///
/// ```
/// use moas_net::Date;
/// let incident: Date = "1998-04-07".parse().unwrap();
/// assert_eq!(incident.year(), 1998);
/// let next = incident.succ();
/// assert_eq!(next.to_string(), "1998-04-08");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

impl Date {
    /// Creates a date, validating the calendar (leap years included).
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self, NetParseError> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return Err(NetParseError::BadDate(format!(
                "{year:04}-{month:02}-{day:02}"
            )));
        }
        Ok(Date { year, month, day })
    }

    /// Creates a date, panicking on an invalid calendar day. For
    /// compile-time-known constants (incident dates, window bounds).
    pub fn ymd(year: i32, month: u8, day: u8) -> Self {
        Self::new(year, month, day)
            .unwrap_or_else(|e| panic!("invalid literal date {year}-{month}-{day}: {e}"))
    }

    /// The year.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// The month, 1–12.
    pub fn month(&self) -> u8 {
        self.month
    }

    /// The day of month, 1–31.
    pub fn day(&self) -> u8 {
        self.day
    }

    /// Days since 1970-01-01 ("days from civil", era-based algorithm).
    pub fn day_index(&self) -> DayIndex {
        let y = if self.month <= 2 {
            self.year - 1
        } else {
            self.year
        } as i64;
        let era = y.div_euclid(400);
        let yoe = y - era * 400; // [0, 399]
        let mp = (self.month as i64 + 9) % 12; // Mar=0 … Feb=11
        let doy = (153 * mp + 2) / 5 + self.day as i64 - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        DayIndex(era * 146097 + doe - 719468)
    }

    /// The civil date for a day number (inverse of [`Date::day_index`]).
    pub fn from_day_index(idx: DayIndex) -> Date {
        let z = idx.0 + 719468;
        let era = z.div_euclid(146097);
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
        let year = if m <= 2 { y + 1 } else { y } as i32;
        Date {
            year,
            month: m,
            day: d,
        }
    }

    /// The next calendar day.
    pub fn succ(&self) -> Date {
        Date::from_day_index(self.day_index() + 1)
    }

    /// The previous calendar day.
    pub fn pred(&self) -> Date {
        Date::from_day_index(self.day_index() - 1)
    }

    /// Adds (or subtracts, if negative) a number of days.
    pub fn plus_days(&self, n: i64) -> Date {
        Date::from_day_index(self.day_index() + n)
    }

    /// Calendar days from `self` to `other` (positive if `other` later).
    pub fn days_until(&self, other: &Date) -> i64 {
        other.day_index() - self.day_index()
    }

    /// Iterates dates from `self` to `end` inclusive.
    pub fn iter_to(self, end: Date) -> impl Iterator<Item = Date> {
        let start = self.day_index().0;
        let stop = end.day_index().0;
        (start..=stop).map(|i| Date::from_day_index(DayIndex(i)))
    }
}

impl PartialOrd for Date {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Date {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.year, self.month, self.day).cmp(&(other.year, other.month, other.day))
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl FromStr for Date {
    type Err = NetParseError;

    /// Parses `YYYY-MM-DD`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let bad = || NetParseError::BadDate(s.to_string());
        let mut parts = s.splitn(3, '-');
        let y: i32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let m: u8 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let d: u8 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        Date::new(y, m, d)
    }
}

/// Gregorian leap-year rule.
fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Days in a given month of a given year.
fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::ymd(1970, 1, 1).day_index(), DayIndex(0));
        assert_eq!(Date::from_day_index(DayIndex(0)), Date::ymd(1970, 1, 1));
    }

    #[test]
    fn known_day_numbers() {
        // 2000-03-01 is day 11017 since epoch (well-known test vector).
        assert_eq!(Date::ymd(2000, 3, 1).day_index(), DayIndex(11017));
        assert_eq!(Date::ymd(1969, 12, 31).day_index(), DayIndex(-1));
    }

    #[test]
    fn study_window_span() {
        let start = Date::ymd(1997, 11, 8);
        let end = Date::ymd(2001, 7, 18);
        // 1349 calendar days inclusive; the paper's 1279 snapshot days
        // come from archive gaps, modelled in moas-sim.
        assert_eq!(start.days_until(&end) + 1, 1349);
    }

    #[test]
    fn incident_dates_roundtrip() {
        for s in ["1998-04-07", "2001-04-06", "2001-04-10", "1997-04-25"] {
            let d: Date = s.parse().unwrap();
            assert_eq!(d.to_string(), s);
            assert_eq!(Date::from_day_index(d.day_index()), d);
        }
    }

    #[test]
    fn leap_year_handling() {
        assert!(Date::new(2000, 2, 29).is_ok(), "2000 is a leap year");
        assert!(Date::new(1900, 2, 29).is_err(), "1900 is not");
        assert!(Date::new(1996, 2, 29).is_ok());
        assert!(Date::new(1998, 2, 29).is_err());
    }

    #[test]
    fn rejects_impossible_dates() {
        assert!(Date::new(2001, 0, 1).is_err());
        assert!(Date::new(2001, 13, 1).is_err());
        assert!(Date::new(2001, 4, 31).is_err());
        assert!(Date::new(2001, 4, 0).is_err());
        assert!("2001-4".parse::<Date>().is_err());
        assert!("garbage".parse::<Date>().is_err());
    }

    #[test]
    fn succ_pred_across_boundaries() {
        assert_eq!(Date::ymd(1999, 12, 31).succ(), Date::ymd(2000, 1, 1));
        assert_eq!(Date::ymd(2000, 3, 1).pred(), Date::ymd(2000, 2, 29));
        assert_eq!(Date::ymd(1998, 3, 1).pred(), Date::ymd(1998, 2, 28));
    }

    #[test]
    fn ordering_matches_day_index() {
        let a = Date::ymd(1998, 4, 7);
        let b = Date::ymd(2001, 4, 10);
        assert!(a < b);
        assert!(a.day_index() < b.day_index());
    }

    #[test]
    fn weekday_known_values() {
        // 1970-01-01 was a Thursday.
        assert_eq!(DayIndex(0).weekday(), 4);
        // 1998-04-07 was a Tuesday.
        assert_eq!(Date::ymd(1998, 4, 7).day_index().weekday(), 2);
        // 2001-04-06 was a Friday.
        assert_eq!(Date::ymd(2001, 4, 6).day_index().weekday(), 5);
    }

    #[test]
    fn iteration_counts_days() {
        let days: Vec<Date> = Date::ymd(2000, 2, 27)
            .iter_to(Date::ymd(2000, 3, 2))
            .collect();
        assert_eq!(days.len(), 5);
        assert_eq!(days[2], Date::ymd(2000, 2, 29));
    }

    #[test]
    fn roundtrip_every_day_of_study_window() {
        let start = Date::ymd(1997, 11, 8).day_index().0;
        let end = Date::ymd(2001, 7, 18).day_index().0;
        for i in start..=end {
            let d = Date::from_day_index(DayIndex(i));
            assert_eq!(d.day_index(), DayIndex(i), "roundtrip failed at {d}");
        }
    }
}
