//! Query surface: epoch snapshots of the live MOAS set, and the merge
//! path that folds a monitor run back into the batch pipeline's
//! [`Timeline`] so streaming and batch statistics agree.

use crate::event::{MonitorEvent, SeqEvent};
use crate::metrics::MetricsSnapshot;
use crate::shard::ShardSnapshot;
use crate::state::LiveConflict;
use moas_core::detect::{DayObservation, PrefixConflict};
use moas_core::detector::Anomaly;
use moas_core::timeline::Timeline;
use moas_mrt::snapshot::midnight_timestamp;
use moas_net::{AsPath, Asn, Date, Prefix};
use std::collections::{BTreeSet, HashMap};

/// A point-in-time view of the live MOAS set, assembled from one
/// answer per shard. Each shard's answer is consistent at a batch
/// boundary of that shard's queue; `epochs()` reports how many
/// updates each had applied.
#[derive(Debug, Clone)]
pub struct MoasSnapshot {
    shards: Vec<ShardSnapshot>,
}

impl MoasSnapshot {
    /// Assembles a snapshot (shards sorted by index).
    pub fn new(shards: Vec<ShardSnapshot>) -> Self {
        MoasSnapshot { shards }
    }

    /// Per-shard update-application epochs.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch).collect()
    }

    /// All open conflicts, merged across shards (prefix order).
    pub fn open_conflicts(&self) -> Vec<LiveConflict> {
        let mut all: Vec<LiveConflict> = self
            .shards
            .iter()
            .flat_map(|s| s.open.iter().cloned())
            .collect();
        all.sort_by_key(|c| c.prefix);
        all
    }

    /// Number of open conflicts.
    pub fn open_count(&self) -> usize {
        self.shards.iter().map(|s| s.open.len()).sum()
    }

    /// Conflicts open for longer than `min_secs` as of `now` — the
    /// §VI duration heuristic ("long-lived conflicts are likely valid
    /// practice"), live.
    pub fn open_longer_than(&self, min_secs: u32, now: u32) -> Vec<LiveConflict> {
        let mut out: Vec<LiveConflict> = self
            .shards
            .iter()
            .flat_map(|s| s.open.iter())
            .filter(|c| now.saturating_sub(c.opened_at) > min_secs)
            .cloned()
            .collect();
        out.sort_by_key(|c| c.prefix);
        out
    }

    /// Total live routes across shards.
    pub fn route_count(&self) -> u64 {
        self.shards.iter().map(|s| s.routes).sum()
    }

    /// Total distinct prefixes across shards.
    pub fn prefix_count(&self) -> usize {
        self.shards.iter().map(|s| s.prefixes).sum()
    }
}

/// Everything a finished engine run produced.
#[derive(Debug)]
pub struct MonitorReport {
    /// The merged event log, in replay order.
    pub events: Vec<SeqEvent>,
    /// §VII alarms raised in-stream, tagged with day position.
    pub alarms: Vec<(usize, Anomaly)>,
    /// Final live-route count.
    pub routes: u64,
    /// Final distinct-prefix count.
    pub prefixes: usize,
    /// Withdrawals that matched no held route.
    pub spurious_withdrawals: u64,
    /// Final engine counters.
    pub metrics: MetricsSnapshot,
}

impl MonitorReport {
    /// Real-time durations (seconds) of all closed conflicts.
    pub fn closed_durations(&self) -> Vec<u32> {
        self.events
            .iter()
            .filter_map(|e| e.event.duration_secs())
            .collect()
    }

    /// Folds the event log into a batch [`Timeline`]: for each
    /// snapshot day, a conflict counts iff it was open at the end of
    /// that day's update stream. See [`fold_events_into_timeline`].
    pub fn fold_into_timeline(&self, dates: &[Date], core_len: usize) -> Timeline {
        fold_events_into_timeline(&self.events, dates, core_len)
    }
}

/// Folds an event log into the batch pipeline's [`Timeline`].
///
/// Day streams are timestamped within the day they lead into
/// (`moas_routeviews::updates::diff_snapshots`), so the state at the
/// day's snapshot instant is the state after every event with
/// `at < midnight(date) + 86 400`. A conflict therefore counts toward
/// day `idx` iff it is open at that cut — the same "present in the
/// day's table" semantics `detect()` applies to a materialized
/// snapshot, which is what makes `total_conflicts()` and `durations()`
/// agree exactly between the two pipelines.
///
/// The fold does not trust timestamps for causality: events are
/// replayed in `(shard, seq)` order — the order each shard actually
/// applied its updates, which is total per prefix — and timestamps
/// only place each event into a day bucket, clamped per prefix so a
/// later event never lands in an earlier day than its predecessor.
/// Real MRT archives (and any stream longer than a day's seconds) can
/// carry locally non-monotonic timestamps; mis-sorting by time alone
/// would pair opens and closes wrongly.
///
/// Conflicts that open and close entirely *between* two snapshot
/// instants never count — also exactly like the paper's once-a-day
/// methodology (that invisibility is the monitor's whole motivation;
/// the real-time durations live in the event log itself).
///
/// Daily class histograms need full path sets, which events do not
/// carry; the fold synthesizes one single-hop path per origin, so
/// `DailyStats::class_counts` from a fold are not meaningful.
pub fn fold_events_into_timeline(events: &[SeqEvent], dates: &[Date], core_len: usize) -> Timeline {
    let cuts: Vec<u32> = dates
        .iter()
        .map(|d| midnight_timestamp(*d).saturating_add(86_400))
        .collect();

    // Causal order: per prefix this is exactly the order the owning
    // shard applied updates, regardless of timestamp quirks.
    let mut causal: Vec<&SeqEvent> = events.iter().collect();
    causal.sort_by_key(|e| (e.shard, e.seq));

    // Bucket each event into the first day whose cut lies after it,
    // clamped per prefix to keep buckets monotone along the causal
    // order; events past the last cut fall outside the window.
    let mut buckets: Vec<Vec<&MonitorEvent>> = vec![Vec::new(); dates.len()];
    let mut last_bucket: HashMap<Prefix, usize> = HashMap::new();
    for e in causal {
        let at = e.event.at();
        let natural = cuts.partition_point(|&cut| cut <= at);
        let floor = last_bucket.get(&e.event.prefix()).copied().unwrap_or(0);
        let bucket = natural.max(floor);
        if bucket >= dates.len() {
            continue;
        }
        last_bucket.insert(e.event.prefix(), bucket);
        buckets[bucket].push(&e.event);
    }

    let mut tl = Timeline::new(dates.to_vec(), core_len);
    let mut open: HashMap<Prefix, BTreeSet<Asn>> = HashMap::new();
    for (idx, date) in dates.iter().enumerate() {
        for event in &buckets[idx] {
            apply_to_open(event, &mut open);
        }
        let mut conflicts: Vec<PrefixConflict> = open
            .iter()
            .map(|(prefix, origins)| PrefixConflict {
                prefix: *prefix,
                origins: origins.iter().copied().collect(),
                paths: origins
                    .iter()
                    .enumerate()
                    .map(|(s, o)| (s as u16, AsPath::from_sequence([*o])))
                    .collect(),
            })
            .collect();
        conflicts.sort_by_key(|c| c.prefix);
        let obs = DayObservation {
            date: Some(*date),
            conflicts,
            ..DayObservation::default()
        };
        tl.record(idx, &obs);
    }
    tl
}

fn apply_to_open(event: &MonitorEvent, open: &mut HashMap<Prefix, BTreeSet<Asn>>) {
    match event {
        MonitorEvent::ConflictOpened {
            prefix, origins, ..
        } => {
            open.insert(*prefix, origins.iter().copied().collect());
        }
        MonitorEvent::OriginAdded { prefix, origin, .. } => {
            open.entry(*prefix).or_default().insert(*origin);
        }
        MonitorEvent::OriginWithdrawn { prefix, origin, .. } => {
            if let Some(set) = open.get_mut(prefix) {
                set.remove(origin);
            }
        }
        MonitorEvent::ConflictClosed { prefix, .. } => {
            open.remove(prefix);
        }
        // Vantage-mask bookkeeping never changes which conflicts are
        // open — the fold ignores it, which is what makes a federated
        // run's Timeline identical to the single-collector fold.
        MonitorEvent::OriginCorroborated { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moas_net::Asn;

    fn ev(shard: usize, seq: u64, event: MonitorEvent) -> SeqEvent {
        SeqEvent { shard, seq, event }
    }

    fn prefix() -> Prefix {
        "192.0.2.0/24".parse().unwrap()
    }

    fn origins() -> Vec<Asn> {
        vec![Asn::new(7), Asn::new(9)]
    }

    #[test]
    fn fold_counts_conflict_open_at_each_cut() {
        // Day 0 = 1970-01-01 (midnight 0). Opens day 0, closes day 2.
        let dates: Vec<Date> = (0..3).map(|i| Date::ymd(1970, 1, 1).plus_days(i)).collect();
        let events = vec![
            ev(
                0,
                0,
                MonitorEvent::ConflictOpened {
                    prefix: prefix(),
                    origins: origins(),
                    at: 1_000,
                },
            ),
            ev(
                0,
                1,
                MonitorEvent::ConflictClosed {
                    prefix: prefix(),
                    opened_at: 1_000,
                    at: 2 * 86_400 + 10,
                },
            ),
        ];
        let tl = fold_events_into_timeline(&events, &dates, 3);
        assert_eq!(tl.total_conflicts(), 1);
        assert_eq!(
            tl.durations(),
            vec![2],
            "open at cuts 0 and 1, closed by cut 2"
        );
    }

    #[test]
    fn fold_survives_non_monotonic_timestamps() {
        // A close whose timestamp wrapped *behind* its open (as a
        // >86 400-record day stream or a messy real archive can
        // produce). Causal (seq) order must win: the conflict is
        // closed, not phantom-open forever.
        let dates: Vec<Date> = (0..2).map(|i| Date::ymd(1970, 1, 1).plus_days(i)).collect();
        let events = vec![
            ev(
                0,
                0,
                MonitorEvent::ConflictOpened {
                    prefix: prefix(),
                    origins: origins(),
                    at: 86_500, // day 1
                },
            ),
            ev(
                0,
                1,
                MonitorEvent::ConflictClosed {
                    prefix: prefix(),
                    opened_at: 86_500,
                    at: 100, // wrapped: nominally day 0
                },
            ),
        ];
        let tl = fold_events_into_timeline(&events, &dates, 2);
        assert_eq!(
            tl.total_conflicts(),
            0,
            "close must not be resorted before its open"
        );
    }

    #[test]
    fn event_at_a_cut_falls_in_the_next_day() {
        // Day 0's cut is 86 400: an open stamped exactly there is
        // after day 0's snapshot instant, so only day 1 counts it.
        let dates: Vec<Date> = (0..2).map(|i| Date::ymd(1970, 1, 1).plus_days(i)).collect();
        let events = vec![ev(
            0,
            0,
            MonitorEvent::ConflictOpened {
                prefix: prefix(),
                origins: origins(),
                at: 86_400,
            },
        )];
        let tl = fold_events_into_timeline(&events, &dates, 2);
        assert_eq!(tl.durations(), vec![1]);
    }

    #[test]
    fn fold_ignores_events_past_the_window() {
        let dates = vec![Date::ymd(1970, 1, 1)];
        let events = vec![ev(
            0,
            0,
            MonitorEvent::ConflictOpened {
                prefix: prefix(),
                origins: origins(),
                at: 5 * 86_400,
            },
        )];
        let tl = fold_events_into_timeline(&events, &dates, 1);
        assert_eq!(tl.total_conflicts(), 0);
    }
}
