//! The feed driver: N ≥ 1 collector archives, one monitor, one
//! history.
//!
//! ```text
//!   collector A dir ──┐                        ┌─▶ ingest_record_from(0, ..)
//!   collector B dir ──┼─ merged (date, hhmm,  ─┤   (first release wins)
//!   collector C dir ──┘   collector) order      └─▶ corroborate_at(k, ..)
//!        │ FileTailer (byte offset)                (deduped duplicates widen
//!        │ per-collector FEED_CURSORs               vantage masks only)
//!        ▼
//!   one MonitorEngine ──▶ drain_events ──▶ one HistoryService
//!        │ day complete / checkpoint          (watermark-filtered)
//!        ▼
//!   engine.mark_day + service.mark_day ──▶ epochs advance once
//! ```
//!
//! A single-collector deployment is a [`Federation`] of one: the
//! engine then keeps no vantage masks and the dedup window is never
//! consulted. The design center is *determinism*: every record the
//! feed releases is released in the *global order*
//! `(date, hhmm, collector id, file name)`, with exactly one file in
//! flight across the whole federation at any time. That single
//! merged order is a pure function of the per-collector cursor set,
//! which is what makes kill-and-resume exact: a restarted federation
//! replays every collector's archive up to its cursor **in the same
//! merged order**, sink disabled, rebuilding the monitor state, the
//! vantage masks, and the dedup window byte-for-byte.
//!
//! ## Durability protocol
//!
//! Cursors are only persisted after the events covering them are
//! sealed (`HistoryService::checkpoint` or a day mark), so on disk
//! they are always *at or behind* the durable log. A restart rebuilds
//! monitor state by replaying the archives up to the cursors with the
//! sink disabled (deterministic: same records, same shard routing,
//! same per-shard sequence numbers), then resumes at the exact byte
//! offset. The narrow crash window where the log holds events
//! *beyond* the cursors (crash between seal and cursor rename) is
//! closed by per-shard sequence watermarks taken from the durable
//! tail at open: any regenerated event at or below the watermark is
//! already on disk and is suppressed rather than appended twice. The
//! one case this cannot cover — that window *plus* a compaction that
//! already folded the very segment into the table before the crash —
//! is pathological (the daemon is woken by day marks, not
//! checkpoints) and documented as at-least-once.
//!
//! ## Feed pathologies
//!
//! * **In-flight files** are tailed record-by-record; a partial
//!   record at the end of the newest file simply waits for bytes.
//! * **Out-of-order arrival** within a polling window is absorbed by
//!   timestamp-ordered selection; a file arriving after its collector
//!   has advanced past its slot is counted `late` and ignored (the
//!   history cannot rewind).
//! * **Truncated uploads**: once a newer file exists, leftover bytes
//!   in the older file are a truncated tail — counted, skipped,
//!   never poisoning the feed.
//! * **Gaps**: a day a collector delivered no file for is surfaced as
//!   a [`FeedGap`] under that collector's name, the day is still
//!   marked through the engine and service (conflicts stay open
//!   across it), and it is tallied in `/v1/feed` — §VI longevity
//!   statistics can see exactly which days were never observed.
//!
//! ## Cross-collector dedup
//!
//! N collectors carrying the same BGP session see the same updates at
//! slightly different timestamps. Each record is keyed by its
//! *content* — every raw byte of the MRT record except the header
//! timestamp — as `FileTailer::frame` hands it over, before
//! any decode. A later identical copy from a collector not yet counted
//! for the released update, arriving within
//! [`FederationConfig::dedup_window_secs`] of the released copy, is
//! suppressed and never decoded: it does not touch route state (the
//! monitor's Timeline over N copies of one archive equals the
//! single-collector fold exactly), but it *does* widen the per-origin
//! vantage mask through
//! [`moas_monitor::MonitorEngine::corroborate_at`], at the copy's own
//! header timestamp — the §VI corroboration signal. A repeat from a
//! collector already counted is that session re-announcing (announce,
//! withdraw, re-announce with the same attributes): it is released
//! and starts a new window entry. Only released records are decoded:
//! a decode failure is counted as skipped and never enters the window;
//! a success is ingested and remembered.
//!
//! A window entry holds the released copy's timestamp, the collectors
//! counted for it, and a [`moas_monitor::Sighting`] (the peer session
//! and the announced single-origin `(prefix, origin)` pairs) — what
//! corroborating a copy needs, not the record. Entries live until a
//! newly opened file's slot starts more than two windows past them. A
//! copy skewed *beyond* the window is re-ingested; the shard state
//! machine is nearly idempotent (a same-origin re-announce is silent,
//! a duplicate withdraw only bumps the spurious counter), so even a
//! missed dedup leaves the lifecycle event stream unchanged.
//!
//! ## Cursor migration
//!
//! Collector 0's cursor keeps the legacy `FEED_CURSOR` file name. A v1
//! cursor found there (written by releases that had a separate
//! single-collector driver) is adopted as collector 0's position
//! (byte-for-byte: the resumed tail continues at the exact offset)
//! and rewritten in the v2 format at the next checkpoint; collectors
//! 1..N persist `FEED_CURSOR.<id>`. All cursors are staged (written +
//! fsynced) before any is renamed into place, and only after the
//! history service sealed the events they cover.
//!
//! ## Observability
//!
//! Each [`Federation::poll_once`] opens a `feed_poll` root span and
//! publishes it as the tracer's ambient ingest context, so the tail
//! (`feed_tail`), decode (`mrt_decode`), shard-apply, append, seal and
//! epoch-publish stages of that pass attach to one trace. The same
//! stages land on the `moas_stage_duration_us` histograms. Both are
//! per-poll and per-pass clock reads, never per-record.
//!
//! ## The stall barrier
//!
//! Strict global order means the federation cannot advance past the
//! oldest unconsumed slot: a collector whose in-flight head stops
//! growing blocks the merge. That is deliberate — the healthy
//! collectors' lag gauges (`moas_feed_lag_seconds{collector=...}`)
//! climb, the unlabelled `moas_feed_lag_seconds` (the max across
//! collectors, which the `feed_lag` alert watches) climbs with them,
//! `/readyz` trips on the same max, and the operator sees exactly
//! which vantage point stalled instead of a silently de-corroborated
//! view.

use crate::cursor::{CursorStage, FeedCursor};
use crate::layout::{scan_layout, FeedFile};
use crate::status::{FeedGap, FeedStatus, LAG_HELP};
use crate::tail::{FileTailer, FramePass};
use bytes::Bytes;
use moas_history::HistoryService;
use moas_monitor::metrics::EngineMetrics;
use moas_monitor::{MonitorConfig, MonitorEngine, MonitorReport, SeqEvent, Sighting};
use moas_mrt::record::MrtRecord;
use moas_net::Date;
use moas_obs::{Gauge, Histogram, Registry};
use serde::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One collector archive the federation follows.
#[derive(Debug, Clone)]
pub struct CollectorSpec {
    /// Collector name — the `collector` label on its metric series,
    /// journal events, and status blocks (e.g. `rrc00`, `route-views2`).
    pub name: String,
    /// Its archive directory of `updates.YYYYMMDD.HHMM.mrt` files.
    pub dir: PathBuf,
}

/// Federation tuning.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// The collectors to merge, in id order (index = collector id;
    /// ids feed the vantage bitmasks, so keep the order stable across
    /// restarts of the same store).
    pub collectors: Vec<CollectorSpec>,
    /// Date of day position 0 — must match the history service's
    /// [`moas_history::ServiceConfig::start_date`].
    pub start_date: Date,
    /// Monitor engine config. `collectors` is overridden with the
    /// federation's collector count on open.
    pub monitor: MonitorConfig,
    /// Persist durable cursors mid-file once this many bytes have
    /// been consumed since the last checkpoint (0 = only at file/day
    /// boundaries).
    pub checkpoint_bytes: u64,
    /// Two identical records from different collectors whose
    /// timestamps differ by at most this many seconds are one update
    /// seen from two vantage points — the collector clock-skew
    /// allowance. 0 disables dedup entirely, and so does a single
    /// collector (nothing can be a copy).
    pub dedup_window_secs: u32,
}

impl FederationConfig {
    /// A config with no collectors yet and defaults otherwise.
    pub fn new(start_date: Date) -> Self {
        FederationConfig {
            collectors: Vec::new(),
            start_date,
            monitor: MonitorConfig::default(),
            checkpoint_bytes: 1 << 20,
            dedup_window_secs: 90,
        }
    }

    /// Appends one collector (builder style).
    pub fn collector(mut self, name: impl Into<String>, dir: impl Into<PathBuf>) -> Self {
        self.collectors.push(CollectorSpec {
            name: name.into(),
            dir: dir.into(),
        });
        self
    }
}

/// Hashes every byte of a framed record except its MRT header
/// timestamp (the first four bytes) — the cross-collector identity of
/// an update, computed before (and instead of) decoding it. FNV-1a
/// over the raw bytes: deterministic across runs, so a resumed
/// federation rebuilds the identical dedup window.
fn content_key(frame: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in frame.get(4..).unwrap_or(&[]) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one [`Federation::poll_once`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeedProgress {
    /// Update files fully consumed this pass.
    pub files_closed: u64,
    /// Day marks issued this pass (real and gap days).
    pub days_marked: u64,
    /// Gap days detected this pass, summed over collectors.
    pub gaps: u64,
    /// MRT records released to the engine this pass.
    pub records: u64,
    /// Whether the feed has consumed everything discovered.
    pub caught_up: bool,
}

/// One released update the window still remembers.
struct Released {
    /// Header timestamp of the released copy.
    ts: u32,
    /// Collectors counted for this update (bit `k` = collector `k`):
    /// the releasing one, then every collector whose copy deduped. A
    /// repeat from a counted collector is not a copy.
    collectors: u64,
    /// What a copy corroborates; `None` when the record announces no
    /// single-origin prefix.
    sighting: Option<Box<Sighting>>,
}

/// What [`DedupWindow::fold`] did with one framed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Folded {
    /// Fresh: decoded and ingested.
    Released,
    /// An in-window copy of a released update: corroborated only,
    /// never decoded.
    Deduped,
    /// Fresh but undecodable: counted, never remembered.
    Skipped,
}

/// The content-keyed clock-skew window: remembers each distinct
/// released update — its timestamp, the collectors counted for it,
/// and what a copy of it corroborates — and suppresses identical
/// copies from other collectors arriving within the window.
///
/// Eviction is keyed to the merge's *file* progress, not to record
/// arrival: the federation consumes whole files in the global order,
/// so a copy from the next collector's file for the same slot is
/// processed a full file later even though its timestamp sits within
/// seconds of the released copy. Entries therefore survive until a
/// newly opened file's nominal start time has moved more than two
/// windows past them — at which point no in-order record can match
/// within the skew allowance anymore. Both release and eviction are
/// pure functions of the consumed file sequence, so a resumed
/// federation replaying that sequence rebuilds the identical window.
struct DedupWindow {
    window: u32,
    /// Whether records are keyed at all: only with a non-zero window
    /// and more than one collector can a record be a copy.
    keyed: bool,
    /// Content key → the released copy.
    seen: HashMap<u64, Released>,
    /// Release-ordered entries for eviction.
    order: VecDeque<(u32, u64)>,
}

impl DedupWindow {
    fn new(window: u32, collectors: usize) -> Self {
        DedupWindow {
            window,
            keyed: window > 0 && collectors > 1,
            seen: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Advances the eviction clock to a newly opened file whose slot
    /// nominally starts at `head_ts`: entries more than two windows
    /// behind it can never be matched by an in-order record again
    /// (one window of slack for the released copy's own skew, one for
    /// the matching copy's).
    fn open_file(&mut self, head_ts: u32) {
        let horizon = head_ts.saturating_sub(2 * self.window);
        while let Some(&(entry_ts, key)) = self.order.front() {
            if entry_ts >= horizon {
                break;
            }
            if self.seen.get(&key).is_some_and(|r| r.ts == entry_ts) {
                self.seen.remove(&key);
            }
            self.order.pop_front();
        }
    }

    /// Folds one framed record from `collector` into `engine`. Keys
    /// the raw bytes first: an already-released update seen within the
    /// window from a collector not yet counted for it only
    /// corroborates, at the copy's own header timestamp, and is never
    /// decoded. Anything else is decoded; a record that fails to
    /// decode is skipped and never enters the window, one that decodes
    /// is remembered (replacing a stale or same-collector entry) and
    /// ingested.
    fn fold(&mut self, engine: &mut MonitorEngine, collector: u16, frame: &Bytes) -> Folded {
        let ts = frame_timestamp(frame);
        let bit = 1u64 << collector;
        let key = self.keyed.then(|| content_key(frame));
        let hit = key.and_then(|key| self.seen.get_mut(&key));
        if let Some(hit) =
            hit.filter(|hit| ts.abs_diff(hit.ts) <= self.window && hit.collectors & bit == 0)
        {
            hit.collectors |= bit;
            if let Some(sighting) = &hit.sighting {
                engine.corroborate_at(collector, sighting, ts);
            }
            return Folded::Deduped;
        }
        let Ok(record) = MrtRecord::decode(&mut frame.clone()) else {
            return Folded::Skipped;
        };
        if let Some(key) = key {
            let sighting = Sighting::of(&record)
                .filter(|s| !s.announced.is_empty())
                .map(Box::new);
            self.seen.insert(
                key,
                Released {
                    ts,
                    collectors: bit,
                    sighting,
                },
            );
            self.order.push_back((ts, key));
        }
        engine.ingest_record_from(collector, &record);
        Folded::Released
    }
}

/// The header timestamp of a framed record (the framer guarantees the
/// 12-byte header).
fn frame_timestamp(frame: &[u8]) -> u32 {
    u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]])
}

/// Per-pass totals of [`Federation::fold_frames`].
#[derive(Debug, Default)]
struct FoldTally {
    released: u64,
    deduped: u64,
    skipped: u64,
    /// Newest header timestamp among released and deduped records.
    newest: u64,
}

/// Per-collector scanning state: discovery, cursor and status, without
/// an engine or sink of its own.
struct CollectorUnit {
    id: u16,
    name: String,
    dir: PathBuf,
    cursor: FeedCursor,
    status: Arc<FeedStatus>,
    /// Sort key of this collector's last fully consumed file.
    done_key: Option<(Date, u16, String)>,
    /// Every file name ever observed (late-arrival detection).
    seen: HashSet<String>,
    /// Dates this collector contributed a consumed file for — a
    /// marked day absent from this set is a per-collector gap.
    ingested_dates: HashSet<Date>,
    /// This poll's directory scan.
    layout: Vec<FeedFile>,
    /// The current file's tail pathology has been tallied.
    tail_noted: bool,
}

impl CollectorUnit {
    /// The next unconsumed, in-window file — this collector's
    /// candidate for the global merge.
    fn next_file(&self, start_date: Date) -> Option<&FeedFile> {
        self.layout
            .iter()
            .filter(|f| u32::try_from(start_date.days_until(&f.date)).is_ok())
            .find(|f| {
                self.done_key
                    .as_ref()
                    .is_none_or(|k| f.sort_key() > (k.0, k.1, k.2.as_str()))
            })
    }

    /// Files discovered but not yet fully consumed.
    fn pending(&self, start_date: Date) -> u64 {
        self.layout
            .iter()
            .filter(|f| u32::try_from(start_date.days_until(&f.date)).is_ok())
            .filter(|f| {
                self.done_key
                    .as_ref()
                    .is_none_or(|k| f.sort_key() > (k.0, k.1, k.2.as_str()))
            })
            .count() as u64
    }

    /// The unix timestamp of this collector's newest discovered file.
    fn newest_ts(&self) -> u64 {
        self.layout
            .iter()
            .map(|f| f.slot_head_ts() as u64)
            .max()
            .unwrap_or(0)
    }
}

/// Aggregated federation counters plus the per-collector status
/// blocks — what a federated `/v1/feed` and `/v1/collectors` serve,
/// and where `/readyz` reads its max-across-collectors lag.
pub struct FederationStatus {
    units: Vec<Arc<FeedStatus>>,
    running: AtomicU64,
    caught_up: AtomicU64,
    /// `(collector name, file, offset)` of the global in-flight file.
    frontier: Mutex<(String, String, u64)>,
    days_marked: AtomicU64,
    /// Records released to the engine (post-dedup) — comparable to a
    /// single-collector fold's record count.
    released: AtomicU64,
    /// Identical copies suppressed by the dedup window (each one
    /// widened a vantage mask instead of touching route state).
    deduped: AtomicU64,
    checkpoints: AtomicU64,
    resumes: AtomicU64,
    /// Watermark-suppressed crash-window duplicates at resume.
    suppressed: AtomicU64,
    gaps: Mutex<Vec<(String, FeedGap)>>,
    dedup_window_secs: u32,
    /// The unlabelled `moas_feed_lag_seconds`: the max across
    /// collectors, the series the `feed_lag` alert rule watches.
    lag: Gauge,
}

impl FederationStatus {
    fn new(units: Vec<Arc<FeedStatus>>, dedup_window_secs: u32, registry: &Registry) -> Self {
        FederationStatus {
            units,
            lag: registry.gauge("moas_feed_lag_seconds", LAG_HELP),
            running: AtomicU64::new(0),
            caught_up: AtomicU64::new(0),
            frontier: Mutex::new((String::new(), String::new(), 0)),
            days_marked: AtomicU64::new(0),
            released: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            resumes: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            gaps: Mutex::new(Vec::new()),
            dedup_window_secs,
        }
    }

    /// Records released to the engine (post-dedup).
    pub fn released(&self) -> u64 {
        self.released.load(Ordering::Relaxed)
    }

    /// Identical cross-collector copies suppressed by the dedup window.
    pub fn deduped(&self) -> u64 {
        self.deduped.load(Ordering::Relaxed)
    }

    /// Per-collector gap events observed so far, `(collector, gap)`.
    pub fn gaps(&self) -> Vec<(String, FeedGap)> {
        self.gaps.lock().expect("federation status lock").clone()
    }

    /// The federated `/v1/collectors` array: one status block per
    /// vantage point, each leading with its collector name.
    pub fn collectors_json(&self) -> Value {
        Value::Array(self.units.iter().map(|u| u.to_json()).collect())
    }

    /// Per-collector status blocks, in collector-id order.
    pub fn units(&self) -> &[Arc<FeedStatus>] {
        &self.units
    }

    /// Publishes the max-across-collectors lag on the unlabelled gauge.
    fn publish_lag(&self) {
        self.lag
            .set(moas_serve::FeedStatusSource::lag_seconds(self));
    }
}

impl moas_serve::FeedStatusSource for FederationStatus {
    /// The `/v1/feed` body: the per-collector counters aggregated
    /// across collectors, the dedup counters, and a `collectors` array
    /// (one block per vantage point). Gap rows carry the collector
    /// that went dark.
    fn status_json(&self) -> Value {
        let snaps: Vec<_> = self.units.iter().map(|u| u.snapshot()).collect();
        let frontier = self
            .frontier
            .lock()
            .expect("federation status lock")
            .clone();
        let gaps = self.gaps.lock().expect("federation status lock").clone();
        let sum = |f: &dyn Fn(&crate::status::FeedStatusSnapshot) -> u64| -> u64 {
            snaps.iter().map(f).sum()
        };
        Value::Object(vec![
            (
                "running".into(),
                Value::Bool(self.running.load(Ordering::Relaxed) != 0),
            ),
            (
                "caught_up".into(),
                Value::Bool(self.caught_up.load(Ordering::Relaxed) != 0),
            ),
            (
                "cursor".into(),
                Value::Object(vec![
                    ("collector".into(), Value::String(frontier.0)),
                    ("file".into(), Value::String(frontier.1)),
                    ("offset".into(), Value::U64(frontier.2)),
                ]),
            ),
            (
                "lag".into(),
                Value::Object(vec![
                    (
                        "files_pending".into(),
                        Value::U64(sum(&|s| s.files_pending)),
                    ),
                    (
                        "last_event_at".into(),
                        Value::U64(snaps.iter().map(|s| s.last_event_at).max().unwrap_or(0)),
                    ),
                    ("lag_seconds".into(), Value::U64(self.lag_seconds())),
                ]),
            ),
            (
                "day".into(),
                Value::Object(vec![
                    ("files_seen".into(), Value::U64(sum(&|s| s.day_files_seen))),
                    ("files_done".into(), Value::U64(sum(&|s| s.day_files_done))),
                ]),
            ),
            (
                "files_seen".into(),
                Value::U64(sum(&|s| s.files_seen_total)),
            ),
            ("files_done".into(), Value::U64(sum(&|s| s.files_done))),
            (
                "days_marked".into(),
                Value::U64(self.days_marked.load(Ordering::Relaxed)),
            ),
            (
                "records".into(),
                Value::U64(self.released.load(Ordering::Relaxed)),
            ),
            (
                "records_skipped".into(),
                Value::U64(sum(&|s| s.records_skipped)),
            ),
            ("gap_count".into(), Value::U64(sum(&|s| s.gap_count))),
            (
                "gaps".into(),
                Value::Array(
                    gaps.iter()
                        .map(|(collector, g)| {
                            Value::Object(vec![
                                ("date".into(), Value::String(g.date.to_string())),
                                ("day".into(), Value::U64(g.day as u64)),
                                ("collector".into(), Value::String(collector.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("late_files".into(), Value::U64(sum(&|s| s.late_files))),
            (
                "truncated_tails".into(),
                Value::U64(sum(&|s| s.truncated_tails)),
            ),
            (
                "checkpoints".into(),
                Value::U64(self.checkpoints.load(Ordering::Relaxed)),
            ),
            (
                "resumes".into(),
                Value::U64(self.resumes.load(Ordering::Relaxed)),
            ),
            (
                "suppressed_duplicates".into(),
                Value::U64(self.suppressed.load(Ordering::Relaxed)),
            ),
            (
                "deduped".into(),
                Value::U64(self.deduped.load(Ordering::Relaxed)),
            ),
            (
                "dedup_window_secs".into(),
                Value::U64(self.dedup_window_secs as u64),
            ),
            ("collectors".into(), self.collectors_json()),
        ])
    }

    /// The worst lag across collectors — one stalled vantage point
    /// cannot hide behind a healthy one.
    fn lag_seconds(&self) -> u64 {
        self.units
            .iter()
            .map(|u| u.snapshot().lag_seconds)
            .max()
            .unwrap_or(0)
    }

    fn collectors(&self) -> Option<Value> {
        Some(self.collectors_json())
    }
}

/// The feed driver: N ≥ 1 collector units, one merged release order,
/// one engine, one history sink.
pub struct Federation {
    config: FederationConfig,
    service: Arc<HistoryService>,
    engine: Option<MonitorEngine>,
    engine_metrics: Arc<EngineMetrics>,
    /// The shared registry; its tracer carries each poll's
    /// `feed_poll` trace.
    registry: Arc<Registry>,
    /// Stage timers: one whole discovery-and-ingest pass.
    stage_poll: Histogram,
    /// Stage timers: one tail read over the in-flight file.
    stage_tail: Histogram,
    /// Stage timers: one pass's fold (dedup, decode, ingest).
    stage_decode: Histogram,
    units: Vec<CollectorUnit>,
    status: Arc<FederationStatus>,
    dedup: DedupWindow,
    /// Per-shard suppression watermarks from the durable tail at
    /// resume.
    watermarks: HashMap<usize, u64>,
    /// Next global day position awaiting its mark.
    next_day: u32,
    /// The single globally in-flight file: `(unit index, file, tailer)`.
    current: Option<(usize, FeedFile, FileTailer)>,
    days_marked: u64,
    bytes_since_checkpoint: u64,
    /// A v1 cursor was adopted and must be rewritten as v2.
    migrate_v1: bool,
    /// `finalize` declared every in-flight head complete.
    finalizing: bool,
}

impl Federation {
    /// Opens a federation over `service`'s store, resuming from any
    /// per-collector cursors found there (a legacy v1 `FEED_CURSOR`
    /// is adopted as collector 0's position and migrated to v2 at the
    /// next checkpoint).
    pub fn open(config: FederationConfig, service: Arc<HistoryService>) -> io::Result<Federation> {
        Federation::open_with_registry(config, service, Arc::new(Registry::new()))
    }

    /// [`Federation::open`] with all metric series on `registry` —
    /// share it with the query server so one `/metrics` scrape covers
    /// ingest and serving in the same document.
    pub fn open_with_registry(
        mut config: FederationConfig,
        service: Arc<HistoryService>,
        registry: Arc<Registry>,
    ) -> io::Result<Federation> {
        if config.collectors.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a federation needs at least one collector",
            ));
        }
        if config.collectors.len() > 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "vantage masks are 64-bit: at most 64 collectors per federation",
            ));
        }
        // The engine tracks corroboration exactly when federated.
        config.monitor.collectors = config.collectors.len();
        let engine = MonitorEngine::with_registry(config.monitor, Arc::clone(&registry));
        let engine_metrics = engine.metrics_handle();
        service.attach_metrics(engine.metrics_handle());

        let mut units = Vec::with_capacity(config.collectors.len());
        for (id, spec) in config.collectors.iter().enumerate() {
            units.push(CollectorUnit {
                id: id as u16,
                name: spec.name.clone(),
                dir: spec.dir.clone(),
                cursor: FeedCursor {
                    collector: id as u32,
                    ..FeedCursor::default()
                },
                status: Arc::new(FeedStatus::for_collector(&registry, &spec.name)),
                done_key: None,
                seen: HashSet::new(),
                ingested_dates: HashSet::new(),
                layout: Vec::new(),
                tail_noted: false,
            });
        }
        let status = Arc::new(FederationStatus::new(
            units.iter().map(|u| Arc::clone(&u.status)).collect(),
            config.dedup_window_secs,
            &registry,
        ));

        let mut fed = Federation {
            dedup: DedupWindow::new(config.dedup_window_secs, config.collectors.len()),
            engine: Some(engine),
            engine_metrics,
            stage_poll: registry.stage_histogram("feed_poll"),
            stage_tail: registry.stage_histogram("feed_tail"),
            stage_decode: registry.stage_histogram("mrt_decode"),
            registry,
            units,
            status,
            watermarks: HashMap::new(),
            next_day: 0,
            current: None,
            days_marked: 0,
            bytes_since_checkpoint: 0,
            migrate_v1: false,
            finalizing: false,
            config,
            service,
        };
        fed.resume()?;
        fed.status.running.store(1, Ordering::Relaxed);
        for unit in &fed.units {
            unit.status.set_running(true);
        }
        fed.publish_status(false);
        Ok(fed)
    }

    /// The aggregated live status (wire it to a query server's
    /// `/v1/feed`, `/v1/collectors`, and `/readyz`).
    pub fn status(&self) -> Arc<FederationStatus> {
        Arc::clone(&self.status)
    }

    /// The per-collector cursors (durable fields as of the last
    /// checkpoint), in collector-id order.
    pub fn cursors(&self) -> Vec<FeedCursor> {
        self.units.iter().map(|u| u.cursor.clone()).collect()
    }

    fn engine(&mut self) -> &mut MonitorEngine {
        self.engine.as_mut().expect("engine present until shutdown")
    }

    /// Day position of `date`; `None` for dates before the window.
    fn day_pos(&self, date: Date) -> Option<u32> {
        u32::try_from(self.config.start_date.days_until(&date)).ok()
    }

    /// Loads every collector's cursor and replays all archives up to
    /// them in the global merged order, sink disabled — rebuilding
    /// monitor state, vantage masks, and the dedup window exactly as
    /// the live run left them.
    fn resume(&mut self) -> io::Result<()> {
        let bad = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
        let dir = self.service.dir().to_path_buf();
        let mut found = Vec::with_capacity(self.units.len());
        let mut any = false;
        for unit in &self.units {
            let loaded = FeedCursor::load_for(&dir, unit.id as u32)?;
            if let Some((cursor, v1)) = &loaded {
                any = true;
                self.migrate_v1 |= *v1;
                if cursor.shards != 0 && cursor.shards as usize != self.config.monitor.shards {
                    return Err(bad(format!(
                        "collector {} cursor was written at {} monitor shards, federation \
                         configured for {}: shard routing would not line up",
                        unit.name, cursor.shards, self.config.monitor.shards
                    )));
                }
            }
            found.push(loaded.map(|(c, _)| c));
        }
        for unit in &mut self.units {
            unit.layout = scan_layout(&unit.dir)?;
        }
        if !any {
            return Ok(()); // a fresh federation: nothing to rebuild
        }

        // The replay plan: every file at or below its collector's
        // cursor, in the global merged order. The globally in-flight
        // file is the cursor position with the greatest
        // (date, hhmm, collector) — strict ordering guarantees every
        // other collector's cursor file is fully consumed.
        struct PlanEntry {
            unit: usize,
            file: FeedFile,
            limit: u64,
            is_target: bool,
        }
        let mut plan: Vec<PlanEntry> = Vec::new();
        let mut frontier: Option<(Date, u16, u16)> = None;
        for (idx, cursor) in found.iter().enumerate() {
            let Some(cursor) = cursor else { continue };
            if cursor.file.is_empty() {
                continue;
            }
            let target = self.units[idx]
                .layout
                .iter()
                .find(|f| f.name == cursor.file)
                .cloned()
                .ok_or_else(|| {
                    bad(format!(
                        "collector {} cursor file {} is gone from the archive; cannot \
                         rebuild monitor state",
                        self.units[idx].name, cursor.file
                    ))
                })?;
            let key = (target.date, target.hhmm, idx as u16);
            if frontier.is_none_or(|f| key > f) {
                frontier = Some(key);
            }
            for file in self.units[idx].layout.clone() {
                let file_key = (file.date, file.hhmm, file.name.as_str());
                let target_key = (target.date, target.hhmm, target.name.as_str());
                if file_key > target_key || self.day_pos(file.date).is_none() {
                    continue;
                }
                let is_target = file.name == cursor.file;
                plan.push(PlanEntry {
                    unit: idx,
                    file,
                    limit: if is_target { cursor.offset } else { u64::MAX },
                    is_target,
                });
            }
        }
        plan.sort_by(|a, b| {
            (a.file.date, a.file.hhmm, a.unit, a.file.name.as_str()).cmp(&(
                b.file.date,
                b.file.hhmm,
                b.unit,
                b.file.name.as_str(),
            ))
        });

        let frontier = frontier.expect("some cursor had a file");
        let mut replayed_next = 0u32;
        for entry in plan {
            let pos = self.day_pos(entry.file.date).expect("filtered above");
            // Re-issue the engine-side day marks the live run issued.
            for idx in replayed_next..pos {
                let date = self.config.start_date.plus_days(idx as i64);
                self.engine().mark_day(idx as usize, date);
            }
            replayed_next = replayed_next.max(pos);

            let mut tailer = FileTailer::open(&entry.file.path, 0);
            let pass = tailer.frame()?;
            if entry.is_target && tailer.consumed() < entry.limit {
                return Err(bad(format!(
                    "collector {} cursor offset {} of {} exceeds its {} decodable bytes",
                    self.units[entry.unit].name,
                    entry.limit,
                    entry.file.name,
                    tailer.consumed()
                )));
            }
            self.dedup.open_file(entry.file.slot_head_ts());
            self.fold_frames(entry.unit, &pass, entry.limit);
            self.engine().drain_events(); // regenerated, already durable

            let unit = &mut self.units[entry.unit];
            unit.seen.insert(entry.file.name.clone());
            let is_frontier_file =
                entry.is_target && (entry.file.date, entry.file.hhmm, unit.id) == frontier;
            if is_frontier_file {
                // The globally in-flight file: reopen mid-file.
                self.current = Some((
                    entry.unit,
                    entry.file.clone(),
                    FileTailer::open(&entry.file.path, entry.limit),
                ));
            } else {
                unit.done_key = Some((entry.file.date, entry.file.hhmm, entry.file.name.clone()));
                unit.ingested_dates.insert(entry.file.date);
            }
        }

        // Restore the durable global day position (all cursors carry
        // it; take the max in case a crash interleaved their renames).
        let stored_next = found
            .iter()
            .flatten()
            .map(|c| c.next_day)
            .max()
            .unwrap_or(0);
        if stored_next == replayed_next + 1 {
            // The frontier file's own day was already marked: re-issue
            // the engine-side mark.
            let date = self.config.start_date.plus_days(replayed_next as i64);
            self.engine().mark_day(replayed_next as usize, date);
            self.engine().drain_events();
            replayed_next += 1;
        } else if stored_next != replayed_next {
            return Err(bad(format!(
                "cursor next_day {stored_next} does not match the archives' day structure \
                 ({replayed_next}); was the federation reconfigured?"
            )));
        }
        self.next_day = replayed_next;

        for (idx, cursor) in found.into_iter().enumerate() {
            if let Some(cursor) = cursor {
                self.units[idx].cursor = FeedCursor {
                    collector: idx as u32,
                    ..cursor
                };
                self.units[idx].status.add_resume();
            }
        }
        self.watermarks = self.service.tail_watermarks().into_iter().collect();
        self.status.resumes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Drops drained events the durable log already holds (resume
    /// after a seal-vs-cursor crash window).
    fn filter_duplicates(&self, drained: Vec<SeqEvent>) -> Vec<SeqEvent> {
        if self.watermarks.is_empty() {
            return drained;
        }
        let before = drained.len();
        let fresh: Vec<SeqEvent> = drained
            .into_iter()
            .filter(|e| self.watermarks.get(&e.shard).is_none_or(|w| e.seq > *w))
            .collect();
        let suppressed = (before - fresh.len()) as u64;
        if suppressed > 0 {
            self.status
                .suppressed
                .fetch_add(suppressed, Ordering::Relaxed);
        }
        fresh
    }

    /// Stages every collector's v2 cursor, then renames them all into
    /// place — the atomic multi-cursor swap. A v1 cursor adopted at
    /// open is rewritten here for the first time (the migration).
    fn persist_cursors(&mut self) -> io::Result<()> {
        if let Some((uidx, file, tailer)) = &self.current {
            let cursor = &mut self.units[*uidx].cursor;
            cursor.file = file.name.clone();
            cursor.offset = tailer.consumed();
        }
        let dir = self.service.dir().to_path_buf();
        let mut staged: Vec<CursorStage> = Vec::with_capacity(self.units.len());
        for unit in &mut self.units {
            unit.cursor.shards = self.config.monitor.shards as u32;
            unit.cursor.next_day = self.next_day;
            staged.push(unit.cursor.stage_v2(&dir)?);
        }
        for stage in staged {
            stage.commit()?;
        }
        self.migrate_v1 = false;
        self.bytes_since_checkpoint = 0;
        Ok(())
    }

    /// Drains the engine into the service and seals, then persists
    /// every cursor — the durable commit point.
    fn durable_checkpoint(&mut self) -> io::Result<()> {
        let drained = self.engine().drain_events();
        let fresh = self.filter_duplicates(drained);
        self.service.append(&fresh)?;
        self.service.checkpoint()?;
        self.persist_cursors()?;
        self.status.checkpoints.fetch_add(1, Ordering::Relaxed);
        for unit in &self.units {
            unit.status.add_checkpoint();
        }
        Ok(())
    }

    /// Marks every global day position in `next_day..through`,
    /// surfacing a per-collector gap for each vantage point that
    /// contributed no file for the day.
    fn mark_days_before(&mut self, through: u32, progress: &mut FeedProgress) -> io::Result<()> {
        for idx in self.next_day..through {
            let date = self.config.start_date.plus_days(idx as i64);
            for uidx in 0..self.units.len() {
                if !self.units[uidx].ingested_dates.contains(&date) {
                    self.units[uidx].cursor.gaps += 1;
                    self.units[uidx].status.push_gap(FeedGap { date, day: idx });
                    let name = self.units[uidx].name.clone();
                    self.status
                        .gaps
                        .lock()
                        .expect("federation status lock")
                        .push((name, FeedGap { date, day: idx }));
                    progress.gaps += 1;
                }
            }
            self.engine().mark_day(idx as usize, date);
            let drained = self.engine().drain_events();
            let fresh = self.filter_duplicates(drained);
            self.service.append(&fresh)?;
            self.service.mark_day(idx as usize)?;
            self.next_day = idx + 1;
            self.days_marked += 1;
            self.status
                .days_marked
                .store(self.days_marked, Ordering::Relaxed);
            for unit in &self.units {
                unit.status.reset_day_files();
            }
            progress.days_marked += 1;
        }
        Ok(())
    }

    /// Folds the frames of one pass from unit `uidx` that end at or
    /// before file offset `limit` through the dedup window into the
    /// engine: fresh records are released (first copy wins), identical
    /// in-window copies only corroborate. The one fold both the live
    /// path and the sink-disabled replay at open run.
    fn fold_frames(&mut self, uidx: usize, pass: &FramePass, limit: u64) -> FoldTally {
        let collector = self.units[uidx].id;
        let engine = self.engine.as_mut().expect("engine present");
        let mut tally = FoldTally::default();
        for (frame, &end) in pass.frames.iter().zip(&pass.ends) {
            if end > limit {
                break;
            }
            match self.dedup.fold(engine, collector, frame) {
                Folded::Released => tally.released += 1,
                Folded::Deduped => tally.deduped += 1,
                Folded::Skipped => {
                    tally.skipped += 1;
                    continue;
                }
            }
            tally.newest = tally.newest.max(frame_timestamp(frame) as u64);
        }
        tally
    }

    /// Folds one live pass from unit `uidx` and books it: stage timer,
    /// status, lag, cursor record count, dedup counters.
    fn ingest_pass(&mut self, uidx: usize, pass: &FramePass, progress: &mut FeedProgress) {
        let started = Instant::now();
        let tally = self.fold_frames(uidx, pass, u64::MAX);
        if !pass.frames.is_empty() {
            let elapsed = started.elapsed();
            self.stage_decode.observe_duration(elapsed);
            let tracer = self.registry.tracer();
            tracer.record_stage(tracer.current(), "mrt_decode", elapsed);
        }
        let folded = tally.released + tally.deduped;
        if folded > 0 {
            self.units[uidx].status.observe_event_at(tally.newest);
            self.engine_metrics.lag.observe_ingested(tally.newest);
            self.units[uidx].cursor.records += folded;
            self.status
                .released
                .fetch_add(tally.released, Ordering::Relaxed);
            self.status
                .deduped
                .fetch_add(tally.deduped, Ordering::Relaxed);
            progress.records += tally.released;
        }
        if tally.skipped > 0 {
            self.units[uidx].status.add_skipped(tally.skipped);
        }
        self.bytes_since_checkpoint += pass.bytes_read;
    }

    fn publish_status(&self, caught_up: bool) {
        let frontier = match &self.current {
            Some((uidx, file, tailer)) => (
                self.units[*uidx].name.clone(),
                file.name.clone(),
                tailer.consumed(),
            ),
            None => {
                // Between files: report the most advanced cursor.
                self.units
                    .iter()
                    .max_by_key(|u| (u.done_key.clone(), u.id))
                    .map(|u| (u.name.clone(), u.cursor.file.clone(), u.cursor.offset))
                    .unwrap_or_default()
            }
        };
        *self.status.frontier.lock().expect("federation status lock") = frontier;
        self.status
            .caught_up
            .store(caught_up as u64, Ordering::Relaxed);
        for unit in &self.units {
            let (file, offset) = match &self.current {
                Some((uidx, f, t)) if *uidx == unit.id as usize => (f.name.as_str(), t.consumed()),
                _ => (unit.cursor.file.as_str(), unit.cursor.offset),
            };
            unit.status.set_position(file, offset);
            unit.status.set_caught_up(caught_up);
            unit.status
                .set_counts(unit.cursor.records, unit.cursor.gaps, self.days_marked);
            unit.status
                .set_files(unit.cursor.files_done, unit.pending(self.config.start_date));
            // Per-collector stream-time lag: how far this vantage
            // point's consumption trails its own newest file. The
            // global barrier makes a stalled collector visible here —
            // healthy collectors' unconsumed files accumulate lag.
            let lag = if unit.pending(self.config.start_date) == 0 {
                0
            } else {
                unit.newest_ts()
                    .saturating_sub(unit.status.snapshot().last_event_at)
            };
            unit.status.set_lag_seconds(lag);
        }
        self.status.publish_lag();
    }

    /// One merged discovery-and-ingest pass across every collector:
    /// register arrivals, consume files in the global
    /// `(date, hhmm, collector)` order, tail the single globally
    /// in-flight file. Returns what happened; call in a loop.
    pub fn poll_once(&mut self) -> io::Result<FeedProgress> {
        let started = Instant::now();
        // Root span of the ingest trace, published as the ambient
        // context for the pass: tail and decode record under it
        // directly, shard-apply contexts cross the channel with each
        // batch, and the history append/seal/publish stages (driven
        // from this thread) pick it up ambiently.
        let registry = Arc::clone(&self.registry);
        let span = registry.tracer().span("feed_poll");
        registry.tracer().set_current(span.context());
        let result = self.poll_once_inner();
        registry.tracer().clear_current();
        span.finish();
        self.stage_poll.observe_duration(started.elapsed());
        result
    }

    fn poll_once_inner(&mut self) -> io::Result<FeedProgress> {
        let mut progress = FeedProgress::default();
        for uidx in 0..self.units.len() {
            let layout = scan_layout(&self.units[uidx].dir)?;
            let current_name = match &self.current {
                Some((c, f, _)) if *c == uidx => Some(f.name.clone()),
                _ => None,
            };
            let unit = &mut self.units[uidx];
            for file in &layout {
                if unit.seen.contains(&file.name) {
                    continue;
                }
                unit.seen.insert(file.name.clone());
                unit.status.add_file_seen();
                let below_floor = unit
                    .done_key
                    .as_ref()
                    .is_some_and(|k| file.sort_key() <= (k.0, k.1, k.2.as_str()))
                    || u32::try_from(self.config.start_date.days_until(&file.date)).is_err();
                if below_floor && Some(&file.name) != current_name.as_ref() {
                    unit.status.add_late_file();
                }
            }
            unit.layout = layout;
        }

        loop {
            match self.current.take() {
                None => {
                    // The globally smallest unconsumed file across
                    // all collectors — ties broken by collector id,
                    // the released order the dedup window keys on.
                    let next = self
                        .units
                        .iter()
                        .enumerate()
                        .filter_map(|(idx, u)| {
                            u.next_file(self.config.start_date)
                                .map(|f| (f.date, f.hhmm, idx, f.clone()))
                        })
                        .min_by(|a, b| {
                            (a.0, a.1, a.2, a.3.name.as_str()).cmp(&(
                                b.0,
                                b.1,
                                b.2,
                                b.3.name.as_str(),
                            ))
                        });
                    let Some((_, _, uidx, file)) = next else {
                        progress.caught_up = true;
                        break;
                    };
                    let pos = self.day_pos(file.date).expect("filtered in next_file");
                    self.mark_days_before(pos, &mut progress)?;
                    let unit = &mut self.units[uidx];
                    if !unit.cursor.file.is_empty() && unit.cursor.file != file.name {
                        unit.cursor.files_done += 1;
                    }
                    self.dedup.open_file(file.slot_head_ts());
                    self.current = Some((uidx, file.clone(), FileTailer::open(&file.path, 0)));
                    self.units[uidx].tail_noted = false;
                    self.persist_cursors()?;
                }
                Some((uidx, file, mut tailer)) => {
                    let tail_started = Instant::now();
                    let pass = tailer.frame()?;
                    let elapsed = tail_started.elapsed();
                    self.stage_tail.observe_duration(elapsed);
                    let tracer = self.registry.tracer();
                    tracer.record_stage(tracer.current(), "feed_tail", elapsed);
                    self.current = Some((uidx, file, tailer));
                    self.ingest_pass(uidx, &pass, &mut progress);
                    let (uidx, file, mut tailer) = self.current.take().expect("just stored");
                    if tailer.poisoned() && !self.units[uidx].tail_noted {
                        self.units[uidx].tail_noted = true;
                        self.units[uidx].status.add_truncated_tail();
                    }

                    // Final once a newer file exists in the *same*
                    // collector's directory (or finalize declared the
                    // whole federation drained).
                    let is_final = self.finalizing
                        || self.units[uidx]
                            .layout
                            .iter()
                            .any(|f| f.sort_key() > file.sort_key());
                    if is_final {
                        if tailer.pending_bytes() > 0 || tailer.poisoned() {
                            if !self.units[uidx].tail_noted {
                                self.units[uidx].tail_noted = true;
                                self.units[uidx].status.add_truncated_tail();
                            }
                            tailer.finalize();
                        }
                        {
                            let unit = &mut self.units[uidx];
                            unit.ingested_dates.insert(file.date);
                            unit.done_key = Some((file.date, file.hhmm, file.name.clone()));
                        }
                        self.current = Some((uidx, file, tailer));
                        self.durable_checkpoint()?;
                        self.current = None;
                        progress.files_closed += 1;
                        self.units[uidx].status.add_file_done();
                        continue;
                    }

                    // The in-flight head of the globally smallest
                    // slot: everything available is consumed. The
                    // merge cannot pass it — caught up until the
                    // collector appends more or finalizes it.
                    self.current = Some((uidx, file, tailer));
                    if self.config.checkpoint_bytes > 0
                        && self.bytes_since_checkpoint >= self.config.checkpoint_bytes
                    {
                        self.durable_checkpoint()?;
                    }
                    progress.caught_up = true;
                    break;
                }
            }
        }

        self.publish_status(progress.caught_up);
        Ok(progress)
    }

    /// Declares every in-flight head complete — no collector will
    /// grow its newest file again — consuming all remaining records
    /// in the merged order and marking every covered day. What
    /// window-bounded replays and tests need.
    pub fn finalize(&mut self) -> io::Result<FeedProgress> {
        self.finalizing = true;
        let mut progress = self.poll_once()?;
        // Every consumed file's day is complete: mark through the
        // last covered position.
        let last = self
            .units
            .iter()
            .flat_map(|u| u.ingested_dates.iter().copied())
            .max();
        if let Some(date) = last {
            let pos = self.day_pos(date).expect("ingested dates are in-window");
            self.mark_days_before(pos + 1, &mut progress)?;
        }
        self.durable_checkpoint()?;
        self.publish_status(true);
        for unit in &self.units {
            unit.status.set_lag_seconds(0);
        }
        self.status.publish_lag();
        Ok(progress)
    }

    /// Graceful stop: checkpoints at the exact current position,
    /// shuts the engine down, and returns the final cursors plus the
    /// monitor's report.
    pub fn shutdown(mut self) -> io::Result<(Vec<FeedCursor>, MonitorReport)> {
        self.durable_checkpoint()?;
        self.status.running.store(0, Ordering::Relaxed);
        for unit in &self.units {
            unit.status.set_running(false);
        }
        let report = self
            .engine
            .take()
            .expect("engine present until shutdown")
            .finish();
        let cursors = self.units.iter().map(|u| u.cursor.clone()).collect();
        Ok((cursors, report))
    }

    /// The registry every federation series lives on.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moas_bgp::BgpMessage;
    use moas_monitor::MonitorEvent;
    use moas_mrt::bgp4mp::Bgp4mpMessage;
    use moas_mrt::record::MrtBody;

    fn announce(peer_as: u32, ts: u32, prefix: &str, origin: u32) -> MrtRecord {
        use moas_bgp::attrs::Attrs;
        use moas_bgp::message::UpdateMsg;
        use moas_mrt::bgp4mp::PeeringHeader;
        MrtRecord {
            timestamp: ts,
            body: MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                header: PeeringHeader {
                    peer_as: moas_net::Asn::new(peer_as),
                    local_as: moas_net::Asn::new(6447),
                    if_index: 0,
                    peer_addr: "10.0.0.1".parse().unwrap(),
                    local_addr: "10.0.0.2".parse().unwrap(),
                },
                message: BgpMessage::Update(UpdateMsg {
                    withdrawn: vec![],
                    attrs: Attrs::announcement(
                        format!("{peer_as} {origin}").parse().unwrap(),
                        std::net::Ipv4Addr::new(10, 0, 0, 1),
                    ),
                    announced: vec![prefix.parse().unwrap()],
                }),
                as4: false,
            }),
        }
    }

    fn withdraw(peer_as: u32, ts: u32, prefix: &str) -> MrtRecord {
        let mut record = announce(peer_as, ts, prefix, 0);
        if let MrtBody::Bgp4mpMessage(m) = &mut record.body {
            if let BgpMessage::Update(update) = &mut m.message {
                update.withdrawn = std::mem::take(&mut update.announced);
                update.attrs = Default::default();
            }
        }
        record
    }

    /// The raw bytes a collector would have written for `ts`.
    fn frame(ts: u32, prefix: &str, origin: u32) -> Bytes {
        announce(100, ts, prefix, origin).encode().freeze()
    }

    /// `frame` with the low bit of byte `at` flipped.
    fn flipped(frame: &Bytes, at: usize) -> Bytes {
        let mut raw = frame.to_vec();
        raw[at] ^= 0x01;
        Bytes::from(raw)
    }

    fn decoded(frame: &Bytes) -> Bgp4mpMessage {
        match MrtRecord::decode(&mut frame.clone())
            .expect("decodable")
            .body
        {
            MrtBody::Bgp4mpMessage(m) => m,
            other => panic!("not a BGP4MP message: {other:?}"),
        }
    }

    fn engine(collectors: usize) -> MonitorEngine {
        MonitorEngine::new(MonitorConfig {
            collectors,
            ..MonitorConfig::with_shards(1)
        })
    }

    #[test]
    fn content_key_ignores_the_timestamp_and_nothing_else() {
        let a = frame(100, "192.0.2.0/24", 7);
        assert_eq!(
            content_key(&a),
            content_key(&frame(160, "192.0.2.0/24", 7)),
            "skew-only copies match"
        );
        let base = decoded(&a);
        let BgpMessage::Update(base_update) = &base.message else {
            panic!("an UPDATE");
        };
        // The body opens with the peering header (peer AS first) and
        // ends with the NLRI (length byte + 3 octets of the /24),
        // right behind the last path attribute.
        let peer = flipped(&a, 13);
        let attr = flipped(&a, a.len() - 5);
        let nlri = flipped(&a, a.len() - 1);
        assert_ne!(decoded(&peer).header, base.header);
        let BgpMessage::Update(attr_update) = decoded(&attr).message else {
            panic!("an UPDATE");
        };
        assert_ne!(attr_update.attrs, base_update.attrs);
        assert_eq!(attr_update.announced, base_update.announced);
        let BgpMessage::Update(nlri_update) = decoded(&nlri).message else {
            panic!("an UPDATE");
        };
        assert_eq!(nlri_update.attrs, base_update.attrs);
        assert_ne!(nlri_update.announced, base_update.announced);
        for (what, f) in [
            ("peering header", peer),
            ("attribute", attr),
            ("NLRI", nlri),
        ] {
            assert_ne!(
                content_key(&f),
                content_key(&a),
                "{what} flip must change the key"
            );
        }
    }

    #[test]
    fn fold_suppresses_in_window_copies_and_evicts() {
        let mut engine = engine(4);
        let mut w = DedupWindow::new(60, 4);
        let mut fold = |w: &mut DedupWindow, collector: u16, ts: u32, prefix: &str| {
            w.fold(&mut engine, collector, &frame(ts, prefix, 7))
        };
        w.open_file(1_000);
        assert_eq!(fold(&mut w, 0, 1_000, "192.0.2.0/24"), Folded::Released);
        assert_eq!(fold(&mut w, 1, 1_030, "192.0.2.0/24"), Folded::Deduped);
        assert_eq!(
            fold(&mut w, 2, 950, "192.0.2.0/24"),
            Folded::Deduped,
            "a copy skewed early dedups too"
        );
        assert_eq!(
            fold(&mut w, 3, 1_061, "192.0.2.0/24"),
            Folded::Released,
            "beyond the window the update is a fresh (re-)announcement"
        );
        // A different update is never confused for the first.
        assert_eq!(fold(&mut w, 1, 1_000, "198.51.100.0/24"), Folded::Released);
        // Entries survive same-slot file turnover: the next
        // collector's copy is processed a whole file later but still
        // dedups by timestamp skew.
        w.open_file(1_000);
        assert_eq!(fold(&mut w, 0, 1_090, "192.0.2.0/24"), Folded::Deduped);
        // A file two windows past the entries evicts them; the same
        // content then releases as a genuine re-announcement.
        w.open_file(10_000);
        assert!(w.seen.is_empty(), "evicted entries must leave the map");
        assert_eq!(fold(&mut w, 1, 10_000, "192.0.2.0/24"), Folded::Released);
    }

    #[test]
    fn fold_dedups_a_copy_exactly_one_window_away() {
        let mut engine = engine(3);
        let mut w = DedupWindow::new(60, 3);
        w.open_file(1_000);
        let px = "192.0.2.0/24";
        assert_eq!(
            w.fold(&mut engine, 0, &frame(1_000, px, 7)),
            Folded::Released
        );
        assert_eq!(
            w.fold(&mut engine, 1, &frame(1_060, px, 7)),
            Folded::Deduped,
            "late by exactly the window"
        );
        assert_eq!(
            w.fold(&mut engine, 2, &frame(940, px, 7)),
            Folded::Deduped,
            "early by exactly the window"
        );
    }

    /// A session that announces, withdraws and re-announces a prefix
    /// with the same attributes inside the window is flapping, not
    /// echoing: the re-announcement is released and the route
    /// survives — with one collector, and when the flapping collector
    /// had already been counted as a copy.
    #[test]
    fn same_collector_reannouncement_is_released_not_deduped() {
        let prefix = "192.0.2.0/24";
        let ann = |ts| announce(100, ts, prefix, 7).encode().freeze();
        let wd = |ts| withdraw(100, ts, prefix).encode().freeze();

        let mut one = engine(1);
        let mut w = DedupWindow::new(90, 1);
        w.open_file(1_000);
        for f in [ann(1_000), wd(1_010), ann(1_020)] {
            assert_eq!(w.fold(&mut one, 0, &f), Folded::Released);
        }
        assert_eq!(one.finish().routes, 1, "the re-announced route survives");

        let mut two = engine(2);
        let mut w = DedupWindow::new(90, 2);
        w.open_file(1_000);
        assert_eq!(w.fold(&mut two, 0, &ann(1_000)), Folded::Released);
        assert_eq!(w.fold(&mut two, 1, &ann(1_025)), Folded::Deduped);
        assert_eq!(w.fold(&mut two, 1, &wd(1_030)), Folded::Released);
        assert_eq!(
            w.fold(&mut two, 1, &ann(1_040)),
            Folded::Released,
            "b already counted for the announcement: this is b re-announcing"
        );
        assert_eq!(two.finish().routes, 1, "the re-announced route survives");
    }

    #[test]
    fn duplicate_corroborates_at_its_own_timestamp() {
        let mut engine = engine(2);
        let mut w = DedupWindow::new(90, 2);
        w.open_file(1_000);
        // Two sessions disagree on the origin: a conflict.
        let released = announce(100, 1_000, "192.0.2.0/24", 7).encode().freeze();
        let rival = announce(200, 1_000, "192.0.2.0/24", 9).encode().freeze();
        assert_eq!(w.fold(&mut engine, 0, &released), Folded::Released);
        assert_eq!(w.fold(&mut engine, 0, &rival), Folded::Released);
        engine.drain_events();
        // Collector 1 carries the first update 25 s later.
        let copy = announce(100, 1_025, "192.0.2.0/24", 7).encode().freeze();
        assert_eq!(w.fold(&mut engine, 1, &copy), Folded::Deduped);
        let corroborations: Vec<_> = engine
            .drain_events()
            .into_iter()
            .filter_map(|e| match e.event {
                MonitorEvent::OriginCorroborated {
                    origin, mask, at, ..
                } => Some((origin.0, mask, at)),
                _ => None,
            })
            .collect();
        assert_eq!(corroborations, vec![(7, 0b11, 1_025)]);
    }

    #[test]
    fn one_collector_windows_keep_no_sightings() {
        let mut engine = engine(1);
        let mut w = DedupWindow::new(90, 1);
        let a = frame(1_000, "192.0.2.0/24", 7);
        assert_eq!(w.fold(&mut engine, 0, &a), Folded::Released);
        assert_eq!(
            w.fold(&mut engine, 0, &a),
            Folded::Released,
            "with one collector nothing is a copy"
        );
        assert!(
            w.seen.is_empty() && w.order.is_empty(),
            "a one-collector window keeps no entries, so no sightings"
        );
    }

    #[test]
    fn undecodable_records_are_skipped_every_time() {
        let mut engine = engine(2);
        let mut w = DedupWindow::new(90, 2);
        // Byte 28 opens the BGP marker, which must be all ones.
        let bad = flipped(&frame(1_000, "192.0.2.0/24", 7), 28);
        assert!(MrtRecord::decode(&mut bad.clone()).is_err());
        for _ in 0..3 {
            assert_eq!(w.fold(&mut engine, 0, &bad), Folded::Skipped);
        }
        assert!(w.seen.is_empty() && w.order.is_empty(), "never remembered");
    }

    #[test]
    fn zero_window_releases_every_copy() {
        let mut engine = engine(2);
        let mut w = DedupWindow::new(0, 2);
        let a = frame(1_000, "192.0.2.0/24", 7);
        assert_eq!(w.fold(&mut engine, 0, &a), Folded::Released);
        assert_eq!(
            w.fold(&mut engine, 1, &a),
            Folded::Released,
            "window 0 never suppresses"
        );
        assert!(w.seen.is_empty());
    }
}
