//! Single-pass streaming archive analysis.
//!
//! The batch path (`moas_core::pipeline::analyze_mrt_archive`) scans
//! each day's table dump independently and merges timelines; it is
//! embarrassingly parallel but stateless — it cannot feed a
//! conflict-history store, and it re-derives every day from scratch.
//! This driver makes one pass instead: archive files decode
//! concurrently in a reader pool (sharded round-robin with the same
//! [`moas_core::pipeline::shard_archive_files`] helper the batch
//! scanner uses), the driver consumes the decoded tables *in day
//! order*, converts each day transition into its BGP4MP update stream
//! (`moas_routeviews::updates::diff_snapshots` — the same definition
//! the equivalence-tested monitor ingests everywhere else), pushes it
//! through a sharded [`MonitorEngine`], and drains the engine's
//! lifecycle events into a sink at every day mark.
//!
//! Two sinks exist: [`analyze_mrt_archive_streaming`] persists into a
//! bare [`HistoryStore`] (batch replays, backfills), and
//! [`analyze_mrt_archive_service`] feeds a running
//! [`HistoryService`] — the long-lived shape, where the compaction
//! daemon and concurrent validity readers stay active throughout the
//! pass.
//!
//! One pass therefore yields everything at once: the §VII alarms of
//! the monitor, real-time conflict durations, and a persistent event
//! log whose compaction reproduces the batch timeline exactly
//! (`tests/history_store.rs` pins `total_conflicts` and sorted
//! `durations` against `analyze_mrt_archive` at multiple shard
//! counts).

use crate::service::HistoryService;
use crate::store::HistoryStore;
use moas_bgp::TableSnapshot;
use moas_core::pipeline::shard_archive_files;
use moas_monitor::metrics::EngineMetrics;
use moas_monitor::{MonitorConfig, MonitorEngine, MonitorReport, SeqEvent};
use moas_mrt::snapshot::SnapshotBuilder;
use moas_mrt::MrtReader;
use moas_net::Date;
use moas_routeviews::updates::diff_snapshots;
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};

/// Tuning for the streaming archive driver.
#[derive(Debug, Clone, Default)]
pub struct StreamingArchiveConfig {
    /// Monitor engine config (shard count etc.).
    pub monitor: MonitorConfig,
    /// Concurrent archive-file readers (0 = one per core, capped by
    /// the file count).
    pub reader_threads: usize,
}

impl StreamingArchiveConfig {
    /// Default config with the given monitor shard count.
    pub fn with_shards(shards: usize) -> Self {
        StreamingArchiveConfig {
            monitor: MonitorConfig::with_shards(shards),
            ..StreamingArchiveConfig::default()
        }
    }
}

/// What one streaming pass produced.
#[derive(Debug)]
pub struct StreamingArchiveReport {
    /// The monitor's report: §VII alarms and counters. Its
    /// `events` list is empty — every lifecycle event was drained into
    /// the history store, which is the authoritative log.
    pub monitor: MonitorReport,
    /// MRT records skipped as corrupt across all files (including RIB
    /// entries dropped for unknown peer indices).
    pub records_skipped: u64,
    /// Days driven through the engine.
    pub days: usize,
    /// Lifecycle events persisted to the store.
    pub events_stored: u64,
}

/// Where drained lifecycle events land — what distinguishes the bare
/// store pass from the live service pass.
trait EventSink {
    fn attach_metrics(&mut self, metrics: Arc<EngineMetrics>);
    fn day(&mut self, idx: usize, events: &[SeqEvent]) -> io::Result<()>;
    fn tail(&mut self, events: &[SeqEvent]) -> io::Result<()>;
    fn events_stored(&self) -> u64;
}

impl EventSink for &mut HistoryStore {
    fn attach_metrics(&mut self, metrics: Arc<EngineMetrics>) {
        HistoryStore::attach_metrics(self, metrics);
    }

    fn day(&mut self, idx: usize, events: &[SeqEvent]) -> io::Result<()> {
        self.append(events)?;
        self.mark_day(idx)?;
        Ok(())
    }

    fn tail(&mut self, events: &[SeqEvent]) -> io::Result<()> {
        self.append(events)?;
        self.seal()?;
        Ok(())
    }

    fn events_stored(&self) -> u64 {
        self.stats().events_appended
    }
}

impl EventSink for &HistoryService {
    fn attach_metrics(&mut self, metrics: Arc<EngineMetrics>) {
        HistoryService::attach_metrics(self, metrics);
    }

    fn day(&mut self, idx: usize, events: &[SeqEvent]) -> io::Result<()> {
        self.append(events)?;
        self.mark_day(idx)
    }

    fn tail(&mut self, events: &[SeqEvent]) -> io::Result<()> {
        self.append(events)
    }

    fn events_stored(&self) -> u64 {
        self.stats().events_appended
    }
}

/// One decoded archive day, produced by the reader pool.
type DecodedDay = (TableSnapshot, u64);

/// Drives a multi-day MRT table-dump archive through a sharded
/// [`MonitorEngine`] in a single pass, persisting lifecycle events
/// into `store` with one segment per archive day.
///
/// `files[i] = (day position, path)`; day positions index `dates`,
/// must be unique, and — for the stored log to reproduce the batch
/// timeline exactly — should cover every date in the window (a date
/// with no file contributes no update stream, so conflicts simply
/// stay open across it in the fold, whereas the batch scan records
/// nothing that day).
pub fn analyze_mrt_archive_streaming(
    dates: &[Date],
    files: &[(usize, PathBuf)],
    config: &StreamingArchiveConfig,
    store: &mut HistoryStore,
) -> io::Result<StreamingArchiveReport> {
    drive_archive(dates, files, config, store)
}

/// [`analyze_mrt_archive_streaming`] against a running
/// [`HistoryService`]: day marks publish epochs to concurrent readers
/// and wake the compaction daemon as the pass proceeds. The service
/// stays open afterwards — call [`HistoryService::close`] (or
/// `wait_idle`) when done.
pub fn analyze_mrt_archive_service(
    dates: &[Date],
    files: &[(usize, PathBuf)],
    config: &StreamingArchiveConfig,
    service: &HistoryService,
) -> io::Result<StreamingArchiveReport> {
    drive_archive(dates, files, config, service)
}

fn drive_archive<S: EventSink>(
    dates: &[Date],
    files: &[(usize, PathBuf)],
    config: &StreamingArchiveConfig,
    mut sink: S,
) -> io::Result<StreamingArchiveReport> {
    let mut ordered: Vec<(usize, PathBuf)> = files.to_vec();
    ordered.sort_by_key(|(idx, _)| *idx);
    let mut seen = vec![false; dates.len()];
    for (idx, path) in &ordered {
        assert!(*idx < dates.len(), "file day position {idx} outside window");
        assert!(
            !std::mem::replace(&mut seen[*idx], true),
            "two archive files for day position {idx} ({})",
            path.display()
        );
    }

    let threads = if config.reader_threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        config.reader_threads
    }
    .min(ordered.len().max(1));

    // (day idx, path) pairs sharded round-robin: reader `t` owns
    // consumption positions `t, t+T, …` and produces them in ascending
    // order over its *own* bounded channel. The driver takes position
    // `p` from channel `p mod T`, so in-flight decoded tables are
    // bounded by `T × (capacity + 1)` no matter how skewed the file
    // decode times are — a slow day 0 blocks the other readers at
    // their channel capacity instead of letting them race ahead and
    // buffer the whole archive.
    let shards = shard_archive_files(&ordered, threads);

    let mut engine = MonitorEngine::new(config.monitor);
    let metrics = engine.metrics_handle();
    sink.attach_metrics(Arc::clone(&metrics));

    let mut skipped_total = 0u64;
    let mut days = 0usize;
    let mut first_err: Option<io::Error> = None;

    std::thread::scope(|scope| {
        let mut receivers = Vec::with_capacity(shards.len());
        for shard in &shards {
            let (tx, rx) = mpsc::sync_channel::<io::Result<DecodedDay>>(1);
            receivers.push(rx);
            let dates_ref = dates;
            scope.spawn(move || {
                for (idx, path) in shard {
                    let result = read_day_table(path, dates_ref[*idx]);
                    let failed = result.is_err();
                    if tx.send(result).is_err() || failed {
                        // Driver gone or poisoned: stop reading.
                        return;
                    }
                }
            });
        }

        let mut prev: Option<TableSnapshot> = None;
        for next_pos in 0..ordered.len() {
            let Ok(result) = receivers[next_pos % receivers.len()].recv() else {
                // Reader gone without delivering — only reachable
                // after an error already recorded below.
                break;
            };
            let (snapshot, skipped) = match result {
                Ok(day) => day,
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            };
            let idx = ordered[next_pos].0;
            skipped_total += skipped;
            let empty = TableSnapshot::new(snapshot.date);
            let records = diff_snapshots(prev.as_ref().unwrap_or(&empty), &snapshot);
            engine.ingest_all(&records);
            engine.mark_day(idx, dates[idx]);
            let drained = engine.drain_events();
            if let Err(e) = sink.day(idx, &drained) {
                first_err = Some(e);
                break;
            }
            prev = Some(snapshot);
            days += 1;
        }
        // Scope exit drops the receivers; any still-blocked reader's
        // next send fails and it stops.
    });

    let mut report = engine.finish();
    if let Some(e) = first_err {
        return Err(e);
    }

    // Persist whatever trickled in after the last day mark, then
    // refresh the frozen counters: the sink publishes store-side
    // counters into the shared block on every seal, so a fresh
    // snapshot includes the final one.
    let tail = std::mem::take(&mut report.events);
    sink.tail(&tail)?;
    report.metrics = metrics.snapshot();

    Ok(StreamingArchiveReport {
        monitor: report,
        records_skipped: skipped_total,
        days,
        events_stored: sink.events_stored(),
    })
}

/// Reads one day's table-dump file into a snapshot (lossy: corrupt
/// records and unknown-peer entries are skipped and counted).
fn read_day_table(path: &PathBuf, date: Date) -> io::Result<DecodedDay> {
    let file = File::open(path)?;
    let mut reader = MrtReader::new(file);
    let mut builder = SnapshotBuilder::new(Some(date), true);
    for record in reader.by_ref() {
        builder
            .push(&record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    }
    let skipped = reader.stats().records_skipped;
    let build = builder.finish();
    Ok((build.snapshot, skipped + build.unknown_peer_entries))
}
