//! The persistent store: rotating event-log segments, one compacted
//! record table, and the manifest that roots them.
//!
//! [`HistoryStore`] sits downstream of the monitor's drain hook
//! ([`moas_monitor::MonitorEngine::drain_events`]): lifecycle events
//! are appended to the current segment, segments rotate at day marks
//! (so one segment ≈ one day of stream, the natural retention and
//! shipping unit for months-long deployments), and every sealed
//! segment carries a CRC trailer. Scans are fault-tolerant the same
//! way the MRT reader is: a corrupt or torn segment is skipped and
//! reported, never fatal.
//!
//! On top of the raw log, the store tracks (via [`crate::manifest`])
//! at most one record table ([`crate::table`]) covering a prefix of
//! the segment sequence — the compaction daemon's output — and a
//! retention horizon. Segments below the coverage watermark can be
//! *expired* (deleted whole, at day granularity) without losing
//! episode history, because the table carries it; expiring an
//! uncovered segment is refused. Every mutation commits by atomically
//! swapping the manifest, so a crash at any point leaves a state the
//! next [`HistoryStore::open`] can reconcile: partial tables and
//! orphan files are detected and discarded, fully written but not yet
//! referenced segments are adopted.
//!
//! When attached to an engine's metrics block
//! ([`HistoryStore::attach_metrics`]), the store publishes segments
//! written, retained vs lifetime bytes, expiry counters, and
//! compaction lag through the same [`moas_monitor::MetricsSnapshot`]
//! the monitor report carries.

use crate::compact::{Compactor, ConflictStore};
use crate::manifest::{read_manifest, write_manifest, Manifest, ManifestError, MANIFEST_NAME};
use crate::segment::{read_header_day, read_segment, SegmentWriter};
use crate::table::{read_table, TableData, TABLE_EXT};
use moas_core::timeline::Timeline;
use moas_monitor::metrics::EngineMetrics;
use moas_monitor::{fold_events_into_timeline, SeqEvent};
use moas_net::Date;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Extension for segment files.
const SEGMENT_EXT: &str = "mhl";

/// Frame bytes after which a segment auto-rotates even without a day
/// mark — far below the u32 limit the trailer counter imposes, so a
/// pathologically heavy day can never produce an unsealable segment.
const SEGMENT_ROTATE_BYTES: u64 = 1 << 30;

/// Outcome of a full-store scan.
#[derive(Debug, Default)]
pub struct StoreScan {
    /// Every event from every valid segment, in segment order.
    pub events: Vec<SeqEvent>,
    /// Segments that validated.
    pub segments_ok: usize,
    /// Segments skipped, with the reason — corruption is reported,
    /// not fatal.
    pub corrupt: Vec<(PathBuf, String)>,
}

/// Store-side counters. `retained_bytes` (what is on disk now) and
/// `lifetime_bytes` (everything ever written) are reported separately
/// so a size-cap retention policy is observable: their difference —
/// also tallied as `bytes_expired` — is what deletion reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Segments sealed over the store's lifetime (live + expired).
    pub segments_written: u64,
    /// Segments expired (deleted) by retention.
    pub segments_expired: u64,
    /// Record tables installed over the store's lifetime.
    pub tables_written: u64,
    /// Bytes currently on disk: live segments plus the record table.
    pub retained_bytes: u64,
    /// Bytes ever written: every sealed segment and installed table,
    /// including since-deleted ones.
    pub lifetime_bytes: u64,
    /// Bytes reclaimed by deleting expired segments and replaced
    /// tables.
    pub bytes_expired: u64,
    /// Events appended over the store's lifetime (persisted in the
    /// manifest, so restarts and read-only replicas agree on it).
    pub events_appended: u64,
}

/// One segment sealed by an append or day mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedSegment {
    /// The segment's file number.
    pub file: u64,
    /// Its size on disk.
    pub bytes: u64,
    /// Events it holds.
    pub events: u64,
}

/// What a retention sweep did.
#[derive(Debug, Default)]
pub struct ExpiryOutcome {
    /// Segment file numbers deleted.
    pub expired: Vec<u64>,
    /// Segments that could not be expired, with the reason (most
    /// commonly: not yet compacted into a table, so deleting them
    /// would break episode reconstruction).
    pub refused: Vec<(u64, String)>,
    /// Bytes reclaimed.
    pub bytes_reclaimed: u64,
}

/// What [`HistoryStore::open`] found and fixed while reconciling the
/// directory against the manifest.
#[derive(Debug, Clone, Default)]
pub struct OpenReport {
    /// Files discarded: partial tables from a daemon crash
    /// mid-rewrite, temporary files, and unreferenced segments.
    pub discarded: Vec<(PathBuf, String)>,
    /// Sealed-but-unreferenced segments adopted (crash between a seal
    /// and its manifest swap).
    pub adopted: Vec<u64>,
    /// The referenced table was corrupt and had to be dropped; its
    /// covered segments (those still on disk) will be recompacted.
    pub dropped_table: Option<(PathBuf, String)>,
    /// The manifest itself was missing or corrupt and the store state
    /// was rebuilt from a directory scan.
    pub manifest_fallback: Option<String>,
}

#[derive(Debug, Clone, Copy)]
struct SegmentInfo {
    day: u32,
    bytes: u64,
}

struct OpenSegment {
    writer: SegmentWriter,
    file: u64,
    day: u32,
}

/// A persistent conflict-history store: append-only event log with a
/// compacted table and retention.
pub struct HistoryStore {
    dir: PathBuf,
    writer: Option<OpenSegment>,
    manifest: Manifest,
    /// Day stamp and size per live sealed segment.
    seg_info: BTreeMap<u64, SegmentInfo>,
    /// The validated current table, decoded (None without one).
    table: Option<Arc<TableData>>,
    table_bytes: u64,
    metrics: Option<Arc<EngineMetrics>>,
    /// Stage timers registered when metrics attach (the registry
    /// arrives with them); `None` means timing is off.
    stages: Option<StoreStageTimers>,
    open_report: OpenReport,
}

/// Per-stage latency histograms for the store's disk work.
struct StoreStageTimers {
    append: moas_obs::Histogram,
    seal: moas_obs::Histogram,
}

impl HistoryStore {
    /// Opens (creating if needed) a store directory and reconciles it
    /// against the manifest: partial or orphan files are discarded,
    /// sealed-but-unreferenced segments adopted, the referenced table
    /// validated end to end (a corrupt one is dropped and reported).
    /// File numbering and day stamping continue across restarts.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut report = OpenReport::default();

        let mut manifest = match read_manifest(&dir) {
            Ok(m) => m,
            Err(e) => {
                if let ManifestError::Corrupt(_) = &e {
                    report.manifest_fallback = Some(e.to_string());
                }
                legacy_manifest(&dir)?
            }
        };

        // Partition the directory once, in sorted order so adoption of
        // consecutive crash-window segments is deterministic.
        let mut seg_files: Vec<(u64, PathBuf)> = Vec::new();
        let mut tab_files: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
            if name == MANIFEST_NAME {
                continue;
            }
            if name.ends_with(".tmp") {
                report.discarded.push((
                    path.clone(),
                    "temporary file from an interrupted write".into(),
                ));
                std::fs::remove_file(&path).ok();
                continue;
            }
            match path.extension().and_then(|s| s.to_str()) {
                Some(SEGMENT_EXT) => match file_number(&path, "seg-") {
                    Some(n) => seg_files.push((n, path)),
                    None => {
                        report
                            .discarded
                            .push((path.clone(), "unparseable segment name".into()));
                    }
                },
                Some(TABLE_EXT) => match file_number(&path, "tab-") {
                    Some(n) => tab_files.push((n, path)),
                    None => {
                        report
                            .discarded
                            .push((path.clone(), "unparseable table name".into()));
                    }
                },
                _ => {}
            }
        }
        seg_files.sort();
        tab_files.sort();

        let mut changed = false;
        let mut seg_info: BTreeMap<u64, SegmentInfo> = BTreeMap::new();
        let referenced: std::collections::BTreeSet<u64> =
            manifest.segments.iter().copied().collect();
        for (n, path) in seg_files {
            if referenced.contains(&n) {
                let day = read_header_day(&path).unwrap_or(u32::MAX);
                let bytes = std::fs::metadata(&path)?.len();
                seg_info.insert(n, SegmentInfo { day, bytes });
            } else if n >= manifest.next_file {
                // Crash window: sealed after the last manifest swap.
                match read_segment(&path) {
                    Ok(data) => {
                        manifest.segments.push(n);
                        manifest.next_file = n + 1;
                        manifest.lifetime_bytes += data.bytes;
                        seg_info.insert(
                            n,
                            SegmentInfo {
                                day: data.day_idx,
                                bytes: data.bytes,
                            },
                        );
                        report.adopted.push(n);
                        changed = true;
                    }
                    Err(e) => {
                        report
                            .discarded
                            .push((path.clone(), format!("partial segment: {e}")));
                        std::fs::remove_file(&path).ok();
                    }
                }
            } else {
                report.discarded.push((
                    path.clone(),
                    "segment not referenced by the manifest".into(),
                ));
                std::fs::remove_file(&path).ok();
                changed = true;
            }
        }
        // Manifest entries whose file vanished underneath us.
        let missing: Vec<u64> = manifest
            .segments
            .iter()
            .copied()
            .filter(|n| !seg_info.contains_key(n))
            .collect();
        for n in missing {
            report.discarded.push((
                seg_path(&dir, n),
                "segment referenced by the manifest is missing on disk".into(),
            ));
            manifest.segments.retain(|&s| s != n);
            changed = true;
        }
        manifest.segments.sort_unstable();

        let mut table: Option<Arc<TableData>> = None;
        let mut table_bytes = 0u64;
        for (n, path) in tab_files {
            if manifest.table == Some(n) {
                match read_table(&path) {
                    Ok(data) => {
                        table_bytes = std::fs::metadata(&path)?.len();
                        table = Some(Arc::new(data));
                    }
                    Err(e) => {
                        // A corrupt table is dropped; covered segments
                        // still on disk will simply be recompacted.
                        report.dropped_table = Some((path.clone(), e.to_string()));
                        std::fs::remove_file(&path).ok();
                        manifest.table = None;
                        manifest.covered_below = 0;
                        changed = true;
                    }
                }
            } else {
                report.discarded.push((
                    path.clone(),
                    "table not referenced by the manifest (crash mid-install)".into(),
                ));
                std::fs::remove_file(&path).ok();
                changed = true;
            }
        }
        if manifest.table.is_some() && table.is_none() {
            report.dropped_table = Some((
                manifest.table_path(&dir).expect("table is some"),
                "table referenced by the manifest is missing on disk".into(),
            ));
            manifest.table = None;
            manifest.covered_below = 0;
            changed = true;
        }

        let mut store = HistoryStore {
            dir,
            writer: None,
            manifest,
            seg_info,
            table,
            table_bytes,
            metrics: None,
            stages: None,
            open_report: report,
        };
        if changed {
            store.swap_manifest()?;
        }
        Ok(store)
    }

    /// Attaches an engine's metrics block; from now on the store
    /// publishes its counters there too, and times its append/seal
    /// stages on the block's registry.
    pub fn attach_metrics(&mut self, metrics: Arc<EngineMetrics>) {
        let registry = metrics.registry();
        self.stages = Some(StoreStageTimers {
            append: registry.stage_histogram("event_append"),
            seal: registry.stage_histogram("segment_seal"),
        });
        self.metrics = Some(metrics);
        self.publish_metrics();
    }

    /// The attached metrics block, if any.
    pub fn metrics_handle(&self) -> Option<Arc<EngineMetrics>> {
        self.metrics.clone()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What opening found and fixed.
    pub fn open_report(&self) -> &OpenReport {
        &self.open_report
    }

    /// The current manifest (the snapshot-isolation root).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The current record table, if a compaction has installed one.
    pub fn table(&self) -> Option<Arc<TableData>> {
        self.table.clone()
    }

    /// Store-side counters so far.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            segments_written: self.manifest.segments.len() as u64 + self.manifest.segments_expired,
            segments_expired: self.manifest.segments_expired,
            tables_written: self.manifest.tables_written,
            retained_bytes: self.retained_bytes(),
            lifetime_bytes: self.manifest.lifetime_bytes,
            bytes_expired: self.manifest.bytes_expired,
            events_appended: self.manifest.events_appended,
        }
    }

    fn retained_bytes(&self) -> u64 {
        self.seg_info.values().map(|i| i.bytes).sum::<u64>() + self.table_bytes
    }

    /// Sealed segments not yet covered by the record table — the
    /// compaction daemon's backlog.
    pub fn compaction_lag(&self) -> usize {
        self.manifest
            .segments
            .iter()
            .filter(|&&n| n >= self.manifest.covered_below)
            .count()
    }

    /// Appends events to the current segment (opening one if needed;
    /// rotating once a segment outgrows 1 GiB of frames, so the u32
    /// trailer counter can never be the thing that fails). Returns any
    /// segments sealed by rotation (normally none — day marks seal).
    pub fn append(&mut self, events: &[SeqEvent]) -> io::Result<Vec<SealedSegment>> {
        let started = std::time::Instant::now();
        let mut sealed = Vec::new();
        for e in events {
            if self
                .writer
                .as_ref()
                .is_some_and(|w| w.writer.frame_bytes() >= SEGMENT_ROTATE_BYTES)
            {
                sealed.extend(self.seal()?);
            }
            if self.writer.is_none() {
                let file = self.manifest.next_file;
                let day = self.manifest.next_day;
                let path = seg_path(&self.dir, file);
                self.manifest.next_file += 1;
                self.writer = Some(OpenSegment {
                    writer: SegmentWriter::create(&path, day)?,
                    file,
                    day,
                });
            }
            let w = self.writer.as_mut().expect("writer just ensured");
            w.writer.append(e)?;
            // Persisted at the next manifest swap (the seal that makes
            // these events durable), so replicas read the same count.
            self.manifest.events_appended += 1;
        }
        // One clock read for both records, so the profile's
        // `event_append` time equals the histogram's.
        let elapsed = started.elapsed();
        if let Some(s) = &self.stages {
            // One observation per append call (a drained batch), the
            // unit of work the service hands the store.
            s.append.observe_duration(elapsed);
        }
        if let Some(m) = &self.metrics {
            // Appends run on the writer thread while its poll span is
            // the ambient context, so the span lands in that trace;
            // appends outside any trace still profile as their own
            // root.
            let t = m.registry().tracer();
            t.record_stage(t.current(), "event_append", elapsed);
        }
        Ok(sealed)
    }

    /// Marks a day boundary: seals the current segment (if any events
    /// were appended) so the next append starts a fresh one. `idx` is
    /// the day position just completed. The advanced day cursor is
    /// persisted either with the sealed segment's manifest swap or
    /// with one of its own.
    pub fn mark_day(&mut self, idx: usize) -> io::Result<Option<SealedSegment>> {
        self.manifest.next_day = idx as u32 + 1;
        let sealed = self.seal()?;
        if sealed.is_none() {
            self.swap_manifest()?;
        }
        Ok(sealed)
    }

    /// Seals the current segment, writing its CRC trailer and swapping
    /// the manifest to reference it. A no-op with no open segment.
    pub fn seal(&mut self) -> io::Result<Option<SealedSegment>> {
        let Some(open) = self.writer.take() else {
            return Ok(None);
        };
        let started = std::time::Instant::now();
        let events = open.writer.events();
        let bytes = open.writer.finish()?;
        self.seg_info.insert(
            open.file,
            SegmentInfo {
                day: open.day,
                bytes,
            },
        );
        self.manifest.segments.push(open.file);
        self.manifest.lifetime_bytes += bytes;
        self.swap_manifest()?;
        self.publish_metrics();
        if let Some(s) = &self.stages {
            s.seal.observe_duration(started.elapsed());
        }
        if let Some(m) = &self.metrics {
            let t = m.registry().tracer();
            t.record_stage(t.current(), "segment_seal", started.elapsed());
        }
        Ok(Some(SealedSegment {
            file: open.file,
            bytes,
            events,
        }))
    }

    /// Abandons the open (unsealed) segment, deleting its file. The
    /// error-recovery path: after a failed append the open segment's
    /// frame count no longer matches what the caller tracked, so the
    /// unsealed data — which a crash would have discarded anyway — is
    /// dropped wholesale rather than left half-written.
    pub fn discard_open(&mut self) {
        if let Some(open) = self.writer.take() {
            let path = open.writer.path().to_path_buf();
            drop(open);
            std::fs::remove_file(path).ok();
        }
    }

    /// Installs a freshly written table: renames `tmp_path` to its
    /// final numbered name, swaps the manifest to reference it, and
    /// deletes the replaced table. Returns the installed data for
    /// publication to readers.
    pub fn install_table(
        &mut self,
        data: TableData,
        tmp_path: &Path,
    ) -> io::Result<Arc<TableData>> {
        let n = self.manifest.tables_written;
        let final_path = table_path(&self.dir, n);
        std::fs::rename(tmp_path, &final_path)?;
        let bytes = std::fs::metadata(&final_path)?.len();

        let old_path = self.manifest.table_path(&self.dir);
        let old_bytes = self.table_bytes;
        self.manifest.table = Some(n);
        self.manifest.tables_written = n + 1;
        self.manifest.covered_below = data.covers_below;
        self.manifest.lifetime_bytes += bytes;
        if old_path.is_some() {
            self.manifest.bytes_expired += old_bytes;
        }
        self.swap_manifest()?;
        if let Some(p) = old_path {
            std::fs::remove_file(p).ok();
        }

        self.table_bytes = bytes;
        let data = Arc::new(data);
        self.table = Some(Arc::clone(&data));
        if let Some(m) = &self.metrics {
            EngineMetrics::set(&m.store_records_compacted, data.records.len() as u64);
        }
        self.publish_metrics();
        Ok(data)
    }

    /// Expires (deletes whole) every live segment whose day position
    /// is below `horizon_day` — retention at day granularity. A
    /// segment not yet covered by the record table is refused, because
    /// deleting it would break episode reconstruction; compact first.
    /// The horizon is recorded in the manifest once fully applied.
    pub fn expire_through(&mut self, horizon_day: u32) -> io::Result<ExpiryOutcome> {
        let mut outcome = ExpiryOutcome::default();
        let candidates: Vec<(u64, SegmentInfo)> = self
            .seg_info
            .iter()
            .filter(|(_, info)| info.day < horizon_day)
            .map(|(&n, &info)| (n, info))
            .collect();
        for (n, info) in candidates {
            if n >= self.manifest.covered_below {
                outcome
                    .refused
                    .push((n, "not yet compacted into a table".into()));
                continue;
            }
            outcome.expired.push(n);
            outcome.bytes_reclaimed += info.bytes;
        }
        let advance = outcome.refused.is_empty() && horizon_day > self.manifest.horizon_day;
        if advance {
            self.manifest.horizon_day = horizon_day;
        }
        self.apply_expiry(&mut outcome)?;
        if advance && outcome.expired.is_empty() {
            // Persist the horizon even when it expired nothing.
            self.swap_manifest()?;
        }
        Ok(outcome)
    }

    /// Expires oldest-first covered segments until retained bytes fit
    /// under `max_bytes` (or nothing expirable remains). Raw segments
    /// only — the record table keeps the episode history, so a size
    /// cap bounds log disk without losing answers.
    pub fn expire_for_size(&mut self, max_bytes: u64) -> io::Result<ExpiryOutcome> {
        let mut outcome = ExpiryOutcome::default();
        let mut retained = self.retained_bytes();
        for (&n, info) in self.seg_info.iter() {
            if retained <= max_bytes {
                break;
            }
            if n >= self.manifest.covered_below {
                outcome
                    .refused
                    .push((n, "size cap reached but segment not yet compacted".into()));
                break;
            }
            outcome.expired.push(n);
            outcome.bytes_reclaimed += info.bytes;
            retained -= info.bytes;
        }
        self.apply_expiry(&mut outcome)?;
        Ok(outcome)
    }

    /// Commits an expiry plan: manifest swap first (the commit point),
    /// file deletion after — a crash in between leaves unreferenced
    /// files the next open discards.
    fn apply_expiry(&mut self, outcome: &mut ExpiryOutcome) -> io::Result<()> {
        if outcome.expired.is_empty() {
            return Ok(());
        }
        for &n in &outcome.expired {
            self.manifest.segments.retain(|&s| s != n);
            self.manifest.segments_expired += 1;
        }
        self.manifest.bytes_expired += outcome.bytes_reclaimed;
        self.swap_manifest()?;
        for &n in &outcome.expired {
            self.seg_info.remove(&n);
            std::fs::remove_file(seg_path(&self.dir, n)).ok();
        }
        self.publish_metrics();
        Ok(())
    }

    /// Paths of all live sealed segments, in write order.
    pub fn segments(&self) -> io::Result<Vec<PathBuf>> {
        Ok(self
            .manifest
            .segments
            .iter()
            .map(|&n| seg_path(&self.dir, n))
            .collect())
    }

    /// Paths of live sealed segments not covered by the table.
    pub fn uncovered_segments(&self) -> Vec<(u64, PathBuf)> {
        self.manifest
            .segments
            .iter()
            .filter(|&&n| n >= self.manifest.covered_below)
            .map(|&n| (n, seg_path(&self.dir, n)))
            .collect()
    }

    /// `(file, day stamp)` of live sealed segments not covered by the
    /// table — answered from the in-memory index, no disk reads, so
    /// the daemon can plan a sweep without IO under the store lock.
    pub fn uncovered_segment_days(&self) -> Vec<(u64, u32)> {
        self.seg_info
            .iter()
            .filter(|(&n, _)| n >= self.manifest.covered_below)
            .map(|(&n, info)| (n, info.day))
            .collect()
    }

    /// Reads every live sealed segment back, skipping (and reporting)
    /// corrupt ones. Seal first if events were appended since the last
    /// day mark — an open segment has no trailer yet and is excluded.
    pub fn scan(&self) -> io::Result<StoreScan> {
        scan_files(self.segments()?)
    }

    /// Reads only the segments the table does not cover — the hot
    /// tail a service replays on top of the table.
    pub fn scan_uncovered(&self) -> io::Result<StoreScan> {
        scan_files(
            self.uncovered_segments()
                .into_iter()
                .map(|(_, p)| p)
                .collect(),
        )
    }

    /// Compacts the store into a [`ConflictStore`]: seeded from the
    /// record table when one is installed (only the uncovered tail is
    /// read from raw segments), a full scan otherwise. Publishes the
    /// compacted record count to attached metrics. Returns the scan
    /// alongside so callers see skipped segments.
    pub fn compact(&self) -> io::Result<(ConflictStore, StoreScan)> {
        let mut comp = Compactor::new();
        let scan = match &self.table {
            Some(t) => {
                t.seed_compactor(&mut comp);
                self.scan_uncovered()?
            }
            None => self.scan()?,
        };
        comp.fold(&scan.events);
        let store = comp.finish();
        if let Some(m) = &self.metrics {
            EngineMetrics::set(&m.store_records_compacted, store.records().len() as u64);
        }
        Ok((store, scan))
    }

    /// Scans the store and folds the stored event log into the batch
    /// [`Timeline`] — the exactness anchor: for a complete archive
    /// window (with no segments expired) this equals batch
    /// `analyze_mrt_archive`'s timeline on `total_conflicts()` and
    /// sorted `durations()`. After retention has expired segments the
    /// fold only covers what remains on disk; use the service's
    /// table-seeded snapshots for retained-window answers.
    pub fn fold_timeline(
        &self,
        dates: &[Date],
        core_len: usize,
    ) -> io::Result<(Timeline, StoreScan)> {
        let scan = self.scan()?;
        let tl = fold_events_into_timeline(&scan.events, dates, core_len);
        Ok((tl, scan))
    }

    /// Bumps the epoch and atomically swaps the on-disk manifest.
    fn swap_manifest(&mut self) -> io::Result<()> {
        self.manifest.epoch += 1;
        write_manifest(&self.dir, &self.manifest)
    }

    fn publish_metrics(&self) {
        let Some(m) = &self.metrics else { return };
        let stats = self.stats();
        EngineMetrics::set(&m.store_segments_written, stats.segments_written);
        EngineMetrics::set(&m.store_segments_expired, stats.segments_expired);
        EngineMetrics::set(&m.store_tables_written, stats.tables_written);
        EngineMetrics::set(&m.store_bytes_retained, stats.retained_bytes);
        EngineMetrics::set(&m.store_bytes_lifetime, stats.lifetime_bytes);
        EngineMetrics::set(&m.store_compaction_lag, self.compaction_lag() as u64);
    }
}

pub(crate) fn seg_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("seg-{n:08}.{SEGMENT_EXT}"))
}

pub(crate) fn table_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("tab-{n:08}.{TABLE_EXT}"))
}

fn scan_files(paths: Vec<PathBuf>) -> io::Result<StoreScan> {
    let mut scan = StoreScan::default();
    for path in paths {
        match read_segment(&path) {
            Ok(data) => {
                scan.events.extend(data.events);
                scan.segments_ok += 1;
            }
            Err(e) => scan.corrupt.push((path, e.to_string())),
        }
    }
    Ok(scan)
}

/// Rebuilds a manifest from a directory scan — how stores written
/// before the manifest existed (or with a corrupted manifest) are
/// adopted.
fn legacy_manifest(dir: &Path) -> io::Result<Manifest> {
    let mut segments: Vec<u64> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|s| s.to_str()) == Some(SEGMENT_EXT))
        .filter_map(|p| file_number(&p, "seg-"))
        .collect();
    segments.sort_unstable();
    let mut lifetime = 0u64;
    for &n in &segments {
        lifetime += std::fs::metadata(seg_path(dir, n))
            .map(|m| m.len())
            .unwrap_or(0);
    }
    let next_file = segments.last().map_or(0, |&n| n + 1);
    let next_day = segments
        .last()
        .and_then(|&n| read_header_day(&seg_path(dir, n)).ok())
        .map_or(0, |d| d.saturating_add(1));
    Ok(Manifest {
        next_file,
        next_day,
        segments,
        lifetime_bytes: lifetime,
        ..Manifest::default()
    })
}

fn file_number(path: &Path, prefix: &str) -> Option<u64> {
    path.file_stem()?
        .to_str()?
        .strip_prefix(prefix)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use moas_monitor::MonitorEvent;
    use moas_net::{Asn, Prefix};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("moas-history-store-{}-{name}", std::process::id()))
    }

    fn ev(seq: u64, at: u32, open: bool) -> SeqEvent {
        let prefix: Prefix = "192.0.2.0/24".parse().unwrap();
        SeqEvent {
            shard: 0,
            seq,
            event: if open {
                MonitorEvent::ConflictOpened {
                    prefix,
                    origins: vec![Asn::new(7), Asn::new(9)],
                    at,
                }
            } else {
                MonitorEvent::ConflictClosed {
                    prefix,
                    opened_at: 0,
                    at,
                }
            },
        }
    }

    #[test]
    fn append_rotate_scan_roundtrip() {
        let dir = tmp("roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = HistoryStore::open(&dir).unwrap();
        store.append(&[ev(0, 100, true)]).unwrap();
        store.mark_day(0).unwrap();
        store.append(&[ev(1, 86_500, false)]).unwrap();
        store.mark_day(1).unwrap();
        store.mark_day(2).unwrap(); // day without events: no segment

        let stats = store.stats();
        assert_eq!(stats.segments_written, 2);
        assert_eq!(stats.events_appended, 2);
        assert!(stats.retained_bytes > 0);
        assert_eq!(stats.retained_bytes, stats.lifetime_bytes);
        assert_eq!(stats.bytes_expired, 0);
        assert_eq!(store.segments().unwrap().len(), 2);

        let scan = store.scan().unwrap();
        assert_eq!(scan.segments_ok, 2);
        assert!(scan.corrupt.is_empty());
        assert_eq!(scan.events.len(), 2);
        assert_eq!(scan.events[0], ev(0, 100, true));

        // Reopening continues file numbering, day stamping, and byte
        // accounting from the manifest instead of clobbering.
        let mut store2 = HistoryStore::open(&dir).unwrap();
        assert_eq!(store2.stats().lifetime_bytes, stats.lifetime_bytes);
        assert_eq!(
            store2.stats().events_appended,
            2,
            "event count survives restart via manifest"
        );
        store2.append(&[ev(2, 300_000, true)]).unwrap();
        store2.seal().unwrap();
        let segments = store2.segments().unwrap();
        assert_eq!(segments.len(), 3);
        assert_eq!(store2.scan().unwrap().events.len(), 3);
        let last_day = read_header_day(segments.last().unwrap()).unwrap();
        assert_eq!(last_day, 3, "day cursor survives restart via manifest");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_segment_skipped_and_reported() {
        let dir = tmp("corrupt");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = HistoryStore::open(&dir).unwrap();
        store.append(&[ev(0, 100, true)]).unwrap();
        store.mark_day(0).unwrap();
        store.append(&[ev(1, 200, false)]).unwrap();
        store.mark_day(1).unwrap();

        // Flip a byte inside the first segment's frames.
        let victim = &store.segments().unwrap()[0];
        let mut bytes = std::fs::read(victim).unwrap();
        bytes[20] ^= 0xFF;
        std::fs::write(victim, &bytes).unwrap();

        let scan = store.scan().unwrap();
        assert_eq!(scan.segments_ok, 1);
        assert_eq!(scan.corrupt.len(), 1);
        assert_eq!(&scan.corrupt[0].0, victim);
        assert_eq!(scan.events.len(), 1, "good segment survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_window_segment_adopted_on_open() {
        let dir = tmp("adopt");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = HistoryStore::open(&dir).unwrap();
        store.append(&[ev(0, 100, true)]).unwrap();
        store.mark_day(0).unwrap();

        // Simulate a crash between a seal and its manifest swap: a
        // fully sealed segment the manifest does not know about.
        let orphan = seg_path(&dir, 7);
        let mut w = SegmentWriter::create(&orphan, 5).unwrap();
        w.append(&ev(1, 500_000, false)).unwrap();
        w.finish().unwrap();

        let store2 = HistoryStore::open(&dir).unwrap();
        assert_eq!(store2.open_report().adopted, vec![7]);
        assert_eq!(store2.segments().unwrap().len(), 2);
        assert_eq!(store2.manifest().next_file, 8);
        assert_eq!(store2.scan().unwrap().events.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncovered_segments_refuse_expiry() {
        let dir = tmp("refuse");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = HistoryStore::open(&dir).unwrap();
        store.append(&[ev(0, 100, true)]).unwrap();
        store.mark_day(0).unwrap();
        store.append(&[ev(1, 90_000, false)]).unwrap();
        store.mark_day(1).unwrap();

        let outcome = store.expire_through(2).unwrap();
        assert!(outcome.expired.is_empty());
        assert_eq!(outcome.refused.len(), 2);
        assert_eq!(store.segments().unwrap().len(), 2);
        assert_eq!(store.manifest().horizon_day, 0, "horizon not advanced");
        std::fs::remove_dir_all(&dir).ok();
    }
}
