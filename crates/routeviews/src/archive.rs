//! Rendering a study window into an on-disk multi-day MRT archive.
//!
//! The batch and streaming archive drivers both consume a directory of
//! daily table-dump files — the shape of the genuine Route Views /
//! NLANR archives. This module materializes that directory from the
//! simulated collector, one MRT file per snapshot day, so multi-day
//! single-pass ingestion (`moas_history::pipeline`) and the sharded
//! batch scan (`moas_core::pipeline::analyze_mrt_archive`) can be
//! exercised — and equivalence-tested — against the same bytes.

use crate::collector::{BackgroundMode, Collector};
use crate::updates::diff_snapshots;
use moas_bgp::message::BgpMessage;
use moas_bgp::TableSnapshot;
use moas_mrt::record::{MrtBody, MrtRecord};
use moas_mrt::snapshot::{snapshot_to_records, DumpFormat};
use moas_mrt::MrtWriter;
use moas_net::{Date, Ipv4Prefix};
use std::collections::HashSet;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Writes snapshot positions `start..end` of the study window as one
/// MRT table-dump file per day under `dir` (created if missing).
///
/// Returns `(day position relative to start, path)` pairs in day order
/// — exactly the `files` argument the archive analyzers take. File
/// names carry the calendar date (`rib.YYYYMMDD.mrt`), like a real
/// collector archive.
pub fn write_window_archive(
    collector: &mut Collector<'_>,
    dir: &Path,
    start: usize,
    end: usize,
    background: BackgroundMode,
    format: DumpFormat,
) -> io::Result<Vec<(usize, PathBuf)>> {
    std::fs::create_dir_all(dir)?;
    let mut files = Vec::with_capacity(end.saturating_sub(start));
    for idx in start..end {
        let snap = collector.snapshot_at(idx, background);
        let d = snap.date;
        let path = dir.join(format!(
            "rib.{:04}{:02}{:02}.mrt",
            d.year(),
            d.month(),
            d.day()
        ));
        let records = snapshot_to_records(&snap, format);
        let mut w = MrtWriter::new(File::create(&path)?);
        w.write_all(&records)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        w.finish()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        files.push((idx - start, path));
    }
    Ok(files)
}

/// The Route Views / RIS-style name of a day's BGP4MP update-archive
/// file: `updates.YYYYMMDD.HHMM.mrt`.
pub fn update_file_name(date: Date, hhmm: u16) -> String {
    format!(
        "updates.{:04}{:02}{:02}.{:02}{:02}.mrt",
        date.year(),
        date.month(),
        date.day(),
        hhmm / 100,
        hhmm % 100
    )
}

/// Writes snapshot positions `start..end` as one BGP4MP *update*
/// file per day under `dir` — the update-archive layout of a live
/// collector, as opposed to [`write_window_archive`]'s daily table
/// dumps. Day `start` announces the whole table from cold; each later
/// day carries the [`diff_snapshots`] transition stream into it (the
/// exact records the equivalence-tested monitor ingests). Returns
/// `(day position relative to start, path)` pairs in day order.
pub fn write_update_archive(
    collector: &mut Collector<'_>,
    dir: &Path,
    start: usize,
    end: usize,
    background: BackgroundMode,
) -> io::Result<Vec<(usize, PathBuf)>> {
    let mut feed = SimFeed::new(collector, dir, start, end, background)?;
    let mut files = Vec::with_capacity(end.saturating_sub(start));
    while let Some(day) = feed.append_day()? {
        files.push((day.idx - start, day.path));
    }
    Ok(files)
}

/// One day appended by the simulated collector feed.
#[derive(Debug, Clone)]
pub struct AppendedDay {
    /// Snapshot-day position in the study window.
    pub idx: usize,
    /// The day's calendar date.
    pub date: Date,
    /// Path of the update file (absent for a skipped day).
    pub path: PathBuf,
    /// BGP4MP records written for the day.
    pub records: usize,
    /// Encoded bytes of the day's update stream.
    pub bytes: u64,
}

/// A simulated live collector: appends one dated BGP4MP update file
/// per study-window day into a directory, in timestamp order — the
/// load generator a feed follower tails in tests.
///
/// Feed pathologies are first-class: [`SimFeed::begin_day`] leaves a
/// day's file truncated mid-record (an in-flight upload) until
/// [`SimFeed::finish_day`] completes it, and [`SimFeed::skip_day`]
/// advances the window without writing the day at all (a feed gap).
pub struct SimFeed<'c, 'w> {
    collector: &'c mut Collector<'w>,
    dir: PathBuf,
    background: BackgroundMode,
    next_idx: usize,
    end_idx: usize,
    prev: Option<TableSnapshot>,
    /// A day begun but not finished: `(day, remaining bytes)`.
    in_flight: Option<(AppendedDay, Vec<u8>)>,
}

impl<'c, 'w> SimFeed<'c, 'w> {
    /// A feed over positions `start..end` of the study window,
    /// appending into `dir` (created if missing).
    pub fn new(
        collector: &'c mut Collector<'w>,
        dir: &Path,
        start: usize,
        end: usize,
        background: BackgroundMode,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(SimFeed {
            collector,
            dir: dir.to_path_buf(),
            background,
            next_idx: start,
            end_idx: end,
            prev: None,
            in_flight: None,
        })
    }

    /// The next day position the feed will append (or skip).
    pub fn next_idx(&self) -> usize {
        self.next_idx
    }

    /// Whether the window is exhausted.
    pub fn exhausted(&self) -> bool {
        self.next_idx >= self.end_idx && self.in_flight.is_none()
    }

    /// Synthesizes the next day's update stream and encodes it.
    fn next_day_bytes(&mut self) -> Option<(AppendedDay, Vec<u8>)> {
        if self.next_idx >= self.end_idx {
            return None;
        }
        let idx = self.next_idx;
        self.next_idx += 1;
        let snapshot = self.collector.snapshot_at(idx, self.background);
        let date = snapshot.date;
        let empty = TableSnapshot::new(date);
        let records = diff_snapshots(self.prev.as_ref().unwrap_or(&empty), &snapshot);
        self.prev = Some(snapshot);
        let mut bytes = Vec::new();
        for rec in &records {
            bytes.extend_from_slice(&rec.encode());
        }
        let day = AppendedDay {
            idx,
            date,
            path: self.dir.join(update_file_name(date, 0)),
            records: records.len(),
            bytes: bytes.len() as u64,
        };
        Some((day, bytes))
    }

    /// Appends the next day's update file in one shot. `None` once the
    /// window is exhausted. Finishes any in-flight day first.
    pub fn append_day(&mut self) -> io::Result<Option<AppendedDay>> {
        self.finish_day()?;
        let Some((day, bytes)) = self.next_day_bytes() else {
            return Ok(None);
        };
        write_file_atomic(&day.path, &bytes)?;
        Ok(Some(day))
    }

    /// Starts the next day's file but stops mid-record (roughly half
    /// the bytes, never on a record boundary when avoidable): the
    /// in-flight shape a follower must tail without poisoning.
    /// [`SimFeed::finish_day`] appends the rest.
    pub fn begin_day(&mut self) -> io::Result<Option<AppendedDay>> {
        self.finish_day()?;
        let Some((day, bytes)) = self.next_day_bytes() else {
            return Ok(None);
        };
        // Half the stream, nudged off any record boundary by +5 bytes
        // (inside the following record's 12-byte header).
        let cut = if bytes.len() > 17 {
            let mut boundary = 0usize;
            while boundary < bytes.len() / 2 {
                let len = u32::from_be_bytes([
                    bytes[boundary + 8],
                    bytes[boundary + 9],
                    bytes[boundary + 10],
                    bytes[boundary + 11],
                ]) as usize;
                boundary += 12 + len;
            }
            (boundary.min(bytes.len() - 6)) + 5
        } else {
            bytes.len() / 2
        };
        let mut f = File::create(&day.path)?;
        f.write_all(&bytes[..cut])?;
        f.sync_all()?;
        let rest = bytes[cut..].to_vec();
        self.in_flight = Some((day.clone(), rest));
        Ok(Some(day))
    }

    /// Completes the in-flight day begun by [`SimFeed::begin_day`].
    /// A no-op when nothing is in flight.
    pub fn finish_day(&mut self) -> io::Result<()> {
        if let Some((day, rest)) = self.in_flight.take() {
            let mut f = std::fs::OpenOptions::new().append(true).open(&day.path)?;
            f.write_all(&rest)?;
            f.sync_all()?;
        }
        Ok(())
    }

    /// Skips the next day entirely — no file is written, a gap the
    /// follower must detect and surface. Returns the skipped date.
    pub fn skip_day(&mut self) -> io::Result<Option<Date>> {
        self.finish_day()?;
        Ok(self.next_day_bytes().map(|(day, _)| day.date))
    }

    /// Appends one day per `interval` tick until the window is
    /// exhausted or `stop` flips — the timer shape examples drive a
    /// live follower with. Blocking; call from a
    /// scoped thread. Returns the days appended.
    pub fn run_timer(&mut self, interval: Duration, stop: &AtomicBool) -> io::Result<usize> {
        let mut days = 0;
        while !stop.load(Ordering::Relaxed) {
            match self.append_day()? {
                Some(_) => days += 1,
                None => break,
            }
            std::thread::sleep(interval);
        }
        Ok(days)
    }
}

/// How one vantage point of a [`SimFederation`] distorts the shared
/// update stream — the three federation pathologies a multi-collector
/// follower must absorb.
#[derive(Debug, Clone, Default)]
pub struct SimCollectorSpec {
    /// Collector name; its files land in `<base>/<name>/`.
    pub name: String,
    /// Clock skew applied to every record timestamp this collector
    /// writes (seconds; the payload bytes stay identical, so
    /// content-keyed dedup still matches the copies up).
    pub clock_skew_secs: i64,
    /// Study-window day positions this collector never archives — a
    /// per-collector feed gap the corroborated view must ride out.
    pub skip_days: Vec<usize>,
    /// Prefixes this collector never observes (partial visibility):
    /// they are dropped from its announcements and withdrawals, and
    /// updates left empty vanish entirely.
    pub hidden_prefixes: Vec<Ipv4Prefix>,
}

impl SimCollectorSpec {
    /// A faithful collector named `name`: no skew, no gaps, full
    /// visibility.
    pub fn new(name: impl Into<String>) -> Self {
        SimCollectorSpec {
            name: name.into(),
            ..SimCollectorSpec::default()
        }
    }

    /// Skews this collector's clock by `secs` (builder style).
    pub fn skewed(mut self, secs: i64) -> Self {
        self.clock_skew_secs = secs;
        self
    }

    /// Makes this collector skip the given window day positions.
    pub fn skipping(mut self, days: &[usize]) -> Self {
        self.skip_days = days.to_vec();
        self
    }

    /// Hides the given prefixes from this collector.
    pub fn hiding(mut self, prefixes: &[Ipv4Prefix]) -> Self {
        self.hidden_prefixes = prefixes.to_vec();
        self
    }
}

/// What one federation day produced for one collector.
#[derive(Debug, Clone)]
pub struct FederatedDay {
    /// Snapshot-day position in the study window.
    pub idx: usize,
    /// The day's calendar date.
    pub date: Date,
    /// Per-collector results, in spec order: `None` for a skipped
    /// day, otherwise the path and record count written.
    pub collectors: Vec<Option<(PathBuf, usize)>>,
}

/// A simulated *federation* of collectors: each day's canonical
/// update stream is synthesized once from the shared study-window
/// collector, then written per vantage point with that collector's
/// distortions applied — skewed clocks, skipped days, hidden
/// prefixes. The union of the vantage-point streams always covers the
/// canonical stream (a hidden prefix is only hidden from *some*
/// collectors), which is what makes federated-vs-single equivalence
/// pins exact.
pub struct SimFederation<'c, 'w> {
    collector: &'c mut Collector<'w>,
    base: PathBuf,
    specs: Vec<SimCollectorSpec>,
    background: BackgroundMode,
    next_idx: usize,
    end_idx: usize,
    prev: Option<TableSnapshot>,
}

impl<'c, 'w> SimFederation<'c, 'w> {
    /// A federation over positions `start..end` of the study window,
    /// writing each spec's files into `<base>/<name>/` (created if
    /// missing).
    pub fn new(
        collector: &'c mut Collector<'w>,
        base: &Path,
        start: usize,
        end: usize,
        background: BackgroundMode,
        specs: Vec<SimCollectorSpec>,
    ) -> io::Result<Self> {
        for spec in &specs {
            std::fs::create_dir_all(base.join(&spec.name))?;
        }
        Ok(SimFederation {
            collector,
            base: base.to_path_buf(),
            specs,
            background,
            next_idx: start,
            end_idx: end,
            prev: None,
        })
    }

    /// The per-collector archive directories, in spec order — the
    /// `CollectorSpec` dirs a federation under test opens.
    pub fn dirs(&self) -> Vec<PathBuf> {
        self.specs.iter().map(|s| self.base.join(&s.name)).collect()
    }

    /// `spec`'s view of the canonical day stream: clock skew applied,
    /// hidden prefixes removed (updates left empty vanish).
    fn collector_view(records: &[MrtRecord], spec: &SimCollectorSpec) -> Vec<MrtRecord> {
        let hidden: HashSet<Ipv4Prefix> = spec.hidden_prefixes.iter().copied().collect();
        records
            .iter()
            .filter_map(|rec| {
                let mut rec = rec.clone();
                rec.timestamp =
                    (rec.timestamp as i64 + spec.clock_skew_secs).clamp(0, u32::MAX as i64) as u32;
                if !hidden.is_empty() {
                    if let MrtBody::Bgp4mpMessage(m) = &mut rec.body {
                        if let BgpMessage::Update(u) = &mut m.message {
                            u.announced.retain(|p| !hidden.contains(p));
                            u.withdrawn.retain(|p| !hidden.contains(p));
                            if u.announced.is_empty() && u.withdrawn.is_empty() {
                                return None;
                            }
                        }
                    }
                }
                Some(rec)
            })
            .collect()
    }

    /// Appends the next day across every collector. `None` once the
    /// window is exhausted.
    pub fn append_day(&mut self) -> io::Result<Option<FederatedDay>> {
        if self.next_idx >= self.end_idx {
            return Ok(None);
        }
        let idx = self.next_idx;
        self.next_idx += 1;
        let snapshot = self.collector.snapshot_at(idx, self.background);
        let date = snapshot.date;
        let empty = TableSnapshot::new(date);
        let records = diff_snapshots(self.prev.as_ref().unwrap_or(&empty), &snapshot);
        self.prev = Some(snapshot);

        let mut collectors = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            if spec.skip_days.contains(&idx) {
                collectors.push(None);
                continue;
            }
            let view = Self::collector_view(&records, spec);
            let mut bytes = Vec::new();
            for rec in &view {
                bytes.extend_from_slice(&rec.encode());
            }
            let path = self.base.join(&spec.name).join(update_file_name(date, 0));
            write_file_atomic(&path, &bytes)?;
            collectors.push(Some((path, view.len())));
        }
        Ok(Some(FederatedDay {
            idx,
            date,
            collectors,
        }))
    }

    /// Appends every remaining day; returns the days written.
    pub fn write_all(&mut self) -> io::Result<usize> {
        let mut days = 0;
        while self.append_day()?.is_some() {
            days += 1;
        }
        Ok(days)
    }
}

/// Writes a complete file through a temp-name rename, so a follower
/// polling the directory never observes a half-written *completed*
/// file (in-flight truncation is exercised deliberately via
/// [`SimFeed::begin_day`] instead).
fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("mrt.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}
