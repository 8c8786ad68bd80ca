//! Drivers: run the detector over a whole study window.
//!
//! The analysis is embarrassingly parallel across days (each day's
//! table is scanned independently; the [`Timeline`] merge is
//! associative over disjoint day sets), so the sharded driver splits
//! the window into contiguous chunks and runs one worker per scoped
//! thread — CPU-bound batch work uses threads, not an async runtime.

use crate::detect::{detect, DayObservation};
use crate::timeline::Timeline;
use moas_mrt::{snapshot::SnapshotBuilder, MrtReader};
use moas_net::Date;
use std::fs::File;
use std::io;
use std::path::Path;

/// Runs one worker over every day serially.
pub fn analyze_serial<W>(dates: Vec<Date>, core_len: usize, mut worker: W) -> Timeline
where
    W: FnMut(usize) -> DayObservation,
{
    let n = dates.len();
    let mut tl = Timeline::new(dates, core_len);
    for idx in 0..n {
        let obs = worker(idx);
        tl.record(idx, &obs);
    }
    tl
}

/// Runs workers over contiguous day shards, one per thread, and merges
/// the resulting timelines. `factory` is called once per thread to
/// build that thread's worker (letting each thread own caches).
pub fn analyze_sharded<F, W>(
    dates: Vec<Date>,
    core_len: usize,
    threads: usize,
    factory: F,
) -> Timeline
where
    F: Fn() -> W + Sync,
    W: FnMut(usize) -> DayObservation + Send,
{
    let n = dates.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        let worker = factory();
        return analyze_serial(dates, core_len, worker);
    }
    let chunk = n.div_ceil(threads);
    let mut shards: Vec<Timeline> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo >= hi {
                continue;
            }
            let dates_ref = &dates;
            let factory_ref = &factory;
            handles.push(scope.spawn(move || {
                let mut worker = factory_ref();
                let mut tl = Timeline::new(dates_ref.clone(), core_len);
                for idx in lo..hi {
                    let obs = worker(idx);
                    tl.record(idx, &obs);
                }
                tl
            }));
        }
        for h in handles {
            shards.push(h.join().expect("analysis worker panicked"));
        }
    });

    let mut merged = Timeline::new(dates, core_len);
    for shard in shards {
        merged.merge(shard);
    }
    merged
}

/// Reads one MRT table-dump file and runs detection over it.
/// Returns the observation and the reader's fault counters.
///
/// Records stream straight from the reader into an incremental
/// [`SnapshotBuilder`] — each record is decoded, folded into the
/// table, and dropped, so memory is bounded by the table being built,
/// not by the file's record count.
pub fn analyze_mrt_file(
    path: &Path,
    date_hint: Option<Date>,
) -> io::Result<(DayObservation, moas_mrt::ReadStats)> {
    let file = File::open(path)?;
    let mut reader = MrtReader::new(file);
    let mut builder = SnapshotBuilder::new(date_hint, true);
    for record in reader.by_ref() {
        builder
            .push(&record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    }
    let mut stats = reader.stats().clone();
    let build = builder.finish();
    // Entries dropped for unknown peer indices are corruption too.
    stats.records_skipped += build.unknown_peer_entries;
    Ok((detect(&build.snapshot), stats))
}

/// Assigns day files round-robin across `threads` workers: worker `t`
/// gets `files[t]`, `files[t + threads]`, … so every worker's list
/// stays in ascending input order. This is the sharding both archive
/// drivers use — the batch analyzer below parallelizes day scans with
/// it, and the streaming driver
/// (`moas_history::pipeline::analyze_mrt_archive_streaming`) feeds its
/// reader pool from the same assignment so files decode concurrently
/// while the single-pass monitor consumes them in day order.
pub fn shard_archive_files<T: Clone>(files: &[T], threads: usize) -> Vec<Vec<T>> {
    let threads = threads.max(1).min(files.len().max(1));
    let mut shards: Vec<Vec<T>> = vec![Vec::new(); threads];
    for (i, f) in files.iter().enumerate() {
        shards[i % threads].push(f.clone());
    }
    shards
}

/// Restricts an archive window to the days from `start` on: the
/// retained dates, and the files re-positioned so day position 0 is
/// the first retained day. This is what "the batch timeline restricted
/// to the retained window" means when checking a retention-enabled
/// history service for exactness — run [`analyze_mrt_archive`] over
/// the restricted window and compare.
pub fn restrict_archive_window(
    dates: &[Date],
    files: &[(usize, std::path::PathBuf)],
    start: usize,
) -> (Vec<Date>, Vec<(usize, std::path::PathBuf)>) {
    let start = start.min(dates.len());
    let dates = dates[start..].to_vec();
    let files = files
        .iter()
        .filter(|(idx, _)| *idx >= start)
        .map(|(idx, path)| (idx - start, path.clone()))
        .collect();
    (dates, files)
}

/// Default worker count for archive scans: one per core, capped by the
/// number of files.
fn archive_threads(files: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(files.max(1))
}

/// Analyzes a full archive directory: `files[i] = (day position,
/// path)`. Missing or unreadable files become I/O errors; corrupt
/// records inside a file are skipped (and tallied) by the MRT reader.
///
/// Days are independent, so the files are sharded round-robin across
/// one worker per core (the old one-file-per-day serial loop is gone);
/// use [`analyze_mrt_archive_parallel`] to pick the worker count.
pub fn analyze_mrt_archive(
    dates: Vec<Date>,
    core_len: usize,
    files: &[(usize, std::path::PathBuf)],
) -> io::Result<(Timeline, u64)> {
    let threads = archive_threads(files.len());
    analyze_mrt_archive_parallel(dates, core_len, files, threads)
}

/// [`analyze_mrt_archive`] with an explicit worker count. Each worker
/// scans its round-robin share of the files into a private [`Timeline`]
/// (days are disjoint across workers, so the merge is exact); the first
/// I/O error in file order wins.
pub fn analyze_mrt_archive_parallel(
    dates: Vec<Date>,
    core_len: usize,
    files: &[(usize, std::path::PathBuf)],
    threads: usize,
) -> io::Result<(Timeline, u64)> {
    let n = dates.len();
    let mut seen = vec![false; n];
    for (idx, path) in files {
        assert!(*idx < n, "file day position {idx} outside window");
        assert!(
            !std::mem::replace(&mut seen[*idx], true),
            "two archive files for day position {idx} ({})",
            path.display()
        );
    }

    // Workers carry each file's position in `files` order so the
    // error that wins is the first in *file* order, not shard order.
    let indexed: Vec<(usize, usize, &std::path::PathBuf)> = files
        .iter()
        .enumerate()
        .map(|(pos, (idx, path))| (pos, *idx, path))
        .collect();
    let shards = shard_archive_files(&indexed, threads);
    let mut results: Vec<Result<(Timeline, u64), (usize, io::Error)>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for shard in &shards {
            let dates_ref = &dates;
            handles.push(
                scope.spawn(move || -> Result<(Timeline, u64), (usize, io::Error)> {
                    let mut tl = Timeline::new(dates_ref.clone(), core_len);
                    let mut skipped = 0u64;
                    for (pos, idx, path) in shard {
                        let (obs, stats) = analyze_mrt_file(path, None).map_err(|e| (*pos, e))?;
                        skipped += stats.records_skipped;
                        tl.record(*idx, &obs);
                    }
                    Ok((tl, skipped))
                }),
            );
        }
        for h in handles {
            results.push(h.join().expect("archive worker panicked"));
        }
    });

    let mut merged = Timeline::new(dates, core_len);
    let mut skipped_total = 0u64;
    let mut first_err: Option<(usize, io::Error)> = None;
    for result in results {
        match result {
            Ok((tl, skipped)) => {
                merged.merge(tl);
                skipped_total += skipped;
            }
            Err((pos, e)) => {
                if first_err.as_ref().is_none_or(|(p, _)| pos < *p) {
                    first_err = Some((pos, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    Ok((merged, skipped_total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::PrefixConflict;
    use moas_bgp::{PeerInfo, TableSnapshot};
    use moas_mrt::snapshot::{snapshot_to_records, DumpFormat};
    use moas_mrt::MrtWriter;
    use moas_net::Asn;
    use std::io::Write as _;
    use std::net::Ipv4Addr;

    fn dates(n: usize) -> Vec<Date> {
        (0..n)
            .map(|i| Date::ymd(2001, 1, 1).plus_days(i as i64))
            .collect()
    }

    fn day_obs(idx: usize) -> DayObservation {
        // Prefix A conflicts every day; prefix B only on even days.
        let mut conflicts = vec![PrefixConflict {
            prefix: "192.0.2.0/24".parse().unwrap(),
            origins: vec![Asn::new(7), Asn::new(9)],
            paths: vec![(0, "1 7".parse().unwrap()), (1, "2 9".parse().unwrap())],
        }];
        if idx.is_multiple_of(2) {
            conflicts.push(PrefixConflict {
                prefix: "198.51.100.0/24".parse().unwrap(),
                origins: vec![Asn::new(5), Asn::new(6)],
                paths: vec![(0, "1 5".parse().unwrap()), (1, "2 6".parse().unwrap())],
            });
        }
        DayObservation {
            date: None,
            conflicts,
            as_set_prefixes: vec![],
            total_prefixes: 2,
            empty_path_routes: 0,
            total_routes: 4,
        }
    }

    #[test]
    fn serial_and_sharded_agree() {
        let n = 37;
        let serial = analyze_serial(dates(n), n, day_obs);
        for threads in [2, 3, 8, 64] {
            let sharded = analyze_sharded(dates(n), n, threads, || day_obs);
            assert_eq!(serial.total_conflicts(), sharded.total_conflicts());
            assert_eq!(serial.durations().len(), sharded.durations().len());
            let mut a = serial.durations();
            let mut b = sharded.durations();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "threads={threads}");
            assert_eq!(
                serial.days().count(),
                sharded.days().count(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn sharded_single_thread_is_serial() {
        let n = 5;
        let a = analyze_serial(dates(n), n, day_obs);
        let b = analyze_sharded(dates(n), n, 1, || day_obs);
        assert_eq!(a.total_conflicts(), b.total_conflicts());
    }

    fn sample_snapshot(date: Date) -> TableSnapshot {
        let mut t = TableSnapshot::new(date);
        let p0 = t.add_peer(PeerInfo::v4(Ipv4Addr::new(10, 0, 0, 1), Asn::new(701)));
        let p1 = t.add_peer(PeerInfo::v4(Ipv4Addr::new(10, 0, 0, 2), Asn::new(1239)));
        t.push_path(
            p0,
            "192.0.2.0/24".parse().unwrap(),
            "701 8584".parse().unwrap(),
        );
        t.push_path(
            p1,
            "192.0.2.0/24".parse().unwrap(),
            "1239 7007".parse().unwrap(),
        );
        t.push_path(
            p1,
            "10.0.0.0/8".parse().unwrap(),
            "1239 3561".parse().unwrap(),
        );
        t
    }

    #[test]
    fn mrt_file_roundtrip_analysis() {
        let dir = std::env::temp_dir().join("moas-core-test");
        std::fs::create_dir_all(&dir).unwrap();
        let date = Date::ymd(2001, 3, 3);
        let snap = sample_snapshot(date);
        let records = snapshot_to_records(&snap, DumpFormat::V2);
        let path = dir.join("rib.20010303.mrt");
        let mut w = MrtWriter::new(File::create(&path).unwrap());
        w.write_all(&records).unwrap();
        w.finish().unwrap();

        let (obs, stats) = analyze_mrt_file(&path, None).unwrap();
        assert_eq!(obs.conflict_count(), 1);
        assert_eq!(obs.date, Some(date));
        assert_eq!(stats.records_skipped, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mrt_archive_analysis_counts_durations() {
        let dir = std::env::temp_dir().join("moas-core-archive-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ds = dates(3);
        let mut files = Vec::new();
        for (i, d) in ds.iter().enumerate() {
            let snap = sample_snapshot(*d);
            let records = snapshot_to_records(&snap, DumpFormat::V1);
            let path = dir.join(format!("rib.{i}.mrt"));
            let mut w = MrtWriter::new(File::create(&path).unwrap());
            w.write_all(&records).unwrap();
            w.finish().unwrap();
            files.push((i, path));
        }
        let (tl, skipped) = analyze_mrt_archive(ds.clone(), 3, &files).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(tl.total_conflicts(), 1);
        assert_eq!(tl.durations(), vec![3]);
        // The sharded scan is exact at any worker count.
        for threads in [1, 2, 5] {
            let (par, s) = analyze_mrt_archive_parallel(ds.clone(), 3, &files, threads).unwrap();
            assert_eq!(s, 0);
            assert_eq!(par.total_conflicts(), tl.total_conflicts());
            assert_eq!(par.durations(), tl.durations(), "threads={threads}");
            assert_eq!(par.days().count(), tl.days().count());
        }
        for (_, p) in files {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn archive_file_shards_preserve_order() {
        let files: Vec<usize> = (0..10).collect();
        let shards = shard_archive_files(&files, 3);
        assert_eq!(shards.len(), 3);
        let mut all: Vec<usize> = shards.iter().flatten().copied().collect();
        for shard in &shards {
            assert!(shard.windows(2).all(|w| w[0] < w[1]), "order per worker");
        }
        all.sort_unstable();
        assert_eq!(all, files);
        // More workers than files: capped, no empty panic.
        assert_eq!(shard_archive_files(&files[..2], 8).len(), 2);
    }

    #[test]
    fn corrupt_mrt_file_degrades_gracefully() {
        let dir = std::env::temp_dir().join("moas-core-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let date = Date::ymd(2001, 3, 3);
        let snap = sample_snapshot(date);
        let records = snapshot_to_records(&snap, DumpFormat::V1);
        let path = dir.join("rib.corrupt.mrt");
        {
            let mut f = File::create(&path).unwrap();
            for (i, r) in records.iter().enumerate() {
                let mut enc = r.encode().to_vec();
                if i == 1 {
                    let last = enc.len() - 1;
                    enc[20] = 0xEE; // corrupt a body byte
                    enc[last] ^= 0xFF;
                }
                f.write_all(&enc).unwrap();
            }
        }
        let (obs, stats) = analyze_mrt_file(&path, Some(date)).unwrap();
        // The undamaged records still yield analysis output.
        assert!(obs.total_routes >= 2);
        assert!(stats.records_ok >= 2);
        std::fs::remove_file(&path).ok();
    }
}
