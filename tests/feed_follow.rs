//! Acceptance for the live collector-feed subsystem (`moas-feed`) over
//! one collector: a `Federation` of one.
//!
//! * **Catch-up exactness:** a feed driven by the simulated
//!   collector produces, after catch-up, exactly the same
//!   `total_conflicts`/`durations` as batch `analyze_mrt_archive`
//!   over the same window, while `moas-serve` answers `/v1/feed`
//!   with a live cursor and epochs advance.
//! * **Restart/resume exactness:** kill the feed mid-file (durable
//!   cursor inside an in-flight update file), restart over the same
//!   store, and the final history *and* the final cursor equal an
//!   uninterrupted run, byte for byte — no re-ingestion, no double
//!   counting. The in-flight file is written truncated mid-record
//!   first, so tailing-without-poisoning is on the path.
//! * **Gap surfacing:** a skipped archive day is marked through the
//!   pipeline and surfaces as a `FeedGap` in `/v1/feed`.

use moas_core::pipeline::analyze_mrt_archive;
use moas_feed::{Federation, FederationConfig, FeedCursor};
use moas_history::{HistoryService, RetentionPolicy, ServiceConfig};
use moas_lab::study::{Study, StudyConfig};
use moas_monitor::MonitorConfig;
use moas_mrt::snapshot::DumpFormat;
use moas_net::Date;
use moas_routeviews::{
    update_file_name, write_update_archive, write_window_archive, BackgroundMode, Collector,
    SimFeed,
};
use moas_serve::{FeedStatusSource, QueryServer, QueryService, ServerConfig};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

const DAYS: usize = 10;
const SHARDS: usize = 2;
const BACKGROUND: BackgroundMode = BackgroundMode::Sample(15);

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("moas-feed-accept-{}-{name}", std::process::id()))
}

fn fresh(name: &str) -> PathBuf {
    let dir = tmp(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn window_dates(study: &Study) -> Vec<Date> {
    study.world.window.all_days()[..DAYS]
        .iter()
        .map(|d| d.date())
        .collect()
}

fn service_config(start: Date) -> ServiceConfig {
    ServiceConfig {
        start_date: start,
        retention: RetentionPolicy::keep_everything(),
        watermark_segments: 100,
        daemon: false,
        ..ServiceConfig::default()
    }
}

fn feed_config(archive: &std::path::Path, start: Date, checkpoint_bytes: u64) -> FederationConfig {
    FederationConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        checkpoint_bytes,
        ..FederationConfig::new(start)
    }
    .collector("route-views", archive)
}

/// Polls until the feed has consumed everything on disk.
fn catch_up(fed: &mut Federation) {
    for _ in 0..10_000 {
        if fed.poll_once().expect("poll").caught_up {
            return;
        }
    }
    panic!("feed never caught up");
}

/// The one collector's cursor.
fn cursor(fed: &Federation) -> FeedCursor {
    fed.cursors().remove(0)
}

/// The batch reference over the same window: per-day table dumps.
fn batch_reference(study: &Study, dates: &[Date], name: &str) -> (usize, Vec<u32>) {
    let dir = fresh(name);
    let files = {
        let mut collector = Collector::new(&study.world, &study.peers);
        write_window_archive(&mut collector, &dir, 0, DAYS, BACKGROUND, DumpFormat::V2)
            .expect("write rib archive")
    };
    let (tl, skipped) = analyze_mrt_archive(dates.to_vec(), DAYS, &files).expect("batch scan");
    assert_eq!(skipped, 0);
    assert!(tl.total_conflicts() > 0, "window must contain conflicts");
    let mut durations = tl.durations();
    durations.sort_unstable();
    let total = tl.total_conflicts();
    std::fs::remove_dir_all(&dir).ok();
    (total, durations)
}

fn assert_history_matches_batch(
    service: &HistoryService,
    dates: &[Date],
    batch: &(usize, Vec<u32>),
    context: &str,
) {
    let snap = service.reader().snapshot();
    assert_eq!(
        snap.total_conflicts(dates),
        batch.0,
        "total_conflicts diverged: {context}"
    );
    let mut durations = snap.durations(dates);
    durations.sort_unstable();
    assert_eq!(durations, batch.1, "durations diverged: {context}");
}

fn get_json(addr: std::net::SocketAddr, target: &str) -> (u16, Value) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(
            format!("GET {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(&mut reader, &mut body).expect("body");
    let body = String::from_utf8(body).expect("utf8");
    let json = serde_json::from_str(&body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"));
    (status, json)
}

fn u(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 {key:?} in {v:?}"))
}

/// Catch-up equivalence + `/v1/feed` served live.
#[test]
fn feed_catchup_matches_batch_and_serves_status() {
    let study = Study::build(StudyConfig::test(0.004));
    let dates = window_dates(&study);
    let batch = batch_reference(&study, &dates, "catchup-ribs");

    let archive = fresh("catchup-archive");
    {
        let mut collector = Collector::new(&study.world, &study.peers);
        write_update_archive(&mut collector, &archive, 0, DAYS, BACKGROUND)
            .expect("write update archive");
    }

    let store = fresh("catchup-store");
    let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
    let mut fed = Federation::open(
        feed_config(&archive, dates[0], 1 << 16),
        Arc::clone(&service),
    )
    .expect("open feed");

    let reader = service.reader();
    let epoch_before = reader.epoch();
    catch_up(&mut fed);
    let final_progress = fed.finalize().expect("finalize");
    assert!(final_progress.days_marked >= 1, "last day must be marked");
    assert!(
        reader.epoch() > epoch_before,
        "epochs must advance as the feed ingests"
    );

    // The feed's status is served live under /v1/feed.
    let query = Arc::new(
        QueryService::new(
            reader.clone(),
            ServerConfig {
                start_date: dates[0],
                ..ServerConfig::default()
            },
        )
        .with_feed_status(fed.status()),
    );
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
    let (status, feed) = get_json(server.local_addr(), "/v1/feed");
    assert_eq!(status, 200);
    assert_eq!(feed.get("running").and_then(Value::as_bool), Some(true));
    assert_eq!(feed.get("caught_up").and_then(Value::as_bool), Some(true));
    let cursor = feed.get("cursor").expect("cursor object");
    assert_eq!(
        cursor.get("file").and_then(Value::as_str),
        Some(update_file_name(dates[DAYS - 1], 0).as_str()),
        "live cursor must sit in the last update file"
    );
    assert!(u(cursor, "offset") > 0);
    assert_eq!(u(&feed, "gap_count"), 0);
    assert_eq!(u(&feed, "files_done"), DAYS as u64 - 1);
    assert!(u(&feed, "records") > 0);

    // And the history equals the batch scan exactly.
    let (cursors, report) = fed.shutdown().expect("shutdown");
    assert_eq!(cursors[0].next_day, DAYS as u32);
    assert!(report.routes > 0);
    assert_history_matches_batch(&service, &dates, &batch, "catch-up vs batch");

    server.shutdown();
    drop(query);
    Arc::try_unwrap(service)
        .ok()
        .expect("sole service handle")
        .close()
        .unwrap();
    std::fs::remove_dir_all(&archive).ok();
    std::fs::remove_dir_all(&store).ok();
}

/// Kill mid-file, restart, and both the history and the cursor equal
/// an uninterrupted run.
#[test]
fn mid_file_restart_resumes_byte_exact() {
    let study = Study::build(StudyConfig::test(0.004));
    let dates = window_dates(&study);
    let batch = batch_reference(&study, &dates, "restart-ribs");

    // Reference: one uninterrupted feed over the full archive.
    let reference_cursor: FeedCursor = {
        let archive = fresh("ref-archive");
        {
            let mut collector = Collector::new(&study.world, &study.peers);
            write_update_archive(&mut collector, &archive, 0, DAYS, BACKGROUND).unwrap();
        }
        let store = fresh("ref-store");
        let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
        let mut fed =
            Federation::open(feed_config(&archive, dates[0], 1), Arc::clone(&service)).unwrap();
        catch_up(&mut fed);
        fed.finalize().unwrap();
        let (mut cursors, _) = fed.shutdown().unwrap();
        assert_history_matches_batch(&service, &dates, &batch, "reference run vs batch");
        std::fs::remove_dir_all(&archive).ok();
        std::fs::remove_dir_all(&store).ok();
        cursors.remove(0)
    };

    // Interrupted: the simulated collector lands days 0..=3, then
    // leaves day 4 truncated mid-record; the feed checkpoints on
    // every poll, is killed mid-file, and a fresh process resumes.
    let archive = fresh("kill-archive");
    let store = fresh("kill-store");
    let mut collector = Collector::new(&study.world, &study.peers);
    let mut sim = SimFeed::new(&mut collector, &archive, 0, DAYS, BACKGROUND).unwrap();
    for _ in 0..4 {
        sim.append_day().unwrap().expect("day in window");
    }

    let killed_cursor: FeedCursor = {
        let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
        let mut fed =
            Federation::open(feed_config(&archive, dates[0], 1), Arc::clone(&service)).unwrap();
        catch_up(&mut fed);

        // Day 4 lands truncated mid-record; the feed must ingest the
        // complete records and keep the partial tail pending.
        let day4 = sim.begin_day().unwrap().expect("day 4 in window");
        catch_up(&mut fed);
        let cursor = cursor(&fed);
        assert_eq!(
            cursor.file,
            day4.path.file_name().unwrap().to_str().unwrap()
        );
        assert!(
            cursor.offset > 0 && cursor.offset < day4.bytes,
            "cursor must sit mid-file: offset {} of {}",
            cursor.offset,
            day4.bytes
        );
        // Kill: no shutdown, no finalize — engine and service dropped
        // with whatever the last checkpoint made durable.
        drop(fed);
        cursor
    };

    // The collector finishes day 4 and lands the rest of the window.
    sim.finish_day().unwrap();
    while sim.append_day().unwrap().is_some() {}

    // Restart over the same store: rebuild to the cursor, resume.
    let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
    let mut fed =
        Federation::open(feed_config(&archive, dates[0], 1), Arc::clone(&service)).unwrap();
    let resumed = fed.status().units()[0].snapshot();
    assert_eq!(resumed.resumes, 1, "feed must resume from the cursor");
    assert_eq!(
        cursor(&fed),
        killed_cursor,
        "resume starts at the kill point"
    );
    catch_up(&mut fed);
    fed.finalize().unwrap();
    let (final_cursors, _) = fed.shutdown().unwrap();

    // Byte-for-byte cursor exactness against the uninterrupted run.
    assert_eq!(final_cursors, vec![reference_cursor]);
    // And the history is exactly the batch answer — nothing lost,
    // nothing double-counted across the kill.
    assert_history_matches_batch(&service, &dates, &batch, "killed+resumed run vs batch");
    let suppressed = Arc::try_unwrap(service)
        .ok()
        .expect("sole service handle")
        .close()
        .unwrap();
    assert!(suppressed.events_appended > 0);

    std::fs::remove_dir_all(&archive).ok();
    std::fs::remove_dir_all(&store).ok();
}

/// The seal-vs-cursor crash window: the durable log holds events
/// *beyond* the persisted cursor (a crash between sealing and the
/// cursor rename). Resume must suppress the regenerated duplicates
/// via the per-shard sequence watermarks — totals stay exact, and
/// the suppression is visible in the status counters.
#[test]
fn stale_cursor_resume_suppresses_duplicates() {
    let study = Study::build(StudyConfig::test(0.004));
    let dates = window_dates(&study);
    let batch = batch_reference(&study, &dates, "stale-ribs");

    let archive = fresh("stale-archive");
    let store = fresh("stale-store");
    let mut collector = Collector::new(&study.world, &study.peers);
    let mut sim = SimFeed::new(&mut collector, &archive, 0, DAYS, BACKGROUND).unwrap();
    for _ in 0..3 {
        sim.append_day().unwrap();
    }

    // First life: consume three days, remember the cursor, consume
    // two more (their events get sealed), then die — and roll the
    // on-disk cursor back, as if the final rename never happened.
    let stale_cursor: FeedCursor = {
        let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
        let mut fed =
            Federation::open(feed_config(&archive, dates[0], 1), Arc::clone(&service)).unwrap();
        catch_up(&mut fed);
        let stale = cursor(&fed);
        sim.append_day().unwrap();
        sim.append_day().unwrap();
        catch_up(&mut fed);
        assert!(cursor(&fed).records > stale.records);
        drop(fed);
        stale.stage_v2(store.as_path()).unwrap().commit().unwrap();
        stale
    };

    // The collector lands the rest of the window.
    while sim.append_day().unwrap().is_some() {}

    // Second life: the log is ahead of the cursor; the watermarks
    // must absorb the overlap.
    let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
    let mut fed =
        Federation::open(feed_config(&archive, dates[0], 1), Arc::clone(&service)).unwrap();
    assert_eq!(cursor(&fed), stale_cursor);
    catch_up(&mut fed);
    fed.finalize().unwrap();
    let status = fed.status().status_json();
    assert!(
        u(&status, "suppressed_duplicates") > 0,
        "the re-ingested overlap must be suppressed, not re-appended"
    );
    fed.shutdown().unwrap();

    assert_history_matches_batch(&service, &dates, &batch, "stale-cursor resume vs batch");
    Arc::try_unwrap(service)
        .ok()
        .expect("sole service handle")
        .close()
        .unwrap();
    std::fs::remove_dir_all(&archive).ok();
    std::fs::remove_dir_all(&store).ok();
}

/// A missing archive day is marked through the pipeline and surfaced
/// as a gap in `/v1/feed`.
#[test]
fn gap_day_is_marked_and_surfaced() {
    let study = Study::build(StudyConfig::test(0.004));
    let dates = window_dates(&study);

    let archive = fresh("gap-archive");
    let store = fresh("gap-store");
    let mut collector = Collector::new(&study.world, &study.peers);
    let mut sim = SimFeed::new(&mut collector, &archive, 0, 5, BACKGROUND).unwrap();
    sim.append_day().unwrap();
    sim.append_day().unwrap();
    let skipped = sim.skip_day().unwrap().expect("day 2 skipped");
    assert_eq!(skipped, dates[2]);
    sim.append_day().unwrap();
    sim.append_day().unwrap();

    let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
    let mut fed =
        Federation::open(feed_config(&archive, dates[0], 0), Arc::clone(&service)).unwrap();
    catch_up(&mut fed);
    let progress = fed.finalize().unwrap();
    assert_eq!(cursor(&fed).gaps, 1);
    assert_eq!(progress.days_marked, 1, "finalize marks the last day");

    let snapshot = fed.status().units()[0].snapshot();
    assert_eq!(snapshot.gap_count, 1);
    assert_eq!(snapshot.gaps.len(), 1);
    assert_eq!(snapshot.gaps[0].date, dates[2]);
    assert_eq!(snapshot.gaps[0].day, 2);

    // Served under /v1/feed.
    let query = Arc::new(
        QueryService::new(service.reader(), ServerConfig::default()).with_feed_status(fed.status()),
    );
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
    let (status, feed) = get_json(server.local_addr(), "/v1/feed");
    assert_eq!(status, 200);
    assert_eq!(u(&feed, "gap_count"), 1);
    let gaps = feed
        .get("gaps")
        .and_then(Value::as_array)
        .expect("gaps array");
    assert_eq!(gaps.len(), 1);
    assert_eq!(
        gaps[0].get("date").and_then(Value::as_str),
        Some(dates[2].to_string().as_str())
    );
    assert_eq!(u(&gaps[0], "day"), 2);

    // All five day positions were marked despite the hole: the gap
    // day got its (empty) mark so the store's day accounting is not
    // silently skewed.
    assert_eq!(cursor(&fed).next_day, 5);

    // Without a feed attached, the route answers 404.
    let bare = QueryService::new(service.reader(), ServerConfig::default());
    let resp = bare.respond(&moas_serve::Request {
        method: "GET".into(),
        path: "/v1/feed".into(),
        query: Vec::new(),
        headers: Vec::new(),
        body: Vec::new(),
        keep_alive: false,
    });
    assert_eq!(resp.status, 404);

    server.shutdown();
    drop(query);
    fed.shutdown().unwrap();
    Arc::try_unwrap(service)
        .ok()
        .expect("sole service handle")
        .close()
        .unwrap();
    std::fs::remove_dir_all(&archive).ok();
    std::fs::remove_dir_all(&store).ok();
}
