//! Acceptance for the federated collector-feed subsystem
//! (`moas_feed::Federation`).
//!
//! * **Equivalence pin:** a 4-collector federation over four copies of
//!   the same archive — clocks skewed within the dedup window — folds
//!   to exactly the single-collector history: same totals, durations,
//!   per-prefix episodes and flap counts, while the dedup counters
//!   show the three redundant copies were suppressed, not ingested.
//! * **Corroboration oracle:** under partial visibility (collectors
//!   hiding disjoint prefix sets), the per-conflict corroboration
//!   count served over the wire equals the hand-computed oracle
//!   `1 + Σ (collector sees the prefix)`, and the §VI verdict shifts
//!   only via the documented low-corroboration demotion.
//! * **Missing day:** one collector going dark for a day must not
//!   reopen or close conflicts the corroborated view keeps alive —
//!   the merged history still equals the single-collector fold, and
//!   the gap surfaces with the collector's name in `/v1/feed` and the
//!   operational event journal.
//! * **Cursor migration:** a store whose `FEED_CURSOR` is in the v1
//!   format (as releases with a separate single-collector driver
//!   wrote it, killed mid-file) is adopted by a federation in place:
//!   resume starts at the exact kill point, nothing replays into the
//!   log twice, and the cursor is rewritten in the v2 format.
//! * **Multi-collector kill/resume:** three skewed collectors, killed
//!   after collector 0 delivered a slot but before collectors 1–2 sent
//!   their copies of it. The resumed federation rebuilds the raw-keyed
//!   dedup window by replay, so the late copies dedup exactly as in an
//!   uninterrupted run: same counters, cursors and served
//!   corroboration.
//! * **Permutation invariance (property):** the final per-origin
//!   vantage masks do not depend on the order collectors report the
//!   same sightings in.

use moas_core::pipeline::analyze_mrt_archive;
use moas_feed::{Federation, FederationConfig, FeedCursor};
use moas_history::{HistoryService, RetentionPolicy, ServiceConfig};
use moas_lab::study::{Study, StudyConfig};
use moas_monitor::{MonitorConfig, MonitorEngine, MonitorEvent};
use moas_mrt::reader::MrtReader;
use moas_mrt::record::MrtRecord;
use moas_mrt::snapshot::DumpFormat;
use moas_net::{Date, Ipv4Prefix, Prefix};
use moas_routeviews::{
    write_window_archive, BackgroundMode, Collector, SimCollectorSpec, SimFederation, SimFeed,
};
use moas_serve::{QueryServer, QueryService, ServerConfig};
use proptest::prelude::*;
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const DAYS: usize = 10;
const SHARDS: usize = 2;
const BACKGROUND: BackgroundMode = BackgroundMode::Sample(15);

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "moas-federation-accept-{}-{name}",
        std::process::id()
    ))
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

/// Polls until the federation has consumed everything on disk.
fn catch_up_fed(fed: &mut Federation) {
    for _ in 0..20_000 {
        if fed.poll_once().expect("poll").caught_up {
            return;
        }
    }
    panic!("federation never caught up");
}

/// A federation of one over `dir`: the single-collector fold.
fn open_single(dir: &Path, start: Date, service: &Arc<HistoryService>) -> Federation {
    let config = FederationConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        checkpoint_bytes: 1 << 16,
        ..FederationConfig::new(start)
    }
    .collector("a", dir);
    Federation::open(config, Arc::clone(service)).unwrap()
}

/// MRT records in every update file of `dir`, counted by the plain
/// stream reader — a count that shares no feed code.
fn archive_records(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "mrt"))
        .map(|p| {
            let file = std::io::BufReader::new(std::fs::File::open(p).unwrap());
            MrtReader::new(file).count() as u64
        })
        .sum()
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

/// The prefixes in conflict on some day of the window, sorted — from
/// the batch fold.
fn conflicted_prefixes(study: &Study, dates: &[Date], name: &str) -> Vec<Prefix> {
    let dir = fresh(name);
    let files = {
        let mut collector = Collector::new(&study.world, &study.peers);
        write_window_archive(&mut collector, &dir, 0, DAYS, BACKGROUND, DumpFormat::V2).unwrap()
    };
    let (tl, _) = analyze_mrt_archive(dates.to_vec(), DAYS, &files).unwrap();
    let mut conflicted: Vec<Prefix> = tl
        .prefixes()
        .iter()
        .filter(|(_, r)| r.core_days > 0)
        .map(|(p, _)| *p)
        .collect();
    conflicted.sort();
    std::fs::remove_dir_all(&dir).ok();
    conflicted
}

fn v4(p: &Prefix) -> Ipv4Prefix {
    match p {
        Prefix::V4(v) => *v,
        other => panic!("study prefixes are v4, got {other}"),
    }
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

/// The full per-prefix shape of a history — everything except the
/// corroboration column, which only a federated fold populates.
fn conflict_fingerprints(service: &HistoryService) -> Vec<String> {
    service
        .reader()
        .snapshot()
        .conflicts()
        .records()
        .iter()
        .map(|(p, r)| {
            format!(
                "{p} origins={:?} episodes={:?} flaps={} open={}",
                r.origins,
                r.episodes,
                r.flap_count,
                r.is_open()
            )
        })
        .collect()
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

fn s<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?} in {v:?}"))
}

fn close_service(service: Arc<HistoryService>) {
    Arc::try_unwrap(service)
        .ok()
        .expect("sole service handle")
        .close()
        .unwrap();
}

/// Four collectors, identical archives, clocks skewed within the
/// dedup window: the merged fold equals the single-collector fold
/// exactly, the redundant copies dedup into corroborations, and the
/// federated status routes serve every vantage point.
#[test]
fn federation_over_identical_archives_equals_single_fold() {
    let study = Study::build(StudyConfig::test(0.004));
    let dates = window_dates(&study);
    let batch = batch_reference(&study, &dates, "eq-ribs");

    let base = fresh("eq-archives");
    let dirs = {
        let mut collector = Collector::new(&study.world, &study.peers);
        let mut sim = SimFederation::new(
            &mut collector,
            &base,
            0,
            DAYS,
            BACKGROUND,
            vec![
                SimCollectorSpec::new("a"),
                SimCollectorSpec::new("b").skewed(30),
                SimCollectorSpec::new("c").skewed(-45),
                SimCollectorSpec::new("d").skewed(60),
            ],
        )
        .unwrap();
        assert_eq!(sim.write_all().unwrap(), DAYS);
        sim.dirs()
    };

    // Reference: the single-collector fold over collector a's
    // (undistorted) copy, itself held to batch and to a plain count
    // of the archive's records.
    let ref_store = fresh("eq-ref-store");
    let ref_service = Arc::new(HistoryService::open(&ref_store, service_config(dates[0])).unwrap());
    let ref_cursor: FeedCursor = {
        let mut single = open_single(&dirs[0], dates[0], &ref_service);
        catch_up_fed(&mut single);
        single.finalize().unwrap();

        // A one-collector feed serves the federated shape: one
        // collector block, nothing deduped.
        let query = Arc::new(
            QueryService::new(ref_service.reader(), ServerConfig::default())
                .with_feed_status(single.status()),
        );
        let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
        let (status, feed) = get_json(server.local_addr(), "/v1/feed");
        assert_eq!(status, 200);
        let blocks = feed.get("collectors").and_then(Value::as_array).unwrap();
        assert_eq!(blocks.len(), 1, "{feed:?}");
        assert_eq!(s(&blocks[0], "collector"), "a");
        assert_eq!(u(&feed, "deduped"), 0, "one collector has no copies");
        assert_eq!(s(feed.get("cursor").unwrap(), "collector"), "a");
        server.shutdown();
        drop(query);
        let (mut cursors, _) = single.shutdown().unwrap();
        cursors.remove(0)
    };
    assert_history_matches_batch(&ref_service, &dates, &batch, "single fold vs batch");
    assert_eq!(
        ref_cursor.records,
        archive_records(&dirs[0]),
        "the single fold ingests every record of its archive"
    );

    // Federation over all four copies.
    let store = fresh("eq-store");
    let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
    let config = FederationConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        checkpoint_bytes: 1 << 16,
        ..FederationConfig::new(dates[0])
    }
    .collector("a", &dirs[0])
    .collector("b", &dirs[1])
    .collector("c", &dirs[2])
    .collector("d", &dirs[3]);
    let mut fed = Federation::open(config, Arc::clone(&service)).unwrap();
    catch_up_fed(&mut fed);
    fed.finalize().unwrap();

    // The tentpole pin: the merged timeline IS the single fold.
    assert_history_matches_batch(&service, &dates, &batch, "federated fold vs batch");
    assert_eq!(
        conflict_fingerprints(&service),
        conflict_fingerprints(&ref_service),
        "per-prefix episodes diverged between federated and single folds"
    );

    // Three of every four copies deduped into corroborations: the
    // engine saw exactly the single-collector record stream.
    let status = fed.status();
    assert_eq!(
        status.released(),
        ref_cursor.records,
        "released records must equal the single fold's ingest count"
    );
    assert_eq!(
        status.deduped(),
        3 * ref_cursor.records,
        "every record's three redundant skewed copies must dedup"
    );

    // Full corroboration: all four vantage points saw every origin.
    {
        let snap = service.reader().snapshot();
        for (prefix, rec) in snap.conflicts().records() {
            assert_eq!(
                rec.corroboration_count(),
                4,
                "{prefix} must be corroborated by all 4 collectors"
            );
        }
    }

    // Per-collector lag gauges replace the ambient one.
    for name in ["a", "b", "c", "d"] {
        assert!(
            fed.registry()
                .value("moas_feed_lag_seconds", &[("collector", name)])
                .is_some(),
            "missing moas_feed_lag_seconds{{collector={name:?}}}"
        );
    }

    // Federated status routes.
    let query = Arc::new(
        QueryService::new(service.reader(), ServerConfig::default()).with_feed_status(fed.status()),
    );
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
    let (code, feed) = get_json(server.local_addr(), "/v1/feed");
    assert_eq!(code, 200);
    assert_eq!(feed.get("caught_up").and_then(Value::as_bool), Some(true));
    assert!(u(&feed, "deduped") > 0);
    let blocks = feed
        .get("collectors")
        .and_then(Value::as_array)
        .expect("federated /v1/feed carries a collectors array");
    assert_eq!(blocks.len(), 4);
    // The aggregate keeps the single-feed keys (sums across units).
    assert_eq!(u(&feed, "records"), status.released());
    assert!(!s(feed.get("cursor").unwrap(), "collector").is_empty());

    let (code, cols) = get_json(server.local_addr(), "/v1/collectors");
    assert_eq!(code, 200);
    assert_eq!(u(&cols, "count"), 4);
    let names: Vec<&str> = cols
        .get("collectors")
        .and_then(Value::as_array)
        .expect("collectors array")
        .iter()
        .map(|b| s(b, "collector"))
        .collect();
    assert_eq!(names, ["a", "b", "c", "d"]);

    server.shutdown();
    drop(query);
    fed.shutdown().unwrap();
    close_service(service);
    close_service(ref_service);
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_dir_all(&ref_store).ok();
}

/// Partial visibility: collectors hiding disjoint prefix sets yield
/// per-conflict corroboration counts matching the hand-computed
/// oracle, served over the wire, with the §VI verdict shifting only
/// via the documented low-corroboration demotion.
#[test]
fn partial_visibility_serves_corroboration_oracle() {
    let study = Study::build(StudyConfig::test(0.004));
    let dates = window_dates(&study);
    let batch = batch_reference(&study, &dates, "vis-ribs");

    // The conflicted prefix set, from the batch fold, picks the
    // hidden sets: conflicted[0] hidden from b, conflicted[1] hidden
    // from both b and c, conflicted[2] hidden from c.
    let conflicted = conflicted_prefixes(&study, &dates, "vis-ribs-oracle");
    assert!(
        conflicted.len() >= 4,
        "need at least 4 conflicted prefixes, got {}",
        conflicted.len()
    );
    let hidden_b: Vec<Ipv4Prefix> = vec![v4(&conflicted[0]), v4(&conflicted[1])];
    let hidden_c: Vec<Ipv4Prefix> = vec![v4(&conflicted[1]), v4(&conflicted[2])];
    let oracle = |p: &Prefix| -> u32 {
        let p = v4(p);
        1 + u32::from(!hidden_b.contains(&p)) + u32::from(!hidden_c.contains(&p))
    };

    let base = fresh("vis-archives");
    let dirs = {
        let mut collector = Collector::new(&study.world, &study.peers);
        let mut sim = SimFederation::new(
            &mut collector,
            &base,
            0,
            DAYS,
            BACKGROUND,
            vec![
                SimCollectorSpec::new("a"),
                SimCollectorSpec::new("b").skewed(15).hiding(&hidden_b),
                SimCollectorSpec::new("c").skewed(25).hiding(&hidden_c),
            ],
        )
        .unwrap();
        sim.write_all().unwrap();
        sim.dirs()
    };

    let store = fresh("vis-store");
    let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
    let config = FederationConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        checkpoint_bytes: 1 << 16,
        ..FederationConfig::new(dates[0])
    }
    .collector("a", &dirs[0])
    .collector("b", &dirs[1])
    .collector("c", &dirs[2]);
    let mut fed = Federation::open(config, Arc::clone(&service)).unwrap();
    catch_up_fed(&mut fed);
    fed.finalize().unwrap();

    // Collector a sees everything, so hiding prefixes from b and c
    // must not perturb the merged timeline.
    assert_history_matches_batch(&service, &dates, &batch, "partial visibility vs batch");

    // Every conflicted prefix's corroboration equals the oracle.
    {
        let snap = service.reader().snapshot();
        for (prefix, rec) in snap.conflicts().records() {
            assert_eq!(
                rec.corroboration_count(),
                oracle(prefix),
                "corroboration oracle diverged for {prefix}"
            );
        }
    }

    let query = Arc::new(
        QueryService::new(service.reader(), ServerConfig::default()).with_feed_status(fed.status()),
    );
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");

    // Over the wire: /v1/prefix/{p} serves the oracle count.
    for p in &[&conflicted[0], &conflicted[1], &conflicted[3]] {
        let (code, body) = get_json(server.local_addr(), &format!("/v1/prefix/{p}"));
        assert_eq!(code, 200, "prefix {p}");
        let validity = body.get("validity").expect("validity block");
        assert_eq!(
            u(validity, "corroboration"),
            oracle(p) as u64,
            "wire corroboration diverged for {p}"
        );
    }

    // The verdict shifts only via the documented demotion: with
    // corroboration_min=1 the penalty is off; at the default (2), a
    // singly-corroborated conflict demotes iff its base verdict was
    // valid, and everything else is untouched.
    let weak = &conflicted[1]; // hidden from both b and c → count 1
    let (_, lenient) = get_json(
        server.local_addr(),
        &format!("/v1/prefix/{weak}?corroboration_min=1"),
    );
    let (_, strict) = get_json(server.local_addr(), &format!("/v1/prefix/{weak}"));
    let base_verdict = s(lenient.get("validity").unwrap(), "verdict").to_string();
    assert_ne!(base_verdict, "weakly_corroborated");
    let strict_verdict = s(strict.get("validity").unwrap(), "verdict");
    if base_verdict == "likely_valid" || base_verdict == "recurring_valid" {
        assert_eq!(strict_verdict, "weakly_corroborated");
    } else {
        assert_eq!(strict_verdict, base_verdict);
    }
    // A fully-corroborated prefix never demotes.
    let full = &conflicted[3];
    let (_, body) = get_json(server.local_addr(), &format!("/v1/prefix/{full}"));
    assert_ne!(
        s(body.get("validity").unwrap(), "verdict"),
        "weakly_corroborated"
    );

    // /v1/conflicts: the corroboration column is strictly opt-in.
    let date = dates[DAYS - 1];
    let (_, plain) = get_json(server.local_addr(), &format!("/v1/conflicts?date={date}"));
    assert!(
        plain.get("corroboration").is_none(),
        "default /v1/conflicts shape must not change"
    );
    let (_, with) = get_json(
        server.local_addr(),
        &format!("/v1/conflicts?date={date}&corroboration=1"),
    );
    let prefixes = with.get("prefixes").and_then(Value::as_array).unwrap();
    let counts = with
        .get("corroboration")
        .and_then(Value::as_array)
        .expect("opt-in corroboration column");
    assert_eq!(prefixes.len(), counts.len(), "parallel arrays must tile");
    for (p, c) in prefixes.iter().zip(counts) {
        let p: Prefix = p.as_str().unwrap().parse().unwrap();
        assert_eq!(c.as_u64().unwrap(), oracle(&p) as u64, "column for {p}");
    }

    server.shutdown();
    drop(query);
    fed.shutdown().unwrap();
    close_service(service);
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&store).ok();
}

/// One collector going dark for a day: the corroborated view rides
/// the gap (no spurious reopen/close), and the gap surfaces with the
/// collector's name in the status, `/v1/feed`, and the journal.
#[test]
fn missing_day_collector_keeps_corroborated_view_alive() {
    let study = Study::build(StudyConfig::test(0.004));
    let dates = window_dates(&study);
    let batch = batch_reference(&study, &dates, "gap-ribs");

    let base = fresh("gap-archives");
    let dirs = {
        let mut collector = Collector::new(&study.world, &study.peers);
        let mut sim = SimFederation::new(
            &mut collector,
            &base,
            0,
            DAYS,
            BACKGROUND,
            vec![
                SimCollectorSpec::new("a"),
                SimCollectorSpec::new("b").skewed(20).skipping(&[3]),
            ],
        )
        .unwrap();
        sim.write_all().unwrap();
        sim.dirs()
    };

    // Reference single fold over the full collector, held to batch.
    let ref_store = fresh("gap-ref-store");
    let ref_service = Arc::new(HistoryService::open(&ref_store, service_config(dates[0])).unwrap());
    {
        let mut single = open_single(&dirs[0], dates[0], &ref_service);
        catch_up_fed(&mut single);
        single.finalize().unwrap();
        single.shutdown().unwrap();
    }
    assert_history_matches_batch(&ref_service, &dates, &batch, "single fold vs batch");

    let store = fresh("gap-store");
    let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
    let config = FederationConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        checkpoint_bytes: 1 << 16,
        ..FederationConfig::new(dates[0])
    }
    .collector("a", &dirs[0])
    .collector("b", &dirs[1]);
    let mut fed = Federation::open(config, Arc::clone(&service)).unwrap();
    catch_up_fed(&mut fed);
    fed.finalize().unwrap();

    // The gap must not reopen or close anything the corroborated view
    // keeps alive: the merged history equals the single fold exactly.
    assert_history_matches_batch(&service, &dates, &batch, "gapped federation vs batch");
    assert_eq!(
        conflict_fingerprints(&service),
        conflict_fingerprints(&ref_service),
        "b's dark day must not perturb the merged episodes"
    );

    // The gap is b's alone, by name, everywhere it surfaces.
    let gaps = fed.status().gaps();
    assert_eq!(gaps.len(), 1);
    assert_eq!(gaps[0].0, "b");
    assert_eq!(gaps[0].1.date, dates[3]);
    assert_eq!(gaps[0].1.day, 3);
    let cursors = fed.cursors();
    assert_eq!(cursors[0].gaps, 0, "collector a never gapped");
    assert_eq!(cursors[1].gaps, 1, "collector b's cursor counts its gap");

    let query = Arc::new(
        QueryService::with_registry(
            service.reader(),
            ServerConfig::default(),
            Arc::clone(fed.registry()),
        )
        .with_feed_status(fed.status()),
    );
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
    let (_, feed) = get_json(server.local_addr(), "/v1/feed");
    assert_eq!(u(&feed, "gap_count"), 1);
    let rows = feed.get("gaps").and_then(Value::as_array).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(s(&rows[0], "collector"), "b");
    assert_eq!(s(&rows[0], "date"), dates[3].to_string());

    // The journal event carries the collector too.
    let (_, log) = get_json(server.local_addr(), "/v1/events/log");
    let gap_events: Vec<&Value> = log
        .get("events")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter(|e| s(e, "kind") == "feed_gap")
        .collect();
    assert_eq!(gap_events.len(), 1, "one feed_gap journal event");
    assert_eq!(s(gap_events[0], "collector"), "b");

    server.shutdown();
    drop(query);
    fed.shutdown().unwrap();
    close_service(service);
    close_service(ref_service);
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_dir_all(&ref_store).ok();
}

/// A store whose cursor is in the v1 format — killed mid-file — is
/// adopted by a (single-collector) federation in place: resume lands
/// on the exact kill point, the final history equals an uninterrupted
/// run byte for byte, and the cursor file is rewritten in the v2
/// format.
#[test]
fn v1_cursor_migrates_mid_stream_without_replay() {
    let study = Study::build(StudyConfig::test(0.004));
    let dates = window_dates(&study);
    let batch = batch_reference(&study, &dates, "mig-ribs");

    // Reference: one uninterrupted single-collector run.
    let reference_cursor: FeedCursor = {
        let archive = fresh("mig-ref-archive");
        {
            let mut collector = Collector::new(&study.world, &study.peers);
            moas_routeviews::write_update_archive(&mut collector, &archive, 0, DAYS, BACKGROUND)
                .unwrap();
        }
        let store = fresh("mig-ref-store");
        let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
        let mut single = Federation::open(
            FederationConfig {
                monitor: MonitorConfig::with_shards(SHARDS),
                checkpoint_bytes: 1,
                ..FederationConfig::new(dates[0])
            }
            .collector("route-views", &archive),
            Arc::clone(&service),
        )
        .unwrap();
        catch_up_fed(&mut single);
        single.finalize().unwrap();
        let (mut cursors, _) = single.shutdown().unwrap();
        assert_history_matches_batch(&service, &dates, &batch, "reference run vs batch");
        close_service(service);
        std::fs::remove_dir_all(&archive).ok();
        std::fs::remove_dir_all(&store).ok();
        cursors.remove(0)
    };

    // First life: a single-collector feed, killed mid-file on day 4;
    // its cursor is then rewritten as the v1 line an older release
    // would have left at the same position.
    let archive = fresh("mig-archive");
    let store = fresh("mig-store");
    let mut collector = Collector::new(&study.world, &study.peers);
    let mut sim = SimFeed::new(&mut collector, &archive, 0, DAYS, BACKGROUND).unwrap();
    for _ in 0..4 {
        sim.append_day().unwrap().expect("day in window");
    }
    let killed_cursor: FeedCursor = {
        let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
        let mut single = Federation::open(
            FederationConfig {
                monitor: MonitorConfig::with_shards(SHARDS),
                checkpoint_bytes: 1,
                ..FederationConfig::new(dates[0])
            }
            .collector("route-views", &archive),
            Arc::clone(&service),
        )
        .unwrap();
        catch_up_fed(&mut single);
        let day4 = sim.begin_day().unwrap().expect("day 4 in window");
        catch_up_fed(&mut single);
        let cursor = single.cursors().remove(0);
        assert!(cursor.offset > 0 && cursor.offset < day4.bytes, "mid-file");
        drop(single);
        cursor
    };
    let on_disk = std::fs::read_to_string(store.join("FEED_CURSOR")).unwrap();
    assert!(
        on_disk.starts_with("MFCUR002"),
        "the feed writes the v2 format: {on_disk:?}"
    );
    write_v1_cursor(&store, &killed_cursor);

    // The collector finishes the window; a federation adopts the store.
    sim.finish_day().unwrap();
    while sim.append_day().unwrap().is_some() {}

    let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
    let config = FederationConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        checkpoint_bytes: 1,
        ..FederationConfig::new(dates[0])
    }
    .collector("route-views", &archive);
    let mut fed = Federation::open(config, Arc::clone(&service)).unwrap();
    assert_eq!(
        fed.cursors(),
        vec![killed_cursor],
        "the v1 cursor is adopted as collector 0's exact position"
    );
    catch_up_fed(&mut fed);
    fed.finalize().unwrap();
    let (cursors, _) = fed.shutdown().unwrap();

    // Byte-for-byte resume: the migrated run ends exactly where the
    // uninterrupted single-collector run did, and the cursor now lives in
    // the v2 format under the same legacy file name.
    assert_eq!(cursors[0].file, reference_cursor.file);
    assert_eq!(cursors[0].offset, reference_cursor.offset);
    assert_eq!(cursors[0].next_day, reference_cursor.next_day);
    assert_eq!(cursors[0].records, reference_cursor.records);
    assert_eq!(cursors[0].files_done, reference_cursor.files_done);
    let migrated = std::fs::read_to_string(store.join("FEED_CURSOR")).unwrap();
    assert!(
        migrated.starts_with("MFCUR002") && migrated.contains("collector=0"),
        "migration must rewrite the cursor as v2: {migrated:?}"
    );
    assert!(
        !store.join("FEED_CURSOR.1").exists(),
        "a single-collector federation stores one cursor"
    );

    // No replay duplicates: the history equals the uninterrupted run.
    assert_history_matches_batch(&service, &dates, &batch, "migrated resume vs batch");
    close_service(service);
    std::fs::remove_dir_all(&archive).ok();
    std::fs::remove_dir_all(&store).ok();
}

/// Writes `cursor` as a v1 `FEED_CURSOR` line: the format releases
/// with a separate single-collector driver persisted.
fn write_v1_cursor(store: &Path, cursor: &FeedCursor) {
    let payload = format!(
        "MFCUR001 file={} offset={} next_day={} files_done={} gaps={} records={} shards={}",
        cursor.file,
        cursor.offset,
        cursor.next_day,
        cursor.files_done,
        cursor.gaps,
        cursor.records,
        cursor.shards,
    );
    let crc = moas_history::codec::crc32(payload.as_bytes());
    std::fs::write(
        store.join("FEED_CURSOR"),
        format!("{payload} crc={crc:08x}\n"),
    )
    .unwrap();
}

/// What a federated store serves and counts, for comparing two runs.
#[derive(Debug, PartialEq)]
struct FederatedOutcome {
    released: u64,
    deduped: u64,
    cursors: Vec<FeedCursor>,
    /// `/v1/conflicts?date=&corroboration=1` per window day, without
    /// the `epoch` stamp (a resumed run publishes extra epochs).
    conflicts: Vec<Value>,
}

fn federation_config(dates: &[Date], dirs: &[PathBuf]) -> FederationConfig {
    let mut config = FederationConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        checkpoint_bytes: 1,
        ..FederationConfig::new(dates[0])
    };
    for (name, dir) in ["a", "b", "c"].iter().zip(dirs) {
        config = config.collector(*name, dir);
    }
    config
}

/// Finalizes `fed` and collects its counters, cursors and served
/// conflicts; shuts it down.
fn finish_federation(
    mut fed: Federation,
    service: &Arc<HistoryService>,
    dates: &[Date],
) -> FederatedOutcome {
    fed.finalize().unwrap();
    let query = Arc::new(QueryService::new(service.reader(), ServerConfig::default()));
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
    let conflicts = dates
        .iter()
        .map(|date| {
            let (code, body) = get_json(
                server.local_addr(),
                &format!("/v1/conflicts?date={date}&corroboration=1"),
            );
            assert_eq!(code, 200);
            match body {
                Value::Object(fields) => {
                    Value::Object(fields.into_iter().filter(|(k, _)| k != "epoch").collect())
                }
                other => panic!("conflicts body is an object: {other:?}"),
            }
        })
        .collect();
    server.shutdown();
    drop(query);
    let status = fed.status();
    let (released, deduped) = (status.released(), status.deduped());
    let (cursors, _) = fed.shutdown().unwrap();
    FederatedOutcome {
        released,
        deduped,
        cursors,
        conflicts,
    }
}

/// Three skewed collectors, killed after collector 0 delivered day
/// `KILL`'s file but before collectors 1–2 sent their copies of it.
/// Replay at reopen must rebuild the raw-keyed dedup window, so those
/// late copies dedup against collector 0's released copy exactly as in
/// an uninterrupted run.
#[test]
fn multi_collector_kill_resume_equals_uninterrupted_run() {
    const KILL: usize = 5;
    let study = Study::build(StudyConfig::test(0.004));
    let dates = window_dates(&study);
    let batch = batch_reference(&study, &dates, "kill-ribs");
    let conflicted = conflicted_prefixes(&study, &dates, "kill-ribs-oracle");
    assert!(conflicted.len() >= 2, "need conflicted prefixes to hide");

    // The full archive; the killed run sees it land day by day.
    let base = fresh("kill-archives");
    let dirs = {
        let mut collector = Collector::new(&study.world, &study.peers);
        let mut sim = SimFederation::new(
            &mut collector,
            &base,
            0,
            DAYS,
            BACKGROUND,
            vec![
                SimCollectorSpec::new("a"),
                SimCollectorSpec::new("b")
                    .skewed(25)
                    .hiding(&[v4(&conflicted[0])]),
                SimCollectorSpec::new("c")
                    .skewed(-35)
                    .hiding(&[v4(&conflicted[1])]),
            ],
        )
        .unwrap();
        assert_eq!(sim.write_all().unwrap(), DAYS);
        sim.dirs()
    };
    let day_files: Vec<Vec<PathBuf>> = dirs
        .iter()
        .map(|dir| {
            let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            assert_eq!(files.len(), DAYS, "one file per collector and day");
            files
        })
        .collect();

    // Reference: one uninterrupted federation over the whole archive.
    let ref_store = fresh("kill-ref-store");
    let ref_service = Arc::new(HistoryService::open(&ref_store, service_config(dates[0])).unwrap());
    let mut fed =
        Federation::open(federation_config(&dates, &dirs), Arc::clone(&ref_service)).unwrap();
    catch_up_fed(&mut fed);
    let reference = finish_federation(fed, &ref_service, &dates);
    assert_history_matches_batch(
        &ref_service,
        &dates,
        &batch,
        "reference federation vs batch",
    );
    assert!(reference.deduped > 0, "the skewed copies must dedup");
    let reference_fingerprints = conflict_fingerprints(&ref_service);
    close_service(ref_service);

    let live = fresh("kill-live");
    let live_dirs: Vec<PathBuf> = ["a", "b", "c"].iter().map(|n| live.join(n)).collect();
    let land = |collector: usize, day: usize| {
        let src = &day_files[collector][day];
        std::fs::create_dir_all(&live_dirs[collector]).unwrap();
        std::fs::copy(src, live_dirs[collector].join(src.file_name().unwrap())).unwrap();
    };

    // First life: every collector through day KILL-1, plus collector
    // 0's day KILL — fully consumed and checkpointed, but still the
    // in-flight head. Collectors b and c have opened their day-KILL
    // files (which closes their day KILL-1) but written nothing yet.
    for day in 0..KILL {
        for collector in 0..3 {
            land(collector, day);
        }
    }
    land(0, KILL);
    for collector in 1..3 {
        let name = day_files[collector][KILL].file_name().unwrap();
        std::fs::File::create(live_dirs[collector].join(name)).unwrap();
    }
    let store = fresh("kill-store");
    let (released, deduped) = {
        let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
        let mut fed =
            Federation::open(federation_config(&dates, &live_dirs), Arc::clone(&service)).unwrap();
        catch_up_fed(&mut fed);
        let name = |collector: usize, day: usize| {
            let path = &day_files[collector][day];
            path.file_name().unwrap().to_str().unwrap().to_string()
        };
        let cursors = fed.cursors();
        assert_eq!(cursors[0].file, name(0, KILL));
        assert_eq!(
            cursors[0].offset,
            std::fs::metadata(&day_files[0][KILL]).unwrap().len(),
            "collector 0's slot is durably consumed"
        );
        for (collector, cursor) in cursors.iter().enumerate().skip(1) {
            assert_eq!(cursor.file, name(collector, KILL - 1));
        }
        let status = fed.status();
        let counts = (status.released(), status.deduped());
        drop(fed); // killed: no shutdown, no further checkpoint
        counts
    };

    // The late copies are written, then the rest of the window lands;
    // a new federation resumes over the same store.
    for collector in 1..3 {
        land(collector, KILL);
    }
    for day in KILL + 1..DAYS {
        for collector in 0..3 {
            land(collector, day);
        }
    }
    let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
    let mut fed =
        Federation::open(federation_config(&dates, &live_dirs), Arc::clone(&service)).unwrap();
    catch_up_fed(&mut fed);
    let mut resumed = finish_federation(fed, &service, &dates);
    resumed.released += released;
    resumed.deduped += deduped;
    assert_eq!(
        resumed, reference,
        "kill/resume must equal the uninterrupted run"
    );
    assert_eq!(conflict_fingerprints(&service), reference_fingerprints);
    assert_history_matches_batch(&service, &dates, &batch, "resumed federation vs batch");

    close_service(service);
    for dir in [&base, &live, &store, &ref_store] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Property: the final per-origin vantage masks — and so the served
/// corroboration counts — are invariant under the order collectors
/// report the same sightings in.
mod permutation_invariance {
    use super::*;

    fn announce(ts: u32, prefix: &str, origin: u32) -> MrtRecord {
        use moas_bgp::attrs::Attrs;
        use moas_bgp::message::UpdateMsg;
        use moas_bgp::BgpMessage;
        use moas_mrt::bgp4mp::{Bgp4mpMessage, PeeringHeader};
        use moas_mrt::record::MrtBody;
        MrtRecord {
            timestamp: ts,
            body: MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                header: PeeringHeader {
                    peer_as: moas_net::Asn::new(100),
                    local_as: moas_net::Asn::new(6447),
                    if_index: 0,
                    peer_addr: "10.0.0.1".parse().unwrap(),
                    local_addr: "10.0.0.2".parse().unwrap(),
                },
                message: BgpMessage::Update(UpdateMsg {
                    withdrawn: vec![],
                    attrs: Attrs::announcement(
                        format!("100 {origin}").parse().unwrap(),
                        std::net::Ipv4Addr::new(10, 0, 0, 1),
                    ),
                    announced: vec![prefix.parse().unwrap()],
                }),
                as4: false,
            }),
        }
    }

    const PREFIXES: [&str; 4] = [
        "192.0.2.0/24",
        "198.51.100.0/24",
        "203.0.113.0/24",
        "10.42.0.0/16",
    ];

    /// Drives one engine over the sightings, each observed first by
    /// `observers[0]` (regular ingest) and corroborated by the rest,
    /// and returns the final popcount per `(prefix, origin)`.
    fn fold(sightings: &[(usize, u32, Vec<usize>)], reverse: bool) -> HashMap<String, u32> {
        let mut engine = MonitorEngine::new(MonitorConfig {
            collectors: 4,
            ..MonitorConfig::with_shards(SHARDS)
        });
        let mut masks: HashMap<String, u64> = HashMap::new();
        for (i, (prefix_idx, origin, observers)) in sightings.iter().enumerate() {
            let rec = announce(1_000 + i as u32, PREFIXES[*prefix_idx], 7 + *origin);
            let mut order: Vec<u16> = observers.iter().map(|&o| o as u16).collect();
            if reverse {
                order.reverse();
            }
            engine.ingest_record_from(order[0], &rec);
            for &collector in &order[1..] {
                engine.corroborate_record(collector, &rec);
            }
        }
        for seq in engine.drain_events() {
            if let MonitorEvent::OriginCorroborated {
                prefix,
                origin,
                mask,
                ..
            } = seq.event
            {
                *masks.entry(format!("{prefix} {origin}")).or_default() |= mask;
            }
        }
        engine.finish();
        masks
            .into_iter()
            .map(|(k, m)| (k, m.count_ones()))
            .collect()
    }

    proptest! {
        #[test]
        fn corroboration_counts_are_order_invariant(
            sightings in prop::collection::vec(
                (0usize..4, 0u32..3, prop::collection::vec(0usize..4, 1..=4)),
                1..32,
            ),
        ) {
            let forward = fold(&sightings, false);
            let backward = fold(&sightings, true);
            prop_assert_eq!(forward, backward);
        }
    }
}
