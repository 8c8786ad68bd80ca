//! Acceptance for the observability surface: `/metrics` must serve
//! one valid Prometheus document covering monitor, history, feed, and
//! server from a shared registry; `/healthz` must answer whenever the
//! process does; `/readyz` must flip 503→200→503 across the first
//! epoch publish and an injected feed lag; and `/v1/events/log` must
//! surface journaled operational events. All checks are wire-level —
//! real sockets against a bound [`QueryServer`].

use moas_feed::{Federation, FederationConfig};
use moas_history::{HistoryService, RetentionPolicy, ServiceConfig};
use moas_lab::study::{Study, StudyConfig};
use moas_net::Date;
use moas_obs::Registry;
use moas_routeviews::{write_update_archive, BackgroundMode, Collector};
use moas_serve::{FeedStatusSource, QueryServer, QueryService, ServerConfig};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DAYS: usize = 3;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("moas-server-health-{}-{name}", std::process::id()))
}

fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(
            format!("GET {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap();
    let mut content_type = String::new();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => content_length = value.trim().parse().expect("length"),
                "content-type" => content_type = value.trim().to_string(),
                _ => {}
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, content_type, String::from_utf8(body).expect("utf8"))
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

/// A feed stub whose lag the test controls directly.
struct StubFeed {
    lag: AtomicU64,
}

impl FeedStatusSource for StubFeed {
    fn status_json(&self) -> Value {
        Value::Object(vec![(
            "lag_seconds".into(),
            Value::U64(self.lag.load(Ordering::Relaxed)),
        )])
    }

    fn lag_seconds(&self) -> u64 {
        self.lag.load(Ordering::Relaxed)
    }
}

fn write_archive(name: &str, dates: &mut Vec<Date>) -> PathBuf {
    let study = Study::build(StudyConfig::test(0.004));
    *dates = study.world.window.all_days()[..DAYS]
        .iter()
        .map(|d| d.date())
        .collect();
    let archive_dir = tmp(name);
    std::fs::remove_dir_all(&archive_dir).ok();
    let mut collector = Collector::new(&study.world, &study.peers);
    write_update_archive(
        &mut collector,
        &archive_dir,
        0,
        DAYS,
        BackgroundMode::Sample(15),
    )
    .expect("write synthetic archive");
    archive_dir
}

fn open_service(dir: &PathBuf, start: Date) -> Arc<HistoryService> {
    std::fs::remove_dir_all(dir).ok();
    Arc::new(
        HistoryService::open(
            dir,
            ServiceConfig {
                start_date: start,
                retention: RetentionPolicy::keep_everything(),
                watermark_segments: 2,
                poll_interval: Duration::from_millis(50),
                daemon: true,
            },
        )
        .expect("open service"),
    )
}

/// `/readyz` flips 503→200 when the first epoch publishes, then
/// 503→200 again as an attached feed's lag crosses the configured
/// bound. `/healthz` answers 200 throughout.
#[test]
fn readyz_flips_across_epoch_publish_and_feed_lag() {
    let mut dates = Vec::new();
    let archive_dir = write_archive("flip-archive", &mut dates);
    let service = open_service(&tmp("flip-store"), dates[0]);

    let stub = Arc::new(StubFeed {
        lag: AtomicU64::new(0),
    });
    let registry = Arc::new(Registry::new());
    let query = Arc::new(
        QueryService::with_registry(
            service.reader(),
            ServerConfig {
                start_date: dates[0],
                ready_max_feed_lag_secs: 600,
                ..ServerConfig::default()
            },
            Arc::clone(&registry),
        )
        .with_feed_status(Arc::clone(&stub) as Arc<dyn FeedStatusSource>),
    );
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
    let addr = server.local_addr();

    // Percentiles are explicitly absent before the first completed
    // request (this request is the first — its own latency only lands
    // in the window after the response is built).
    let (status, _, body) = get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    let server_stats = parse(&body);
    let server_stats = server_stats.get("server").expect("server block");
    assert_eq!(
        server_stats.get("p50_micros"),
        Some(&Value::Null),
        "no latency data must be null, not 0: {body}"
    );

    // Liveness is unconditional; readiness waits for the first epoch.
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _, body) = get(addr, "/readyz");
    assert_eq!(status, 503, "no epoch published yet: {body}");
    assert!(
        body.contains("epoch"),
        "503 must name the failing check: {body}"
    );

    // Ingest the archive through a one-collector feed: day marks seal segments
    // and publish epochs.
    let mut fed = Federation::open(
        FederationConfig::new(dates[0]).collector("route-views", &archive_dir),
        Arc::clone(&service),
    )
    .expect("open feed");
    while !fed.poll_once().expect("poll").caught_up {}
    fed.finalize().expect("finalize");
    service.wait_idle();

    let (status, _, body) = get(addr, "/readyz");
    assert_eq!((status, body.as_str()), (200, "ready\n"), "epoch published");

    // Feed lag beyond the bound flips readiness back off.
    stub.lag.store(601, Ordering::Relaxed);
    let (status, _, body) = get(addr, "/readyz");
    assert_eq!(status, 503, "lag 601 > 600 must fail readiness");
    assert!(
        body.contains("lag"),
        "503 must name the failing check: {body}"
    );
    stub.lag.store(599, Ordering::Relaxed);
    let (status, _, _) = get(addr, "/readyz");
    assert_eq!(status, 200, "lag back under the bound");

    server.shutdown();
    fed.shutdown().expect("feed shutdown");
}

/// One shared registry, one scrape: `/metrics` must cover monitor,
/// history-store, feed, and server series in a single well-formed
/// Prometheus document, and `/v1/events/log` must surface journaled
/// events (slow requests at a 1µs threshold).
#[test]
fn one_scrape_covers_the_whole_pipeline() {
    let mut dates = Vec::new();
    let archive_dir = write_archive("scrape-archive", &mut dates);
    let service = open_service(&tmp("scrape-store"), dates[0]);

    let registry = Arc::new(Registry::new());
    let mut fed = Federation::open_with_registry(
        FederationConfig::new(dates[0]).collector("route-views", &archive_dir),
        Arc::clone(&service),
        Arc::clone(&registry),
    )
    .expect("open feed");
    while !fed.poll_once().expect("poll").caught_up {}
    fed.finalize().expect("finalize");
    service.wait_idle();

    let query = Arc::new(
        QueryService::with_registry(
            service.reader(),
            ServerConfig {
                start_date: dates[0],
                slow_request_micros: 1,
                ..ServerConfig::default()
            },
            Arc::clone(&registry),
        )
        .with_engine_metrics(service.metrics_handle().expect("engine attached"))
        .with_feed_status(fed.status()),
    );
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
    let addr = server.local_addr();

    // Drive some traffic so serve-side series are non-trivial.
    let (status, _, _) = get(addr, "/v1/stats");
    assert_eq!(status, 200);
    let (status, _, body) = get(addr, "/v1/feed");
    assert_eq!(status, 200);
    let feed = parse(&body);
    assert!(feed.get("lag").and_then(|l| l.get("lag_seconds")).is_some());
    assert!(feed.get("day").and_then(|d| d.get("files_seen")).is_some());
    assert!(feed.get("files_seen").and_then(Value::as_u64).unwrap() > 0);

    let (status, content_type, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        content_type.starts_with("text/plain"),
        "exposition is text: {content_type}"
    );
    for needle in [
        "# TYPE moas_monitor_records_ingested_total counter",
        "# TYPE moas_store_segments_written gauge",
        "# TYPE moas_feed_lag_seconds gauge",
        "# TYPE moas_serve_requests_total counter",
        "# TYPE moas_serve_request_duration_us histogram",
        "moas_stage_duration_us_count{stage=\"shard_apply\"}",
        "moas_stage_duration_us_count{stage=\"event_append\"}",
        "moas_stage_duration_us_count{stage=\"feed_poll\"}",
        "moas_stage_duration_us_count{stage=\"request_route\"}",
        "# TYPE moas_ingest_to_serve_lag_seconds gauge",
        "moas_serve_responses_total{class=\"2xx\"}",
    ] {
        assert!(body.contains(needle), "scrape missing {needle:?}:\n{body}");
    }
    // One family, one TYPE line — even with every subsystem sharing
    // the stage histogram.
    assert_eq!(
        body.matches("# TYPE moas_stage_duration_us histogram")
            .count(),
        1,
        "duplicate TYPE lines would be rejected by Prometheus"
    );
    // The lag watermark pair must have been fed from both sides.
    assert!(body.contains("moas_ingest_last_event_timestamp_seconds"));
    assert!(body.contains("moas_serve_last_event_timestamp_seconds"));

    // The journal surfaced the slow requests (threshold 1µs ⇒ all).
    let (status, _, body) = get(addr, "/v1/events/log");
    assert_eq!(status, 200);
    let log = parse(&body);
    assert!(log.get("recorded").and_then(Value::as_u64).unwrap() > 0);
    let events = match log.get("events") {
        Some(Value::Array(rows)) => rows.clone(),
        other => panic!("events must be an array, got {other:?}"),
    };
    assert!(
        events.iter().any(|e| {
            e.get("kind").and_then(|k| match k {
                Value::String(s) => Some(s == "slow_request"),
                _ => None,
            }) == Some(true)
        }),
        "slow requests must be journaled: {body}"
    );

    server.shutdown();
    fed.shutdown().expect("feed shutdown");
}
