//! Acceptance for the self-monitoring layer: one trace id must follow
//! an MRT file from feed discovery to the published epoch as a single
//! connected span tree; sampling 0 must silence the tracer without
//! touching the stage histograms; and an injected feed stall must
//! drive the full operational loop observably over the wire — the lag
//! series at `/v1/series`, the alert walking pending → firing →
//! resolved across `/v1/alerts` polls, the transitions in
//! `/v1/events/log`, readiness failing while the page rule fires, and
//! a slow request's journal entry resolving to its span tree at
//! `/v1/trace/{id}`. A real two-collector stall must reach the same
//! alert: the feed publishes its max-across-collectors lag on the
//! unlabelled series the page rule watches.

use moas_feed::{Federation, FederationConfig};
use moas_history::{HistoryService, RetentionPolicy, ServiceConfig};
use moas_lab::study::{Study, StudyConfig};
use moas_net::Date;
use moas_obs::tsdb::unix_now;
use moas_obs::{AlertEngine, Registry, Tsdb};
use moas_routeviews::{
    write_update_archive, BackgroundMode, Collector, SimCollectorSpec, SimFederation,
};
use moas_serve::{FeedStatusSource, QueryServer, QueryService, ServerConfig};
use serde::Value;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const DAYS: usize = 3;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("moas-obs-selfmon-{}-{name}", std::process::id()))
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
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
                content_length = value.trim().parse().expect("length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8"))
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
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

/// Ingests the archive through a one-collector feed on `registry`,
/// returning after the service is idle (every epoch published).
fn ingest(
    archive_dir: &PathBuf,
    service: &Arc<HistoryService>,
    registry: &Arc<Registry>,
    start: Date,
) -> Federation {
    let mut feed = Federation::open_with_registry(
        FederationConfig::new(start).collector("route-views", archive_dir),
        Arc::clone(service),
        Arc::clone(registry),
    )
    .expect("open feed");
    while !feed.poll_once().expect("poll").caught_up {}
    feed.finalize().expect("finalize");
    service.wait_idle();
    feed
}

/// The names of every span in one trace, asserting along the way that
/// the spans form a single connected tree (one root, every other
/// span's parent is a span of the same trace).
fn trace_stage_names(registry: &Registry, trace: u64) -> BTreeSet<&'static str> {
    let spans = registry.tracer().trace_spans(trace);
    let ids: BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
    let roots: Vec<_> = spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(
        roots.len(),
        1,
        "trace {trace:x} must have exactly one root, got {roots:?}"
    );
    for s in &spans {
        assert!(
            s.parent == 0 || ids.contains(&s.parent),
            "span {} ({}) is orphaned from trace {trace:x}",
            s.span,
            s.name
        );
    }
    spans.iter().map(|s| s.name).collect()
}

/// One trace id follows an MRT file across every subsystem: some
/// feed-poll root span's tree must contain the feed, decode, monitor,
/// and history stages — discovery to published epoch, one connected
/// tree.
#[test]
fn one_trace_follows_a_file_from_poll_to_published_epoch() {
    let mut dates = Vec::new();
    let archive_dir = write_archive("trace-archive", &mut dates);
    let service = open_service(&tmp("trace-store"), dates[0]);
    let registry = Arc::new(Registry::new());
    let feed = ingest(&archive_dir, &service, &registry, dates[0]);

    let roots = registry.tracer().slowest_roots(100);
    assert!(!roots.is_empty(), "ingest must record root spans");
    let polls: Vec<_> = roots.iter().filter(|r| r.name == "feed_poll").collect();
    assert!(!polls.is_empty(), "feed polls must be traced: {roots:?}");

    // The catch-up poll drags files through decode, shard apply,
    // append, seal, and epoch publish — all inside its own trace.
    let required = [
        "feed_poll",
        "feed_tail",
        "mrt_decode",
        "shard_apply",
        "event_append",
        "epoch_publish",
    ];
    let mut best: BTreeSet<&'static str> = BTreeSet::new();
    let connected = polls.iter().any(|root| {
        let names = trace_stage_names(&registry, root.trace);
        let all = required.iter().all(|stage| names.contains(stage));
        if names.len() > best.len() {
            best = names;
        }
        all
    });
    assert!(
        connected,
        "no feed_poll trace covers the whole pipeline; best saw {best:?}"
    );

    feed.shutdown().expect("feed shutdown");
}

/// Sampling 0 silences the tracer completely — zero recorded spans
/// for a full ingest — while the stage histograms on the same
/// registry keep observing every stage.
#[test]
fn sampling_zero_records_no_spans_but_histograms_still_observe() {
    let mut dates = Vec::new();
    let archive_dir = write_archive("nosample-archive", &mut dates);
    let service = open_service(&tmp("nosample-store"), dates[0]);
    let registry = Arc::new(Registry::new());
    registry.tracer().set_sampling(0);
    let feed = ingest(&archive_dir, &service, &registry, dates[0]);

    assert_eq!(
        registry.tracer().recorded(),
        0,
        "sampling 0 must record nothing"
    );

    // The metrics path is independent of the trace path: stage
    // histograms observed the same ingest.
    let text = registry.render_prometheus();
    for stage in ["feed_poll", "shard_apply", "event_append"] {
        let needle = format!("moas_stage_duration_us_count{{stage=\"{stage}\"}}");
        let line = text
            .lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("missing {needle} in scrape:\n{text}"));
        let count: u64 = line
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        assert!(count > 0, "{stage} histogram must still observe: {line}");
    }

    feed.shutdown().expect("feed shutdown");
}

/// Kind strings of every journaled event served at `/v1/events/log`.
fn journal_kinds(addr: SocketAddr) -> Vec<String> {
    let (status, body) = get(addr, "/v1/events/log");
    assert_eq!(status, 200);
    match parse(&body).get("events") {
        Some(Value::Array(rows)) => rows
            .iter()
            .filter_map(|e| match e.get("kind") {
                Some(Value::String(s)) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        other => panic!("events must be an array, got {other:?}"),
    }
}

/// The `/v1/alerts` state of one rule.
fn alert_state(addr: SocketAddr, rule: &str) -> String {
    let (status, body) = get(addr, "/v1/alerts");
    assert_eq!(status, 200);
    let doc = parse(&body);
    let rows = match doc.get("alerts") {
        Some(Value::Array(rows)) => rows.clone(),
        other => panic!("alerts must be an array, got {other:?}"),
    };
    rows.iter()
        .find(|r| matches!(r.get("name"), Some(Value::String(s)) if s == rule))
        .and_then(|r| r.get("state"))
        .and_then(|s| match s {
            Value::String(s) => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("rule {rule} missing from /v1/alerts: {body}"))
}

/// An injected feed stall drives the whole operational loop, checked
/// entirely over the wire: the lag series lands in `/v1/series`, the
/// feed-lag page rule walks pending → firing → resolved across
/// `/v1/alerts` polls, each transition is journaled, readiness fails
/// while the page rule fires and recovers when it resolves, and a
/// slow request's journal entry carries a trace id that resolves to
/// its span tree at `/v1/trace/{id}`.
#[test]
fn injected_feed_stall_drives_the_alert_loop_over_the_wire() {
    let mut dates = Vec::new();
    let archive_dir = write_archive("stall-archive", &mut dates);
    let service = open_service(&tmp("stall-store"), dates[0]);
    let registry = Arc::new(Registry::new());
    let feed = ingest(&archive_dir, &service, &registry, dates[0]);

    let tsdb = Arc::new(Tsdb::default());
    let alerts = Arc::new(AlertEngine::new(Arc::clone(&registry), Arc::clone(&tsdb)));
    let query = Arc::new(
        QueryService::with_registry(
            service.reader(),
            ServerConfig {
                start_date: dates[0],
                // Journal every request, so each one is traceable.
                slow_request_micros: 1,
                // Keep the plain feed-lag readiness check out of the
                // way: only the page alert may flip /readyz here.
                ready_max_feed_lag_secs: u64::MAX,
                ..ServerConfig::default()
            },
            Arc::clone(&registry),
        )
        .with_engine_metrics(service.metrics_handle().expect("engine attached"))
        .with_feed_status(feed.status())
        .with_self_monitor(Arc::clone(&tsdb), Arc::clone(&alerts)),
    );
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
    let addr = server.local_addr();

    // The injection handle: the same gauge the feed publishes its
    // max-across-collectors lag through (same name + labels ⇒ same series). The test ticks
    // the sampler and engine by hand — deterministic, no background
    // Sampler thread — at wall-clock-adjacent instants so the
    // real-time range query in /v1/series sees the points.
    let lag = registry.gauge(
        "moas_feed_lag_seconds",
        "Seconds the ingest position trails the newest discovered file.",
    );
    let mut now = unix_now().saturating_sub(80);

    // Calm baseline: the rule learns lag ≈ 5 s and stays ok.
    lag.set(5);
    for _ in 0..3 {
        tsdb.sample(&registry, now);
        alerts.tick(now);
        now += 10;
    }
    assert_eq!(alert_state(addr, "feed_lag"), "ok");
    let (status, _) = get(addr, "/readyz");
    assert_eq!(status, 200, "calm feed, ready");

    // The stall: lag jumps two ticks past the surge bound.
    lag.set(5_000);
    tsdb.sample(&registry, now);
    alerts.tick(now);
    now += 10;
    assert_eq!(alert_state(addr, "feed_lag"), "pending");
    let (status, _) = get(addr, "/readyz");
    assert_eq!(status, 200, "pending does not page yet");

    tsdb.sample(&registry, now);
    alerts.tick(now);
    now += 10;
    assert_eq!(alert_state(addr, "feed_lag"), "firing");
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 503, "a firing page alert fails readiness");
    assert!(
        body.contains("feed_lag"),
        "503 must name the firing rule: {body}"
    );

    // The stalled samples are queryable as a series over the wire.
    let (status, body) = get(addr, "/v1/series?name=moas_feed_lag_seconds&range=600");
    assert_eq!(status, 200);
    let doc = parse(&body);
    let series = match doc.get("series") {
        Some(Value::Array(rows)) => rows.clone(),
        other => panic!("series must be an array, got {other:?}"),
    };
    assert!(!series.is_empty(), "lag series must be sampled: {body}");
    let points = match series[0].get("points") {
        Some(Value::Array(pts)) => pts.clone(),
        other => panic!("points must be an array, got {other:?}"),
    };
    let values: Vec<f64> = points
        .iter()
        .filter_map(|p| match p {
            Value::Array(pair) => pair.get(1).and_then(|v| match v {
                Value::F64(f) => Some(*f),
                Value::U64(u) => Some(*u as f64),
                _ => None,
            }),
            _ => None,
        })
        .collect();
    assert!(
        values.contains(&5.0) && values.contains(&5_000.0),
        "series must hold the calm and stalled samples: {values:?}"
    );

    // Recovery: clean ticks walk firing → resolved and readiness
    // returns.
    lag.set(0);
    for _ in 0..2 {
        tsdb.sample(&registry, now);
        alerts.tick(now);
        now += 10;
    }
    assert_eq!(alert_state(addr, "feed_lag"), "resolved");
    let (status, _) = get(addr, "/readyz");
    assert_eq!(status, 200, "resolved alert no longer pages");

    // Every transition was journaled, in order.
    let kinds = journal_kinds(addr);
    let alert_kinds: Vec<&String> = kinds.iter().filter(|k| k.starts_with("alert_")).collect();
    assert_eq!(
        alert_kinds,
        ["alert_pending", "alert_firing", "alert_resolved"],
        "full journal: {kinds:?}"
    );

    // Slow-request forensics: the 1 µs threshold journals every
    // request with its trace id; the id must resolve to a span tree
    // naming the request pipeline stages.
    let (status, _) = get(addr, "/v1/stats");
    assert_eq!(status, 200);
    let (status, body) = get(addr, "/v1/events/log");
    assert_eq!(status, 200);
    let events = match parse(&body).get("events") {
        Some(Value::Array(rows)) => rows.clone(),
        other => panic!("events must be an array, got {other:?}"),
    };
    let trace_id = events
        .iter()
        .rev()
        .find(|e| matches!(e.get("kind"), Some(Value::String(k)) if k == "slow_request"))
        .and_then(|e| e.get("trace"))
        .and_then(|t| match t {
            Value::String(s) => Some(s.clone()),
            _ => None,
        })
        .expect("a journaled slow request carries its trace id");
    let (status, body) = get(addr, &format!("/v1/trace/{trace_id}"));
    assert_eq!(status, 200, "the journaled id resolves: {body}");
    let spans = match parse(&body).get("spans") {
        Some(Value::Array(rows)) => rows.clone(),
        other => panic!("spans must be an array, got {other:?}"),
    };
    let names: BTreeSet<String> = spans
        .iter()
        .filter_map(|s| match s.get("name") {
            Some(Value::String(n)) => Some(n.clone()),
            _ => None,
        })
        .collect();
    for stage in ["request", "request_parse", "request_route"] {
        assert!(names.contains(stage), "trace must name {stage}: {names:?}");
    }
    assert!(
        spans.len() >= 3,
        "the span tree resolves at least three stages: {spans:?}"
    );

    server.shutdown();
    feed.shutdown().expect("feed shutdown");
}

/// A real stall across two collectors: `b` stops delivering while `a`
/// keeps landing files, so the merge holds at `b`'s in-flight head and
/// `a`'s lag climbs. The unlabelled `moas_feed_lag_seconds` — the
/// series the `feed_lag` page rule watches — must carry the same
/// max-across-collectors lag `/readyz` reads, and the rule must leave
/// `ok`.
#[test]
fn stalled_collector_lag_reaches_the_page_alert() {
    const STALL_DAYS: usize = 4;
    let study = Study::build(StudyConfig::test(0.004));
    let dates: Vec<Date> = study.world.window.all_days()[..STALL_DAYS]
        .iter()
        .map(|d| d.date())
        .collect();
    let base = tmp("stall2-archives");
    std::fs::remove_dir_all(&base).ok();
    let day_files: Vec<Vec<PathBuf>> = {
        let mut collector = Collector::new(&study.world, &study.peers);
        let mut sim = SimFederation::new(
            &mut collector,
            &base,
            0,
            STALL_DAYS,
            BackgroundMode::Sample(15),
            vec![
                SimCollectorSpec::new("a"),
                SimCollectorSpec::new("b").skewed(20),
            ],
        )
        .expect("open sim federation");
        assert_eq!(sim.write_all().expect("write archives"), STALL_DAYS);
        sim.dirs()
            .iter()
            .map(|dir| {
                let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
                    .expect("read archive")
                    .map(|e| e.expect("entry").path())
                    .collect();
                files.sort();
                files
            })
            .collect()
    };
    let live = tmp("stall2-live");
    std::fs::remove_dir_all(&live).ok();
    let live_dirs: Vec<PathBuf> = ["a", "b"].iter().map(|n| live.join(n)).collect();
    for dir in &live_dirs {
        std::fs::create_dir_all(dir).expect("live dir");
    }
    let land = |collector: usize, day: usize| {
        let src = &day_files[collector][day];
        std::fs::copy(src, live_dirs[collector].join(src.file_name().unwrap())).expect("land");
    };

    let service = open_service(&tmp("stall2-store"), dates[0]);
    let registry = Arc::new(Registry::new());
    let tsdb = Arc::new(Tsdb::default());
    let alerts = AlertEngine::new(Arc::clone(&registry), Arc::clone(&tsdb));
    let mut fed = Federation::open_with_registry(
        FederationConfig::new(dates[0])
            .collector("a", &live_dirs[0])
            .collector("b", &live_dirs[1]),
        Arc::clone(&service),
        Arc::clone(&registry),
    )
    .expect("open federation");
    let status = fed.status();
    let feed_lag = || {
        alerts
            .report()
            .into_iter()
            .find(|r| r.name == "feed_lag")
            .expect("standard feed_lag rule")
            .state
    };
    let published = || {
        tsdb.latest("moas_feed_lag_seconds", &[])
            .map(|(_, v)| v)
            .expect("the unlabelled lag series is sampled")
    };
    let mut now = unix_now().saturating_sub(80);
    let mut tick = || {
        tsdb.sample(&registry, now);
        alerts.tick(now);
        now += 10;
    };

    // Calm: nothing has landed, every collector is caught up.
    for _ in 0..3 {
        fed.poll_once().expect("poll");
        tick();
    }
    assert_eq!(status.lag_seconds(), 0);
    assert_eq!(published(), 0.0, "calm lag published unlabelled");
    assert_eq!(feed_lag(), "ok", "calm feed");

    // The stall: a delivers every day, b only its first, which it
    // never finishes — the merge holds at b's in-flight head.
    for day in 0..STALL_DAYS {
        land(0, day);
    }
    land(1, 0);
    while !fed.poll_once().expect("poll").caught_up {}
    let stalled = status.lag_seconds();
    assert!(
        stalled >= 2 * 86_400,
        "a's lag must climb behind b's barrier: {stalled}"
    );
    assert_eq!(
        registry.value("moas_feed_lag_seconds", &[("collector", "a")]),
        Some(stalled),
        "the healthy collector carries the max"
    );
    tick();
    assert_eq!(published(), stalled as f64, "the max reaches the tsdb");
    assert_eq!(feed_lag(), "pending", "the stall leaves ok");
    tick();
    assert_eq!(feed_lag(), "firing");
    assert_eq!(alerts.firing_page(), Some("feed_lag"));

    fed.shutdown().expect("feed shutdown");
    for dir in [&base, &live] {
        std::fs::remove_dir_all(dir).ok();
    }
}
