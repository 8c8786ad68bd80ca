//! Acceptance for the profiling & resource-attribution layer, checked
//! over the wire wherever the feature has a wire surface:
//!
//! * Named-thread CPU attribution must cover ≥ 90 % of the process
//!   CPU burned under a SimFeed ingest with concurrent query load —
//!   every pipeline thread reports through the thread-name registry,
//!   so almost nothing lands in `thread="other"`.
//! * `/v1/profile` folded stacks must be flamegraph.pl-parseable, and
//!   the profiler's per-stage self-time must reconcile (± 10 %) with
//!   the `moas_stage_duration_us` histogram sums over the same run.
//! * The profiler and sampler journal their lifecycle (`profiler_started`,
//!   `profiler_stopped`, `sampler_stall`) and those events surface in
//!   `/v1/events/log` and the `/v1/events/stream` SSE tail.
//! * Error responses on the self-monitoring routes use the uniform
//!   envelope `{"error":{code,message,retry_after}}` — pinned here so
//!   a refactor cannot silently change the wire contract.

use moas_feed::{Federation, FederationConfig};
use moas_history::{HistoryService, RetentionPolicy, ServiceConfig};
use moas_lab::study::{Study, StudyConfig};
use moas_net::Date;
use moas_obs::tsdb::{unix_now, Sampler};
use moas_obs::{AlertEngine, CpuLedger, Profiler, Registry, ResourceLedger, Tsdb};
use moas_routeviews::{write_update_archive, BackgroundMode, Collector};
use moas_serve::{QueryServer, QueryService, ServerConfig};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DAYS: usize = 3;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("moas-obs-profile-{}-{name}", std::process::id()))
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

/// Asserts the uniform error envelope: a single `error` object
/// carrying exactly `code`, `message`, and `retry_after`.
fn assert_envelope(body: &str, code: &str) {
    let doc = parse(body);
    let err = doc
        .get("error")
        .unwrap_or_else(|| panic!("missing error object: {body}"));
    assert_eq!(
        err.get("code").and_then(Value::as_str),
        Some(code),
        "wrong code: {body}"
    );
    assert!(
        matches!(err.get("message"), Some(Value::String(m)) if !m.is_empty()),
        "missing message: {body}"
    );
    assert!(
        err.get("retry_after").is_some(),
        "missing retry_after: {body}"
    );
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

/// A history service with no ingest — the light fixture for tests
/// that only exercise the wire protocol.
fn light_service(name: &str) -> Arc<HistoryService> {
    let dir = tmp(name);
    std::fs::remove_dir_all(&dir).ok();
    Arc::new(
        HistoryService::open(
            &dir,
            ServiceConfig {
                start_date: Date::ymd(2024, 1, 1),
                daemon: false,
                ..ServiceConfig::default()
            },
        )
        .expect("open light service"),
    )
}

/// CPU seconds per `thread=` label plus the process total, parsed
/// from one wire-level `/metrics` scrape (which itself samples the
/// ledger).
fn scrape_cpu(addr: SocketAddr) -> (BTreeMap<String, f64>, f64) {
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let mut threads = BTreeMap::new();
    let mut process = 0.0;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("moas_thread_cpu_seconds_total{thread=\"") {
            let (name, tail) = rest.split_once('"').expect("label close quote");
            let value: f64 = tail
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("bad sample line: {line}"));
            *threads.entry(name.to_string()).or_insert(0.0) += value;
        } else if let Some(rest) = line.strip_prefix("moas_process_cpu_seconds_total ") {
            process = rest.trim().parse().expect("process cpu value");
        }
    }
    (threads, process)
}

/// Per-stage `moas_stage_duration_us` histogram sums (µs) from one
/// `/metrics` scrape.
fn scrape_stage_sums(addr: SocketAddr) -> BTreeMap<String, u64> {
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let mut sums = BTreeMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("moas_stage_duration_us_sum{stage=\"") {
            let (stage, tail) = rest.split_once('"').expect("label close quote");
            let value: u64 = tail
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("bad sum line: {line}"));
            sums.insert(stage.to_string(), value);
        }
    }
    sums
}

/// The tentpole acceptance test: a SimFeed ingest with concurrent
/// query load, measured entirely over the wire.
///
/// * Named threads must account for ≥ 90 % of the process CPU burned
///   during the window (the named-attribution acceptance bar).
/// * The folded stacks at `/v1/profile` must parse as flamegraph.pl
///   input and contain the ingest pipeline stages.
/// * Per-stage profiler self-time must reconcile with the
///   `moas_stage_duration_us` histogram sums within ± 10 %.
#[test]
fn cpu_attribution_and_stage_profiles_reconcile_under_load() {
    // Every thread this test runs work on is named, including itself.
    let _reg = moas_obs::prof::register_thread_as("test-profile-driver");

    let mut dates = Vec::new();
    let archive_dir = write_archive("load-archive", &mut dates);
    let service = open_service(&tmp("load-store"), dates[0]);

    let registry = Arc::new(Registry::new());
    let profiler = Arc::new(Profiler::new(Arc::clone(&registry)));
    let cpu = Arc::new(CpuLedger::new(Arc::clone(&registry)));
    let resources = Arc::new(ResourceLedger::new(Arc::clone(&registry)));
    let store_reader = service.reader();
    resources.probe("store", move || {
        store_reader.snapshot().stats().retained_bytes
    });

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
        .with_profiler(Arc::clone(&profiler))
        .with_cpu_ledger(Arc::clone(&cpu))
        .with_resources(Arc::clone(&resources)),
    );
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
    let addr = server.local_addr();

    // Baseline: the scrape itself samples the ledger.
    let (base_threads, base_process) = scrape_cpu(addr);

    // A collector thread keeps the span ring drained and the CPU
    // ledger fresh while the load runs, exactly like a deployment's
    // background Sampler tick would.
    let stop = Arc::new(AtomicBool::new(false));
    let collector = {
        let stop = Arc::clone(&stop);
        let profiler = Arc::clone(&profiler);
        let cpu = Arc::clone(&cpu);
        std::thread::Builder::new()
            .name("test-collector".into())
            .spawn(move || {
                let _reg = moas_obs::prof::register_thread();
                while !stop.load(Ordering::Acquire) {
                    profiler.collect();
                    cpu.sample();
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
            .expect("spawn collector")
    };

    // Concurrent query load: two named client threads hammer the read
    // API while the feed ingests.
    let clients: Vec<_> = (0..2)
        .map(|i| {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("test-client-{i}"))
                .spawn(move || {
                    let _reg = moas_obs::prof::register_thread();
                    let mut sent = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let (status, _) = get(addr, "/v1/stats");
                        assert_eq!(status, 200);
                        sent += 1;
                    }
                    sent
                })
                .expect("spawn client")
        })
        .collect();

    // The SimFeed ingest: the feed, history daemon, and shard
    // workers all spawn named.
    let mut fed = Federation::open_with_registry(
        FederationConfig::new(dates[0]).collector("route-views", &archive_dir),
        Arc::clone(&service),
        Arc::clone(&registry),
    )
    .expect("open feed");
    while !fed.poll_once().expect("poll").caught_up {}
    fed.finalize().expect("finalize");
    service.wait_idle();

    // The load window proper: the clients keep hammering while the
    // driver burns CPU it expects to see attributed to its own name.
    // The synthetic archive is small, so without this the whole test
    // could finish inside a couple of scheduler accounting ticks
    // (10 ms each) and the coverage ratio would be rounding noise.
    let load_until = std::time::Instant::now() + Duration::from_millis(1500);
    let mut spin = 0u64;
    while std::time::Instant::now() < load_until {
        for _ in 0..10_000 {
            spin = spin
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
    }
    std::hint::black_box(spin);

    stop.store(true, Ordering::Release);
    let queries: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
    assert!(queries > 0, "the concurrent query load must have run");
    collector.join().expect("collector");

    // ---- Acceptance bar 1: ≥ 90 % of process CPU is attributed to
    // named threads over the load window.
    let (end_threads, end_process) = scrape_cpu(addr);
    let process_delta = end_process - base_process;
    assert!(
        process_delta > 0.0,
        "the load must burn measurable process CPU"
    );
    let named_delta: f64 = end_threads
        .iter()
        .filter(|(name, _)| name.as_str() != "other")
        .map(|(name, v)| v - base_threads.get(name).copied().unwrap_or(0.0))
        .sum();
    let coverage = named_delta / process_delta;
    assert!(
        coverage >= 0.90,
        "named threads must cover >= 90% of process CPU, got {:.1}% \
         ({named_delta:.3}s of {process_delta:.3}s; threads: {end_threads:?})",
        coverage * 100.0
    );

    // ---- Acceptance bar 2: folded stacks parse as flamegraph.pl
    // input — `frame(;frame)* <weight>` per line — and name the
    // ingest pipeline.
    let (status, folded) = get(addr, "/v1/profile?range=3600");
    assert_eq!(status, 200);
    assert!(!folded.is_empty(), "the profile must not be empty");
    for line in folded.lines() {
        let (stack, weight) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("folded line must be 'stack weight': {line:?}"));
        weight
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("weight must be integer µs: {line:?}"));
        assert!(
            !stack.is_empty() && stack.split(';').all(|frame| !frame.is_empty()),
            "stack frames must be non-empty: {line:?}"
        );
    }
    for stage in ["feed_poll", "mrt_decode", "request_route"] {
        assert!(
            folded.lines().any(|l| l.contains(stage)),
            "folded stacks must include {stage}:\n{folded}"
        );
    }
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("feed_poll;") || l.starts_with("feed_poll ")),
        "ingest stacks must be rooted at feed_poll:\n{folded}"
    );

    // ---- Acceptance bar 3: per-stage profiler self-time reconciles
    // with the stage histogram sums within ± 10 %. The compared
    // stages are leaves of the ingest trace, so self-time and the
    // histogram's observed duration measure the same interval.
    let (status, body) = get(addr, "/v1/profile?range=3600&format=json");
    assert_eq!(status, 200);
    let doc = parse(&body);
    let mut profiled: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for row in doc.get("stages").and_then(Value::as_array).expect("stages") {
        let stage = row.get("stage").and_then(Value::as_str).expect("stage");
        let self_us = row.get("self_us").and_then(Value::as_u64).expect("self_us");
        let total_us = row
            .get("total_us")
            .and_then(Value::as_u64)
            .expect("total_us");
        let count = row.get("count").and_then(Value::as_u64).expect("count");
        assert!(
            self_us <= total_us,
            "{stage}: self-time cannot exceed total time"
        );
        profiled.insert(stage.to_string(), (self_us, total_us, count));
    }
    let sums = scrape_stage_sums(addr);
    for stage in ["mrt_decode", "shard_apply", "event_append"] {
        let (self_us, _, count) = *profiled
            .get(stage)
            .unwrap_or_else(|| panic!("{stage} missing from profile: {profiled:?}"));
        assert!(count > 0, "{stage} must have folded occurrences");
        let hist_sum = *sums
            .get(stage)
            .unwrap_or_else(|| panic!("{stage} missing from histograms: {sums:?}"));
        let diff = self_us.abs_diff(hist_sum);
        assert!(
            diff as f64 <= 0.10 * hist_sum as f64,
            "{stage}: profiler self-time {self_us}µs vs histogram sum {hist_sum}µs \
             diverges more than 10% (dropped spans: {})",
            profiler.spans_dropped()
        );
    }

    // The resource ledger published through the same scrape.
    let (_, body) = get(addr, "/metrics");
    assert!(
        body.contains("moas_resource_bytes{component=\"store\"}"),
        "the store probe must publish"
    );
    assert!(body.contains("moas_process_rss_bytes"));
    assert!(body.contains("moas_build_info{"));
    assert!(body.contains("moas_process_start_time_seconds"));

    server.shutdown();
    fed.shutdown().expect("feed shutdown");
}

/// The workload analytics surface on a light server: the top-k
/// sketch, per-endpoint aggregates, and the slow-query log with trace
/// ids — plus the `format`/`top` parameter validation envelopes.
#[test]
fn workload_analytics_and_profile_formats_over_the_wire() {
    let _reg = moas_obs::prof::register_thread_as("test-workload");
    let service = light_service("workload-store");
    let registry = Arc::new(Registry::new());
    let profiler = Arc::new(Profiler::new(Arc::clone(&registry)));
    let query = Arc::new(
        QueryService::with_registry(
            service.reader(),
            ServerConfig {
                start_date: Date::ymd(2024, 1, 1),
                // 1 µs: every request lands in the slow-query log.
                slow_request_micros: 1,
                ..ServerConfig::default()
            },
            Arc::clone(&registry),
        )
        .with_profiler(Arc::clone(&profiler)),
    );
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
    let addr = server.local_addr();

    // A skewed workload: /v1/stats is the hot endpoint.
    for _ in 0..6 {
        let (status, _) = get(addr, "/v1/stats");
        assert_eq!(status, 200);
    }
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);

    let (status, body) = get(addr, "/v1/workload");
    assert_eq!(status, 200);
    let doc = parse(&body);
    assert!(doc.get("recorded").and_then(Value::as_u64).unwrap() >= 8);
    assert_eq!(
        doc.get("slow_threshold_us").and_then(Value::as_u64),
        Some(1)
    );
    let top = doc.get("top").and_then(Value::as_array).expect("top");
    assert_eq!(
        top[0].get("endpoint").and_then(Value::as_str),
        Some("/v1/stats"),
        "the hot endpoint leads the sketch: {body}"
    );
    assert!(top[0].get("count").and_then(Value::as_u64).unwrap() >= 6);
    let endpoints = doc
        .get("endpoints")
        .and_then(Value::as_array)
        .expect("endpoints");
    let stats_row = endpoints
        .iter()
        .find(|e| e.get("endpoint").and_then(Value::as_str) == Some("/v1/stats"))
        .expect("per-endpoint aggregate for /v1/stats");
    assert!(
        stats_row.get("p50_us").and_then(Value::as_u64).is_some(),
        "latency quantiles are served: {body}"
    );
    assert!(
        stats_row.get("p99_bytes").and_then(Value::as_u64).is_some(),
        "response-size quantiles are served: {body}"
    );
    // Every request crossed the 1 µs threshold, so the slow log is
    // populated and each row resolves to its span tree.
    let slow = doc.get("slow").and_then(Value::as_array).expect("slow");
    assert!(!slow.is_empty(), "slow log must be populated: {body}");
    let trace = slow
        .iter()
        .rev()
        .find_map(|s| s.get("trace").and_then(Value::as_str))
        .expect("slow rows carry trace ids");
    let (status, _) = get(addr, &format!("/v1/trace/{trace}"));
    assert_eq!(status, 200, "the slow-log trace id must resolve");

    // ?top= bounds the sketch answer; junk values get the envelope.
    let (status, body) = get(addr, "/v1/workload?top=1");
    assert_eq!(status, 200);
    assert_eq!(
        parse(&body)
            .get("top")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(1)
    );
    let (status, body) = get(addr, "/v1/workload?top=banana");
    assert_eq!(status, 400);
    assert_envelope(&body, "bad_request");

    // The profile endpoint's two shapes and its format validation.
    let (status, folded) = get(addr, "/v1/profile");
    assert_eq!(status, 200);
    assert!(
        folded.lines().any(|l| l.starts_with("request")),
        "request spans must fold: {folded:?}"
    );
    let (status, body) = get(addr, "/v1/profile?format=json");
    assert_eq!(status, 200);
    let doc = parse(&body);
    assert!(doc.get("range_secs").and_then(Value::as_u64).is_some());
    assert!(doc.get("spans_dropped").and_then(Value::as_u64).is_some());
    let stages: Vec<&str> = doc
        .get("stages")
        .and_then(Value::as_array)
        .expect("stages")
        .iter()
        .filter_map(|r| r.get("stage").and_then(Value::as_str))
        .collect();
    assert!(
        stages.contains(&"request_route"),
        "request stages must be profiled: {stages:?}"
    );
    let (status, body) = get(addr, "/v1/profile?format=xml");
    assert_eq!(status, 400);
    assert_envelope(&body, "bad_request");

    server.shutdown();
}

/// Error-envelope pins for the self-monitoring routes: every failure
/// answers the uniform `{"error":{code,message,retry_after}}` shape
/// with the right status.
#[test]
fn selfmon_routes_answer_uniform_error_envelopes() {
    let _reg = moas_obs::prof::register_thread_as("test-envelopes");
    let service = light_service("envelope-store");

    // A bare server: no tsdb, no profiler attached.
    let bare = Arc::new(QueryService::new(
        service.reader(),
        ServerConfig {
            start_date: Date::ymd(2024, 1, 1),
            slow_request_micros: 0,
            ..ServerConfig::default()
        },
    ));
    let bare_server = QueryServer::bind("127.0.0.1:0", Arc::clone(&bare)).expect("bind");
    let bare_addr = bare_server.local_addr();
    for (target, code) in [
        ("/v1/series?name=anything", "not_found"),
        ("/v1/profile", "not_found"),
    ] {
        let (status, body) = get(bare_addr, target);
        assert_eq!(status, 404, "{target} without the subsystem: {body}");
        assert_envelope(&body, code);
    }
    bare_server.shutdown();

    // A fully-attached server.
    let registry = Arc::new(Registry::new());
    let tsdb = Arc::new(Tsdb::default());
    let alerts = Arc::new(AlertEngine::new(Arc::clone(&registry), Arc::clone(&tsdb)));
    let query = Arc::new(
        QueryService::with_registry(
            service.reader(),
            ServerConfig {
                start_date: Date::ymd(2024, 1, 1),
                slow_request_micros: 0,
                ..ServerConfig::default()
            },
            Arc::clone(&registry),
        )
        .with_self_monitor(Arc::clone(&tsdb), Arc::clone(&alerts)),
    );
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
    let addr = server.local_addr();

    // One request then one sample, so a known series exists.
    let (status, _) = get(addr, "/v1/stats");
    assert_eq!(status, 200);
    tsdb.sample(&registry, unix_now());
    let (status, _) = get(addr, "/v1/series?name=moas_serve_requests_total&range=600");
    assert_eq!(status, 200, "the sampled series is queryable");

    for (target, want, code) in [
        // Missing and malformed parameters are 400s.
        ("/v1/series", 400, "bad_request"),
        (
            "/v1/series?name=moas_serve_requests_total&range=banana",
            400,
            "bad_request",
        ),
        // A series the tsdb never sampled is a loud 404, not an
        // empty 200.
        ("/v1/series?name=moas_no_such_series", 404, "not_found"),
        // Trace ids: non-hex is a 400, a hex id never sampled is a
        // 404, and the empty id falls through to the route-level 404.
        ("/v1/trace/zzzz", 400, "bad_request"),
        ("/v1/trace/fffffffffffffff1", 404, "not_found"),
        ("/v1/trace/", 404, "not_found"),
    ] {
        let (status, body) = get(addr, target);
        assert_eq!(status, want, "{target}: {body}");
        assert_envelope(&body, code);
    }

    server.shutdown();
}

/// The profiler and sampler lifecycle events land in the journal and
/// surface over both wire shapes: the `/v1/events/log` snapshot and
/// the `/v1/events/stream` SSE tail.
#[test]
fn profiler_and_sampler_events_surface_in_log_and_sse_tail() {
    let _reg = moas_obs::prof::register_thread_as("test-journal-events");
    let service = light_service("events-store");
    let registry = Arc::new(Registry::new());
    let query = Arc::new(QueryService::with_registry(
        service.reader(),
        ServerConfig {
            start_date: Date::ymd(2024, 1, 1),
            sse_poll_interval: Duration::from_millis(20),
            // Keep request noise out of the journal.
            slow_request_micros: 0,
            ..ServerConfig::default()
        },
        Arc::clone(&registry),
    ));
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind");
    let addr = server.local_addr();

    // Lifecycle: construction journals the start, drop the stop.
    let profiler = Profiler::new(Arc::clone(&registry));
    drop(profiler);

    // A wedged on_tick hook stalls the sampler past 2× its interval;
    // the loop must notice its own degradation and journal it.
    let tsdb = Arc::new(Tsdb::default());
    let stalls = Arc::new(AtomicBool::new(true));
    let hook_flag = Arc::clone(&stalls);
    let sampler = Sampler::spawn(
        Arc::clone(&registry),
        Arc::clone(&tsdb),
        Duration::from_millis(10),
        move |_| {
            if hook_flag.swap(false, Ordering::AcqRel) {
                std::thread::sleep(Duration::from_millis(60));
            }
        },
    )
    .expect("spawn sampler");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !registry
        .journal()
        .events()
        .iter()
        .any(|e| e.kind == "sampler_stall")
    {
        assert!(
            std::time::Instant::now() < deadline,
            "the induced stall must be journaled; got {:?}",
            registry.journal().events()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(sampler);

    // Wire shape 1: the journal snapshot.
    let (status, body) = get(addr, "/v1/events/log");
    assert_eq!(status, 200);
    let kinds: Vec<String> = parse(&body)
        .get("events")
        .and_then(Value::as_array)
        .expect("events")
        .iter()
        .filter_map(|e| e.get("kind").and_then(Value::as_str).map(str::to_string))
        .collect();
    for kind in ["profiler_started", "profiler_stopped", "sampler_stall"] {
        assert!(
            kinds.iter().any(|k| k == kind),
            "{kind} must appear in /v1/events/log: {kinds:?}"
        );
    }

    // Wire shape 2: a fresh SSE subscription replays the ring; the
    // same three kinds must stream as typed frames.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(b"GET /v1/events/stream HTTP/1.1\r\nhost: t\r\n\r\n")
        .expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("status");
    assert!(line.starts_with("HTTP/1.1 200"), "stream opens: {line:?}");
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        if header.trim_end().is_empty() {
            break;
        }
    }
    let mut seen: Vec<String> = Vec::new();
    'frames: for _ in 0..200 {
        // One frame: fields up to a blank line.
        let mut event = String::new();
        let mut saw_field = false;
        loop {
            let mut l = String::new();
            if reader.read_line(&mut l).expect("frame line") == 0 {
                break 'frames;
            }
            let l = l.trim_end_matches('\n');
            if l.is_empty() {
                if saw_field {
                    break;
                }
                continue;
            }
            if let Some(rest) = l.strip_prefix("event: ") {
                event = rest.to_string();
                saw_field = true;
            } else if l.starts_with("id: ") || l.starts_with("data: ") {
                saw_field = true;
            }
        }
        if !event.is_empty() && !seen.contains(&event) {
            seen.push(event.clone());
        }
        let done = ["profiler_started", "profiler_stopped", "sampler_stall"]
            .iter()
            .all(|k| seen.iter().any(|s| s == k));
        if done {
            break;
        }
    }
    for kind in ["profiler_started", "profiler_stopped", "sampler_stall"] {
        assert!(
            seen.iter().any(|s| s == kind),
            "{kind} must stream over SSE; saw {seen:?}"
        );
    }
    drop(reader);
    drop(writer);

    server.shutdown();
}
