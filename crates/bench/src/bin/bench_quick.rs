//! Quick-mode benchmark runner for CI regression gating.
//!
//! Unlike the Criterion benches (tuned for precision), this binary
//! runs a fixed small workload a few times, keeps the best run, and
//! writes machine-readable JSON — `BENCH_monitor.json`,
//! `BENCH_history.json`, `BENCH_server.json`, `BENCH_feed.json`,
//! `BENCH_federation.json`, and
//! `BENCH_obs.json` — for
//! `tools/bench_gate.rs` to compare against the checked-in baseline
//! (`ci/bench_baseline.json`). Total runtime is a few seconds, cheap
//! enough for every push.
//!
//! ```sh
//! cargo run --release -p moas-bench --bin bench_quick [-- OUT_DIR]
//! ```

use moas_bench::{bench_study, synth_history_events};
use moas_bgp::message::BgpMessage;
use moas_history::{HistoryService, HistoryStore, ServiceConfig};
use moas_monitor::{MonitorConfig, MonitorEngine};
use moas_mrt::record::{MrtBody, MrtRecord};
use moas_routeviews::updates::day_transition;
use moas_routeviews::BackgroundMode;
use moas_serve::{QueryServer, QueryService, ServerConfig};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions per measurement; the best (least-noisy) run wins.
const REPS: usize = 3;

fn main() -> std::io::Result<()> {
    let out_dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&out_dir)?;

    let monitor = bench_monitor();
    write_json(&out_dir.join("BENCH_monitor.json"), "monitor", &monitor)?;
    let history = bench_history();
    write_json(&out_dir.join("BENCH_history.json"), "history", &history)?;
    let server = bench_server()?;
    write_json(&out_dir.join("BENCH_server.json"), "server", &server)?;
    let feed = bench_feed()?;
    write_json(&out_dir.join("BENCH_feed.json"), "feed", &feed)?;
    let federation = bench_federation()?;
    write_json(
        &out_dir.join("BENCH_federation.json"),
        "federation",
        &federation,
    )?;
    let obs = bench_obs();
    write_json(&out_dir.join("BENCH_obs.json"), "obs", &obs)?;
    Ok(())
}

/// Route-level updates (announced + withdrawn prefixes) in a stream.
fn update_count(records: &[MrtRecord]) -> u64 {
    records
        .iter()
        .map(|r| match &r.body {
            MrtBody::Bgp4mpMessage(m) => match &m.message {
                BgpMessage::Update(u) => (u.all_announced().len() + u.all_withdrawn().len()) as u64,
                _ => 0,
            },
            _ => 0,
        })
        .sum()
}

/// Monitor: sustained route-updates/s through the 4-shard streaming
/// engine on the synthetic incident-onset stream.
fn bench_monitor() -> Vec<(&'static str, f64)> {
    let study = bench_study(0.02);
    let mut collector = moas_routeviews::Collector::new(&study.world, &study.peers);
    let incident = study
        .world
        .window
        .snapshot_index(moas_net::Date::ymd(1998, 4, 7).day_index())
        .expect("incident day in window");
    let (_, _, stream) =
        day_transition(&mut collector, incident - 1, incident, BackgroundMode::None);
    let updates = update_count(&stream);
    // Replay the day transition enough times that one measurement is
    // tens of milliseconds — a 30% gate needs headroom over timer and
    // scheduler noise, which a single ~1 ms pass would not give.
    let passes = (200_000 / updates.max(1)).clamp(1, 1_000);

    let mut best_updates_per_sec = 0f64;
    let mut events = 0u64;
    for _ in 0..REPS {
        let start = Instant::now();
        let mut engine = MonitorEngine::new(MonitorConfig::with_shards(4));
        for _ in 0..passes {
            engine.ingest_all(&stream);
        }
        let report = engine.finish();
        let secs = start.elapsed().as_secs_f64();
        events = report.metrics.events_emitted;
        best_updates_per_sec = best_updates_per_sec.max((updates * passes) as f64 / secs);
        black_box(report.events.len());
    }
    eprintln!(
        "monitor: {updates} updates x{passes}, {events} lifecycle events, best {best_updates_per_sec:.0} updates/s"
    );
    vec![("ingest_updates_per_sec", best_updates_per_sec)]
}

/// History: segmented-log append events/s, on-disk bytes/event, and
/// table-seeded compaction events/s.
fn bench_history() -> Vec<(&'static str, f64)> {
    const EVENTS: usize = 200_000;
    let events = synth_history_events(EVENTS, 2_048);
    let dir = std::env::temp_dir().join(format!("moas-bench-quick-{}", std::process::id()));

    let mut best_append = 0f64;
    let mut bytes_per_event = f64::MAX;
    for _ in 0..REPS {
        std::fs::remove_dir_all(&dir).ok();
        let start = Instant::now();
        let mut store = HistoryStore::open(&dir).expect("open bench store");
        for (day, chunk) in events.chunks(EVENTS / 30).enumerate() {
            store.append(chunk).expect("append");
            store.mark_day(day).expect("mark day");
        }
        store.seal().expect("seal");
        let secs = start.elapsed().as_secs_f64();
        best_append = best_append.max(EVENTS as f64 / secs);
        bytes_per_event = bytes_per_event.min(store.stats().retained_bytes as f64 / EVENTS as f64);
    }

    // Compaction over the last store written above.
    let store = HistoryStore::open(&dir).expect("reopen bench store");
    let mut best_compact = 0f64;
    for _ in 0..REPS {
        let start = Instant::now();
        let (conflicts, scan) = store.compact().expect("compact");
        assert!(scan.corrupt.is_empty());
        let secs = start.elapsed().as_secs_f64();
        best_compact = best_compact.max(EVENTS as f64 / secs);
        black_box(conflicts.records().len());
    }
    std::fs::remove_dir_all(&dir).ok();

    eprintln!(
        "history: best {best_append:.0} append events/s, {bytes_per_event:.1} bytes/event, best {best_compact:.0} compact events/s"
    );
    vec![
        ("append_events_per_sec", best_append),
        ("bytes_per_event", bytes_per_event),
        ("compact_events_per_sec", best_compact),
    ]
}

/// Server: loopback queries/s through the full stack (TCP + HTTP
/// parse + router), cached vs uncached. The uncached mode disables
/// the response cache so every request re-scores §VI validity from
/// the pinned snapshot; the cached mode answers hot queries with one
/// `Arc` clone. The ratio between the two is the cache's whole value
/// proposition — the baseline keeps both ends honest.
fn bench_server() -> std::io::Result<Vec<(&'static str, f64)>> {
    const EVENTS: usize = 240_000;
    const DAYS: usize = 30;
    let events = synth_history_events(EVENTS, 8_192);
    let dir = std::env::temp_dir().join(format!("moas-bench-server-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let service = HistoryService::open(
        &dir,
        ServiceConfig {
            daemon: false,
            ..ServiceConfig::default()
        },
    )?;
    for (day, chunk) in events.chunks(EVENTS / DAYS).enumerate() {
        service.append(chunk)?;
        service.mark_day(day)?;
    }

    let mut best_cached = 0f64;
    let mut best_uncached = 0f64;
    for _ in 0..REPS {
        best_cached = best_cached.max(measure_server(&service, 256)?);
        best_uncached = best_uncached.max(measure_server(&service, 0)?);
    }

    // Replicated read path: two read-only replicas over the writer's
    // (now quiesced) store — the serve-for-millions topology. Hot
    // cached queries and all-304 conditional replays split across the
    // replicas; cursor crawls page the writer.
    let replica_a = HistoryService::open_read_only(
        &dir,
        ServiceConfig {
            daemon: false,
            ..ServiceConfig::default()
        },
    )?;
    let replica_b = HistoryService::open_read_only(
        &dir,
        ServiceConfig {
            daemon: false,
            ..ServiceConfig::default()
        },
    )?;
    let mut best_replica = 0f64;
    let mut best_replica_p99_us = f64::MAX;
    let mut best_not_modified = 0f64;
    let mut best_paged = 0f64;
    for _ in 0..REPS {
        let (qps, p99) = measure_mix(&[&replica_a, &replica_b], Mix::Hot)?;
        best_replica = best_replica.max(qps);
        if let Some(p99) = p99 {
            best_replica_p99_us = best_replica_p99_us.min(p99 as f64);
        }
        best_not_modified =
            best_not_modified.max(measure_mix(&[&replica_a, &replica_b], Mix::NotModified)?.0);
        best_paged = best_paged.max(measure_mix(&[&service], Mix::Paged)?.0);
    }
    replica_a.close()?;
    replica_b.close()?;
    service.close()?;
    std::fs::remove_dir_all(&dir).ok();

    eprintln!(
        "server: best {best_cached:.0} cached queries/s, {best_uncached:.0} uncached (recompute) queries/s, {:.1}x speedup",
        best_cached / best_uncached.max(1.0)
    );
    eprintln!(
        "server: best {best_replica:.0} replica queries/s (p99 {best_replica_p99_us:.0} us), {best_not_modified:.0} 304s/s, {best_paged:.0} paged queries/s"
    );
    Ok(vec![
        ("cached_queries_per_sec", best_cached),
        ("uncached_queries_per_sec", best_uncached),
        ("replica_queries_per_sec", best_replica),
        ("replica_p99_us", best_replica_p99_us),
        ("not_modified_per_sec", best_not_modified),
        ("paginated_queries_per_sec", best_paged),
    ])
}

/// The request mix one replicated-topology measurement drives.
#[derive(Clone, Copy)]
enum Mix {
    /// Hot cached GETs of the validity summary.
    Hot,
    /// Conditional GETs replaying a captured `ETag`; every answer is
    /// a bodyless 304.
    NotModified,
    /// Cursor crawls: page through `/v1/validity` following
    /// `next_cursor`, restarting each time a crawl completes.
    Paged,
}

/// One time-boxed measurement over one server per service (clients
/// round-robin across them). Returns requests/s and the worst
/// server-side p99 in microseconds.
fn measure_mix(services: &[&HistoryService], mix: Mix) -> std::io::Result<(f64, Option<u64>)> {
    const CLIENTS: usize = 4;
    const WINDOW: Duration = Duration::from_millis(350);
    const TARGET: &str = "/v1/validity?limit=0";
    const PAGE_TARGET: &str = "/v1/validity?limit=500";

    let queries: Vec<Arc<QueryService>> = services
        .iter()
        .map(|service| {
            Arc::new(QueryService::new(
                service.reader(),
                ServerConfig {
                    workers: CLIENTS,
                    cache_capacity: 256,
                    keep_alive_requests: u32::MAX,
                    ..ServerConfig::default()
                },
            ))
        })
        .collect();
    let servers: Vec<QueryServer> = queries
        .iter()
        .map(|q| QueryServer::bind("127.0.0.1:0", Arc::clone(q)))
        .collect::<std::io::Result<_>>()?;
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    for &addr in &addrs {
        loopback_get(addr, TARGET)?;
    }

    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let addr = addrs[i % addrs.len()];
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut writer = stream;
                    let mut n = 0u64;
                    match mix {
                        Mix::Hot => {
                            while start.elapsed() < WINDOW {
                                request(&mut reader, &mut writer, TARGET).expect("request");
                                n += 1;
                            }
                        }
                        Mix::NotModified => {
                            let (status, etag, _) = request_raw(
                                &mut reader,
                                &mut writer,
                                &format!("GET {TARGET} HTTP/1.1\r\nhost: bench\r\n\r\n"),
                            )
                            .expect("capture etag");
                            assert_eq!(status, 200);
                            let etag = etag.expect("cacheable 200 must carry an etag");
                            let head = format!(
                                "GET {TARGET} HTTP/1.1\r\nhost: bench\r\nif-none-match: {etag}\r\n\r\n"
                            );
                            while start.elapsed() < WINDOW {
                                let (status, _, _) = request_raw(&mut reader, &mut writer, &head)
                                    .expect("conditional request");
                                assert_eq!(status, 304, "validator must match");
                                n += 1;
                            }
                        }
                        Mix::Paged => {
                            let mut cursor: Option<String> = None;
                            while start.elapsed() < WINDOW {
                                let target = match &cursor {
                                    None => PAGE_TARGET.to_string(),
                                    Some(c) => format!("{PAGE_TARGET}&cursor={c}"),
                                };
                                let (status, _, body) = request_raw(
                                    &mut reader,
                                    &mut writer,
                                    &format!("GET {target} HTTP/1.1\r\nhost: bench\r\n\r\n"),
                                )
                                .expect("page request");
                                assert_eq!(status, 200, "page must render");
                                cursor = next_cursor(&body);
                                n += 1;
                            }
                        }
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let secs = start.elapsed().as_secs_f64();
    for server in servers {
        server.shutdown();
    }
    let p99 = queries
        .iter()
        .filter_map(|q| q.metrics().stats(q.cache_stats()).p99_micros)
        .max();
    Ok((total as f64 / secs, p99))
}

/// Pulls `"next_cursor":"..."` out of a compact JSON body without a
/// full parse (`None` on `null`, i.e. the crawl's last page).
fn next_cursor(body: &[u8]) -> Option<String> {
    let body = std::str::from_utf8(body).ok()?;
    let rest = body.split_once("\"next_cursor\":\"")?.1;
    Some(rest.split_once('"')?.0.to_string())
}

/// Feed: catch-up throughput (files/s over a pre-rendered simulated
/// collector window, through a one-collector `Federation`) and
/// end-to-end update lag (a freshly landed update file → the previous
/// day's epoch published to readers).
fn bench_feed() -> std::io::Result<Vec<(&'static str, f64)>> {
    use moas_feed::{Federation, FederationConfig};
    use moas_monitor::MonitorConfig;
    use moas_routeviews::SimFeed;

    const CATCHUP_DAYS: usize = 20;
    const LAG_DAYS: usize = 5;

    let study = bench_study(0.02);
    let start = study.world.window.all_days()[0].date();
    let archive = std::env::temp_dir().join(format!("moas-bench-feed-{}", std::process::id()));
    let store = std::env::temp_dir().join(format!("moas-bench-feedstore-{}", std::process::id()));
    std::fs::remove_dir_all(&archive).ok();

    let mut collector = moas_routeviews::Collector::new(&study.world, &study.peers);
    let mut sim = SimFeed::new(
        &mut collector,
        &archive,
        0,
        CATCHUP_DAYS + LAG_DAYS,
        moas_routeviews::BackgroundMode::Sample(10),
    )?;
    let mut total_records = 0u64;
    for _ in 0..CATCHUP_DAYS {
        total_records += sim.append_day()?.expect("day in window").records as u64;
    }
    let feed_config = || {
        FederationConfig {
            monitor: MonitorConfig::with_shards(4),
            ..FederationConfig::new(start)
        }
        .collector("route-views", &archive)
    };

    // Catch-up: best files/s over fresh feed+store runs.
    let mut best_files_per_sec = 0f64;
    for _ in 0..REPS {
        std::fs::remove_dir_all(&store).ok();
        let service = Arc::new(HistoryService::open(
            &store,
            ServiceConfig {
                start_date: start,
                daemon: false,
                ..ServiceConfig::default()
            },
        )?);
        let t0 = Instant::now();
        let mut feed = Federation::open(feed_config(), Arc::clone(&service))?;
        while !feed.poll_once()?.caught_up {}
        let secs = t0.elapsed().as_secs_f64();
        best_files_per_sec = best_files_per_sec.max(CATCHUP_DAYS as f64 / secs);
        feed.shutdown()?;
        drop(service);
    }

    // Lag: land one more day, poll until its predecessor's day mark
    // publishes a new epoch. Best (least-noisy) of LAG_DAYS landings.
    std::fs::remove_dir_all(&store).ok();
    let service = Arc::new(HistoryService::open(
        &store,
        ServiceConfig {
            start_date: start,
            daemon: false,
            ..ServiceConfig::default()
        },
    )?);
    let mut feed = Federation::open(feed_config(), Arc::clone(&service))?;
    while !feed.poll_once()?.caught_up {}
    let reader = service.reader();
    let mut best_lag_ms = f64::MAX;
    for _ in 0..LAG_DAYS {
        let epoch = reader.epoch();
        let t0 = Instant::now();
        sim.append_day()?.expect("lag day in window");
        while reader.epoch() == epoch {
            feed.poll_once()?;
        }
        best_lag_ms = best_lag_ms.min(t0.elapsed().as_secs_f64() * 1_000.0);
    }
    feed.shutdown()?;
    drop(service);
    std::fs::remove_dir_all(&archive).ok();
    std::fs::remove_dir_all(&store).ok();

    eprintln!(
        "feed: {total_records} records over {CATCHUP_DAYS} files, best {best_files_per_sec:.1} files/s catch-up, best {best_lag_ms:.2} ms update lag"
    );
    Ok(vec![
        ("catchup_files_per_sec", best_files_per_sec),
        ("update_lag_ms", best_lag_ms),
    ])
}

/// Federation: merged catch-up over four identical archives vs the
/// same content through one collector — merged files/s, the marginal
/// dedup cost per duplicate update, and the §VI corroborated-validity
/// recompute rate over the resulting store.
fn bench_federation() -> std::io::Result<Vec<(&'static str, f64)>> {
    use moas_feed::{Federation, FederationConfig};
    use moas_history::ValidityConfig;
    use moas_monitor::MonitorConfig;
    use moas_routeviews::{SimCollectorSpec, SimFederation};

    const DAYS: usize = 12;
    // One validity report builds in well under a millisecond; batch
    // enough passes per measurement to rise above timer noise.
    const VALIDITY_PASSES: usize = 50;

    let study = bench_study(0.02);
    let start = study.world.window.all_days()[0].date();
    let base = std::env::temp_dir().join(format!("moas-bench-fed-{}", std::process::id()));
    let store = std::env::temp_dir().join(format!("moas-bench-fedstore-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let mut collector = moas_routeviews::Collector::new(&study.world, &study.peers);
    let mut sim = SimFederation::new(
        &mut collector,
        &base,
        0,
        DAYS,
        moas_routeviews::BackgroundMode::Sample(10),
        vec![
            SimCollectorSpec::new("a"),
            SimCollectorSpec::new("b").skewed(30),
            SimCollectorSpec::new("c").skewed(-45),
            SimCollectorSpec::new("d").skewed(60),
        ],
    )?;
    let mut records = 0u64;
    while let Some(day) = sim.append_day()? {
        records += day.collectors[0].as_ref().expect("no skip days").1 as u64;
    }
    let dirs = sim.dirs();
    let names = ["a", "b", "c", "d"];

    // One full catch-up over the first `width` collectors into a
    // fresh store (cursors live in the store, so each run replays the
    // whole archive). Returns elapsed seconds and the service.
    let run = |width: usize| -> std::io::Result<(f64, Arc<HistoryService>)> {
        std::fs::remove_dir_all(&store).ok();
        let service = Arc::new(HistoryService::open(
            &store,
            ServiceConfig {
                start_date: start,
                daemon: false,
                ..ServiceConfig::default()
            },
        )?);
        let mut config = FederationConfig {
            monitor: MonitorConfig::with_shards(4),
            ..FederationConfig::new(start)
        };
        for (name, dir) in names.iter().zip(&dirs).take(width) {
            config = config.collector(*name, dir);
        }
        let t0 = Instant::now();
        let mut fed = Federation::open(config, Arc::clone(&service))?;
        while !fed.poll_once()?.caught_up {}
        let secs = t0.elapsed().as_secs_f64();
        fed.shutdown()?;
        Ok((secs, service))
    };

    let mut best_single = f64::MAX;
    for _ in 0..REPS {
        best_single = best_single.min(run(1)?.0);
    }
    let mut best_merged = f64::MAX;
    let mut last_service = None;
    for _ in 0..REPS {
        let (secs, service) = run(4)?;
        best_merged = best_merged.min(secs);
        last_service = Some(service);
    }
    let service = last_service.expect("REPS >= 1");
    let files_per_sec = (4 * DAYS) as f64 / best_merged;
    // The merged run consumes four copies of every update but
    // releases one: its extra time over the single fold, spread over
    // the 3x`records` duplicates, is the dedup tax per duplicate.
    let dedup_ns = ((best_merged - best_single).max(0.0) / (3 * records.max(1)) as f64) * 1e9;

    let snap = service.reader().snapshot();
    let mut best_validity_per_sec = 0f64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..VALIDITY_PASSES {
            black_box(snap.validity(ValidityConfig::default()).tally());
        }
        let secs = t0.elapsed().as_secs_f64();
        best_validity_per_sec = best_validity_per_sec.max(VALIDITY_PASSES as f64 / secs);
    }
    drop(snap);
    drop(service);
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&store).ok();

    eprintln!(
        "federation: {records} records x4 collectors over {DAYS} days, best {files_per_sec:.1} merged files/s, {dedup_ns:.1} ns/update dedup overhead, {best_validity_per_sec:.0} validity recomputes/s"
    );
    Ok(vec![
        ("merged_catchup_files_per_sec", files_per_sec),
        ("dedup_overhead_ns_per_update", dedup_ns),
        ("validity_recompute_per_sec", best_validity_per_sec),
    ])
}

/// Observability: cost of the hot record path (counter add, histogram
/// observe — both on the ingest fast path, so they must stay in the
/// nanoseconds) and of one full `/metrics` render over a registry
/// populated like a live pipeline's.
fn bench_obs() -> Vec<(&'static str, f64)> {
    use moas_obs::Registry;

    const OPS: u64 = 4_000_000;
    const RENDERS: u32 = 200;

    let registry = Arc::new(Registry::new());
    let counter = registry.counter("bench_ops_total", "Bench counter.");
    let hist = registry.histogram("bench_lat_us", "Bench histogram.");

    let mut best_counter_ns = f64::MAX;
    let mut best_observe_ns = f64::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..OPS {
            counter.add(1);
        }
        best_counter_ns = best_counter_ns.min(start.elapsed().as_nanos() as f64 / OPS as f64);

        let start = Instant::now();
        for i in 0..OPS {
            hist.observe(i % 100_000);
        }
        best_observe_ns = best_observe_ns.min(start.elapsed().as_nanos() as f64 / OPS as f64);
    }
    black_box(counter.get());

    // A render-side registry shaped like a live deployment: every
    // pipeline stage, plus a spread of counters and gauges per
    // subsystem, all with recorded data.
    let full = Registry::new();
    for stage in [
        "mrt_decode",
        "shard_apply",
        "event_append",
        "segment_seal",
        "compaction",
        "epoch_publish",
        "feed_poll",
        "feed_tail",
        "request_parse",
        "request_route",
        "request_serialize",
    ] {
        let h = full.stage_histogram(stage);
        for i in 0..64 {
            h.observe(1 << (i % 20));
        }
    }
    for i in 0..40 {
        full.counter_with(
            "bench_requests_total",
            &[("path", &format!("/v{i}"))],
            "Req.",
        )
        .add(i);
        full.gauge_with("bench_depth", &[("shard", &format!("{i}"))], "Depth.")
            .set(i);
    }
    let mut best_render_ns = f64::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..RENDERS {
            black_box(full.render_prometheus().len());
        }
        best_render_ns = best_render_ns.min(start.elapsed().as_nanos() as f64 / RENDERS as f64);
    }

    // Tracing: the unsampled path (sampling off — one relaxed load
    // per would-be span; this is what every hot-path request pays when
    // head sampling skips it) vs. the sampled path (full root span:
    // id allocation, two clock reads, ring write).
    const SPAN_OPS: u64 = 1_000_000;
    let tracer = registry.tracer();
    let mut best_unsampled_ns = f64::MAX;
    let mut best_sampled_ns = f64::MAX;
    for _ in 0..REPS {
        tracer.set_sampling(0);
        let start = Instant::now();
        for _ in 0..SPAN_OPS {
            black_box(tracer.span("bench_span")).finish();
        }
        best_unsampled_ns =
            best_unsampled_ns.min(start.elapsed().as_nanos() as f64 / SPAN_OPS as f64);

        tracer.set_sampling(1);
        let start = Instant::now();
        for _ in 0..SPAN_OPS {
            black_box(tracer.span("bench_span")).finish();
        }
        best_sampled_ns = best_sampled_ns.min(start.elapsed().as_nanos() as f64 / SPAN_OPS as f64);
    }
    tracer.set_sampling(1);

    // Tsdb: one full sample tick over the live-shaped registry above
    // (every scalar + windowed histogram quantiles) — the cost the
    // background sampler pays every 10 s.
    const TICKS: u64 = 2_000;
    let tsdb = moas_obs::Tsdb::default();
    let mut best_tick_us = f64::MAX;
    for rep in 0..REPS as u64 {
        let start = Instant::now();
        for i in 0..TICKS {
            tsdb.sample(&full, 1_000_000 + (rep * TICKS + i) * 10);
        }
        best_tick_us = best_tick_us.min(start.elapsed().as_micros() as f64 / TICKS as f64);
    }
    black_box(tsdb.series_count());

    // Per-thread CPU attribution: one full /proc/self/task sweep —
    // the price the sampler tick (and every /metrics scrape) pays.
    const CPU_SAMPLES: u32 = 200;
    let cpu = moas_obs::CpuLedger::new(Arc::clone(&registry));
    let mut best_cpu_sample_us = f64::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..CPU_SAMPLES {
            black_box(cpu.sample());
        }
        best_cpu_sample_us =
            best_cpu_sample_us.min(start.elapsed().as_micros() as f64 / CPU_SAMPLES as f64);
    }

    // Folded-stack rendering over a profiler holding a realistic
    // window: ~500 ingest-shaped traces folded into the ring.
    const FOLD_RENDERS: u32 = 200;
    let prof_registry = Arc::new(Registry::new());
    let profiler = moas_obs::Profiler::new(Arc::clone(&prof_registry));
    let prof_tracer = prof_registry.tracer();
    for _ in 0..500 {
        let root = prof_tracer.span("feed_poll");
        let ctx = root.context();
        prof_tracer.record_child(ctx, "mrt_decode", Duration::from_micros(700));
        prof_tracer.record_child(ctx, "shard_apply", Duration::from_micros(200));
        prof_tracer.record_child(ctx, "event_append", Duration::from_micros(90));
        root.finish();
        profiler.collect();
    }
    let fold_now = moas_obs::tsdb::unix_now();
    let mut best_folded_us = f64::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..FOLD_RENDERS {
            black_box(profiler.folded(3_600, fold_now).len());
        }
        best_folded_us =
            best_folded_us.min(start.elapsed().as_micros() as f64 / FOLD_RENDERS as f64);
    }

    // Workload recording: the per-request cost of the top-k sketch,
    // the lazy per-endpoint histograms, and the slow-log check, over
    // a realistic endpoint/key spread.
    const WORKLOAD_OPS: u64 = 400_000;
    let workload = moas_obs::Workload::new(Arc::new(Registry::new()), 250_000);
    let endpoints = ["/v1/stats", "/v1/conflicts", "/v1/prefix/{prefix}"];
    let mut best_workload_ns = f64::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        for i in 0..WORKLOAD_OPS {
            workload.record(
                endpoints[(i % 3) as usize],
                black_box("10.0.0.0/8"),
                "/v1/x?y=1",
                i % 10_000,
                512,
                200,
                i,
            );
        }
        best_workload_ns =
            best_workload_ns.min(start.elapsed().as_nanos() as f64 / WORKLOAD_OPS as f64);
    }
    black_box(workload.report(10).recorded);

    eprintln!(
        "obs: best {best_counter_ns:.2} ns/counter-add, {best_observe_ns:.2} ns/observe, {best_render_ns:.0} ns/render, {best_unsampled_ns:.2}/{best_sampled_ns:.0} ns/span (unsampled/sampled), {best_tick_us:.1} us/tsdb-tick, {best_cpu_sample_us:.1} us/cpu-sample, {best_folded_us:.1} us/folded-render, {best_workload_ns:.0} ns/workload-record"
    );
    vec![
        ("counter_add_ns", best_counter_ns),
        ("histogram_observe_ns", best_observe_ns),
        ("render_ns", best_render_ns),
        ("span_unsampled_ns", best_unsampled_ns),
        ("span_sampled_ns", best_sampled_ns),
        ("tsdb_tick_us", best_tick_us),
        ("cpu_sample_us", best_cpu_sample_us),
        ("folded_render_us", best_folded_us),
        ("workload_record_ns", best_workload_ns),
    ]
}

/// One time-boxed measurement: `CLIENTS` keep-alive loopback clients
/// hammering `/v1/validity?limit=0` for a fixed window.
fn measure_server(service: &HistoryService, cache_capacity: usize) -> std::io::Result<f64> {
    const CLIENTS: usize = 4;
    const WINDOW: Duration = Duration::from_millis(350);
    const TARGET: &str = "/v1/validity?limit=0";

    let query = Arc::new(QueryService::new(
        service.reader(),
        ServerConfig {
            workers: CLIENTS,
            cache_capacity,
            keep_alive_requests: u32::MAX,
            ..ServerConfig::default()
        },
    ));
    let server = QueryServer::bind("127.0.0.1:0", query)?;
    let addr = server.local_addr();
    // Warm the epoch replay (memoized per epoch) so both modes measure
    // query serving, not the first fold.
    loopback_get(addr, TARGET)?;

    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut writer = stream;
                    let mut n = 0u64;
                    while start.elapsed() < WINDOW {
                        request(&mut reader, &mut writer, TARGET).expect("request");
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let secs = start.elapsed().as_secs_f64();
    server.shutdown();
    Ok(total as f64 / secs)
}

/// One GET over a fresh connection (used to warm the server).
fn loopback_get(addr: SocketAddr, target: &str) -> std::io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    request(&mut reader, &mut writer, target)
}

/// Sends one keep-alive GET and drains the response, asserting 200.
fn request<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    target: &str,
) -> std::io::Result<()> {
    let (status, _, body) = request_raw(
        reader,
        writer,
        &format!("GET {target} HTTP/1.1\r\nhost: bench\r\n\r\n"),
    )?;
    assert_eq!(status, 200, "unexpected response status");
    black_box(body.len());
    Ok(())
}

/// Sends one raw keep-alive request and drains the response,
/// returning (status, etag header, body).
fn request_raw<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    head: &str,
) -> std::io::Result<(u16, Option<String>, Vec<u8>)> {
    writer.write_all(head.as_bytes())?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut content_length = 0usize;
    let mut etag = None;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            } else if name.eq_ignore_ascii_case("etag") {
                etag = Some(value.trim().to_string());
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, etag, body))
}

fn write_json(path: &Path, bench: &str, metrics: &[(&str, f64)]) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{bench}\",\n"));
    out.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {value:.3}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
