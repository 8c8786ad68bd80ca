//! Acceptance for replicated read-only serving: N `moas-serve`
//! replicas over one manifest-rooted store, written by a single
//! one-collector `Federation`.
//!
//! * **Wire equivalence under live ingest:** while the feed
//!   ingests and epochs advance, two `HistoryService::open_read_only`
//!   replicas answer every `/v1` data route byte-identically to the
//!   writer's own server — bodies and `ETag`s — at each refreshed
//!   epoch.
//! * **Read-only means read-only:** the writer is quiesced, the store
//!   directory is snapshotted (file name → size), and a full replica
//!   lifecycle (open, refresh, serve, close, reopen) leaves the
//!   snapshot untouched; writer-only methods answer
//!   `PermissionDenied`.
//! * **Staleness surfaces:** a replica left behind by writer epoch
//!   swaps trips its `/readyz` (503 `not_ready`) under a zero lag
//!   budget, recovers after `refresh_now`, and `/v1/stats` reports
//!   the replica role and lag throughout.
//! * **Kill and reopen converges:** a closed replica reopened over
//!   the same store republishes the writer's current epoch without a
//!   single write.

use moas_feed::{Federation, FederationConfig};
use moas_history::{HistoryService, RetentionPolicy, ServiceConfig, ServiceRole};
use moas_lab::study::{Study, StudyConfig};
use moas_monitor::{MonitorConfig, MonitorEvent, SeqEvent};
use moas_net::Date;
use moas_routeviews::{BackgroundMode, Collector, SimFeed};
use moas_serve::{QueryServer, QueryService, ServerConfig};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const DAYS: usize = 8;
const SHARDS: usize = 2;
const BACKGROUND: BackgroundMode = BackgroundMode::Sample(15);

fn fresh(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("moas-server-replica-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
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

/// One-shot GET returning status, headers, and body.
fn get_full(addr: SocketAddr, target: &str) -> (u16, Vec<(String, String)>, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    writer
        .write_all(
            format!("GET {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read status line");
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("read header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().expect("content-length");
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    (status, headers, String::from_utf8(body).expect("utf8 body"))
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("unparseable JSON ({e}): {body}"))
}

fn u(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 field {key:?} in {v:?}"))
}

/// Every address must answer `target` with the same 200 bytes and the
/// same `ETag`. Returns the shared body.
fn assert_identical(addrs: &[SocketAddr], target: &str) -> String {
    let (status, headers, body) = get_full(addrs[0], target);
    assert_eq!(status, 200, "{target} failed on writer: {body}");
    let etag = header(&headers, "etag")
        .unwrap_or_else(|| panic!("{target}: cacheable 200 must carry an etag"))
        .to_string();
    for &addr in &addrs[1..] {
        let (status, headers, replica_body) = get_full(addr, target);
        assert_eq!(status, 200, "{target} failed on replica: {replica_body}");
        assert_eq!(
            replica_body, body,
            "{target}: replica bytes diverged from the writer"
        );
        assert_eq!(
            header(&headers, "etag"),
            Some(etag.as_str()),
            "{target}: replica etag diverged from the writer"
        );
    }
    body
}

/// The store directory as seen by a nosy auditor: file name → size.
fn dir_snapshot(dir: &Path) -> BTreeMap<String, u64> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let len = entry.metadata().expect("metadata").len();
        files.insert(name, len);
    }
    files
}

fn bind_replica(
    service: &HistoryService,
    start: Date,
) -> (Arc<QueryService>, QueryServer, SocketAddr) {
    let query = Arc::new(
        QueryService::new(
            service.reader(),
            ServerConfig {
                start_date: start,
                // Any lag at all must trip /readyz in this test.
                ready_max_replica_lag_epochs: 0,
                ..ServerConfig::default()
            },
        )
        .with_role(service.role_handle()),
    );
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query)).expect("bind replica");
    let addr = server.local_addr();
    (query, server, addr)
}

#[test]
fn replicas_serve_byte_identical_under_live_ingest() {
    let study = Study::build(StudyConfig::test(0.004));
    let dates: Vec<Date> = study.world.window.all_days()[..DAYS]
        .iter()
        .map(|d| d.date())
        .collect();

    let archive = fresh("archive");
    let mut collector = Collector::new(&study.world, &study.peers);
    let mut feed =
        SimFeed::new(&mut collector, &archive, 0, DAYS, BACKGROUND).expect("open sim feed");

    // One writer ingesting via the feed; swaps happen
    // synchronously on this thread (daemon: false), so after each
    // poll the manifest on disk IS the writer's published epoch.
    let store = fresh("store");
    let service = Arc::new(HistoryService::open(&store, service_config(dates[0])).unwrap());
    assert_eq!(service.role(), ServiceRole::Writer);
    let mut fed = Federation::open(
        FederationConfig {
            monitor: MonitorConfig::with_shards(SHARDS),
            checkpoint_bytes: 1 << 16,
            ..FederationConfig::new(dates[0])
        }
        .collector("route-views", &archive),
        Arc::clone(&service),
    )
    .expect("open feed");

    let writer_query = Arc::new(
        QueryService::new(
            service.reader(),
            ServerConfig {
                start_date: dates[0],
                ..ServerConfig::default()
            },
        )
        .with_role(service.role_handle()),
    );
    let writer_server =
        QueryServer::bind("127.0.0.1:0", Arc::clone(&writer_query)).expect("bind writer");
    let writer_addr = writer_server.local_addr();

    // Two read-only replicas over the same store, refreshed by hand
    // (daemon: false) so every comparison is at a known epoch.
    let replica_a =
        HistoryService::open_read_only(&store, service_config(dates[0])).expect("open replica a");
    let replica_b =
        HistoryService::open_read_only(&store, service_config(dates[0])).expect("open replica b");
    assert_eq!(replica_a.role(), ServiceRole::Replica);
    let (_query_a, server_a, addr_a) = bind_replica(&replica_a, dates[0]);
    let (_query_b, server_b, addr_b) = bind_replica(&replica_b, dates[0]);
    let addrs = [writer_addr, addr_a, addr_b];

    // Phase 1: live ingest, one collector day at a time. After the
    // feed drains each arrival, every epoch the writer swapped is
    // refreshed into both replicas and the wire answers must match.
    let reader = service.reader();
    let mut compared_epochs = 0u64;
    let mut last_epoch = reader.epoch();
    while let Some(_day) = feed.append_day().expect("append sim day") {
        for _ in 0..10_000 {
            if fed.poll_once().expect("poll").caught_up {
                break;
            }
        }
        let epoch = reader.epoch();
        if epoch != last_epoch {
            last_epoch = epoch;
            replica_a.refresh_now().expect("refresh a");
            replica_b.refresh_now().expect("refresh b");
            assert_identical(&addrs, "/v1/validity?limit=5");
            assert_identical(&addrs, "/v1/timeline?days=3");
            compared_epochs += 1;
        }
    }
    for _ in 0..10_000 {
        if fed.poll_once().expect("poll").caught_up {
            break;
        }
    }
    fed.finalize().expect("finalize");
    assert!(
        compared_epochs >= 3,
        "ingest must swap (and replicas track) several epochs, saw {compared_epochs}"
    );

    // Phase 2: settled. Full battery byte-identical across all three
    // servers, including a paginated page.
    replica_a.refresh_now().expect("refresh a");
    replica_b.refresh_now().expect("refresh b");
    let snap = service.reader().snapshot();
    let some_prefix = *snap
        .conflicts()
        .records()
        .keys()
        .next()
        .expect("window must contain conflicts");
    let battery = [
        "/v1/validity?limit=10000".to_string(),
        "/v1/validity?threshold_days=3&affinity_min=2&min_duration=60".to_string(),
        format!("/v1/conflicts?date={}", dates[2]),
        format!("/v1/conflicts?date={}&limit=3", dates[2]),
        format!("/v1/prefix/{some_prefix}"),
        format!("/v1/timeline?days={DAYS}"),
    ];
    for target in &battery {
        assert_identical(&addrs, target);
    }

    // A cursor minted by the writer pages identically on a replica.
    let page = parse(&assert_identical(
        &addrs,
        &format!("/v1/conflicts?date={}&limit=3", dates[2]),
    ));
    if let Some(cursor) = page.get("next_cursor").and_then(Value::as_str) {
        assert_identical(
            &addrs,
            &format!("/v1/conflicts?date={}&limit=3&cursor={cursor}", dates[2]),
        );
    }

    // /v1/stats reports the role split: same store-level numbers,
    // writer vs replica role block.
    let writer_stats = parse(&get_full(writer_addr, "/v1/stats").2);
    let replica_stats = parse(&get_full(addr_a, "/v1/stats").2);
    for key in [
        "epoch",
        "horizon_day",
        "last_event_at",
        "events_replayed",
        "records",
        "open_conflicts",
        "truncated_prefixes",
        "affinity_pairs",
        "tail_events",
    ] {
        assert_eq!(
            u(&writer_stats, key),
            u(&replica_stats, key),
            "stats field {key:?} diverged between writer and replica"
        );
    }
    let writer_store = writer_stats.get("store").expect("writer store counters");
    let replica_store = replica_stats.get("store").expect("replica store counters");
    for key in [
        "segments_written",
        "segments_expired",
        "tables_written",
        "retained_bytes",
        "lifetime_bytes",
        "bytes_expired",
        "events_appended",
    ] {
        assert_eq!(
            u(writer_store, key),
            u(replica_store, key),
            "store counter {key:?} diverged between writer and replica"
        );
    }
    let writer_role = writer_stats.get("role").expect("writer role block");
    assert_eq!(
        writer_role.get("mode").and_then(Value::as_str),
        Some("writer")
    );
    let replica_role = replica_stats.get("role").expect("replica role block");
    assert_eq!(
        replica_role.get("mode").and_then(Value::as_str),
        Some("replica")
    );
    assert_eq!(u(replica_role, "epoch_lag"), 0);
    assert_eq!(
        u(replica_role, "published_epoch"),
        u(&writer_stats, "epoch")
    );

    // Phase 3: staleness. The writer swaps more epochs; the replicas,
    // not yet refreshed, keep serving the old epoch and trip their
    // zero-budget /readyz until refreshed.
    let (status, _, _) = get_full(addr_a, "/readyz");
    assert_eq!(status, 200, "refreshed replica must be ready");
    let stale_epoch = replica_a.reader().epoch();
    let stray = SeqEvent {
        shard: 0,
        seq: u64::MAX,
        event: MonitorEvent::ConflictClosed {
            prefix: "203.0.113.0/24".parse().expect("prefix"),
            opened_at: 0,
            at: 1,
        },
    };
    service.append(&[stray]).expect("append stray event");
    service.mark_day(DAYS).expect("mark day");
    assert!(
        service.reader().epoch() > stale_epoch,
        "day mark must advance the writer epoch"
    );
    assert_eq!(
        replica_a.reader().epoch(),
        stale_epoch,
        "unrefreshed replica must keep serving its pinned epoch"
    );
    assert!(replica_a.role_handle().epoch_lag() > 0);
    let (status, _, body) = get_full(addr_a, "/readyz");
    assert_eq!(status, 503, "stale replica must answer 503: {body}");
    let err = parse(&body);
    let env = err.get("error").expect("error envelope");
    assert_eq!(env.get("code").and_then(Value::as_str), Some("not_ready"));
    assert!(
        env.get("message")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("replica epoch lag")),
        "message must name the replica lag: {body}"
    );
    let (status, _, _) = get_full(writer_addr, "/readyz");
    assert_eq!(status, 200, "the writer is never replica-stale");

    assert!(replica_a.refresh_now().expect("refresh a"));
    assert!(replica_b.refresh_now().expect("refresh b"));
    assert_eq!(replica_a.role_handle().epoch_lag(), 0);
    let (status, _, _) = get_full(addr_a, "/readyz");
    assert_eq!(status, 200, "refreshed replica must be ready again");
    for target in &battery {
        assert_identical(&addrs, target);
    }

    // Phase 4: writer-only methods are rejected on a replica.
    let probe = SeqEvent {
        shard: 0,
        seq: u64::MAX,
        event: MonitorEvent::ConflictClosed {
            prefix: "192.0.2.0/24".parse().expect("prefix"),
            opened_at: 0,
            at: 1,
        },
    };
    for (what, result) in [
        ("append", replica_a.append(&[probe]).map(|_| ())),
        ("checkpoint", replica_a.checkpoint().map(|_| ())),
        ("mark_day", replica_a.mark_day(DAYS).map(|_| ())),
        ("maintain_now", replica_a.maintain_now().map(|_| ())),
    ] {
        let err = result.expect_err("replica must refuse writer methods");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::PermissionDenied,
            "{what} on a replica must be PermissionDenied"
        );
    }

    // Phase 5: kill and reopen. With the writer quiesced, snapshot the
    // store directory, run a full replica lifecycle — close, reopen,
    // serve the battery, close again — and the directory must not
    // change by a single byte.
    let writer_epoch = service.reader().epoch();
    let before = dir_snapshot(&store);
    server_b.shutdown();
    replica_b.close().expect("close replica b");

    let reopened =
        HistoryService::open_read_only(&store, service_config(dates[0])).expect("reopen replica b");
    assert_eq!(
        reopened.reader().epoch(),
        writer_epoch,
        "a reopened replica must converge to the writer's current epoch"
    );
    let (_query_b2, server_b2, addr_b2) = bind_replica(&reopened, dates[0]);
    for target in &battery {
        assert_identical(&[writer_addr, addr_a, addr_b2], target);
    }
    server_b2.shutdown();
    reopened.close().expect("close reopened replica");

    let after = dir_snapshot(&store);
    assert_eq!(
        before, after,
        "replica lifecycle must not write to the store directory"
    );

    // Teardown.
    writer_server.shutdown();
    server_a.shutdown();
    replica_a.close().expect("close replica a");
    let (_cursor, _report) = fed.shutdown().expect("shutdown feed");
    drop(writer_query);
    Arc::try_unwrap(service)
        .ok()
        .expect("sole service handle")
        .close()
        .unwrap();
    std::fs::remove_dir_all(&archive).ok();
    std::fs::remove_dir_all(&store).ok();
}

/// A replica opened before the store exists publishes the empty epoch,
/// never creates the directory, and converges once a writer appears.
#[test]
fn replica_opened_before_writer_converges_without_creating_store() {
    let start = Date::ymd(2024, 1, 1);
    let store = fresh("early-store");

    let replica =
        HistoryService::open_read_only(&store, service_config(start)).expect("open early replica");
    assert_eq!(replica.role(), ServiceRole::Replica);
    assert_eq!(replica.reader().epoch(), 0);
    assert!(
        !store.exists(),
        "a replica must not create the store directory"
    );

    let writer = HistoryService::open(&store, service_config(start)).expect("open writer");
    let stray = SeqEvent {
        shard: 0,
        seq: 1,
        event: MonitorEvent::ConflictClosed {
            prefix: "198.51.100.0/24".parse().expect("prefix"),
            opened_at: 0,
            at: 1,
        },
    };
    writer.append(&[stray]).expect("append");
    writer.mark_day(1).expect("mark day");
    let writer_epoch = writer.reader().epoch();
    assert!(writer_epoch > 0);

    assert!(replica.refresh_now().expect("refresh"));
    assert_eq!(replica.reader().epoch(), writer_epoch);
    assert_eq!(
        replica.stats().events_appended,
        writer.stats().events_appended,
        "replica stats must mirror the writer's"
    );

    replica.close().expect("close replica");
    writer.close().expect("close writer");
    std::fs::remove_dir_all(&store).ok();
}
