//! Deterministic cost gate: heap allocations and bytes written per
//! unit of work, counted exactly instead of timed.
//!
//! A counting global allocator tallies every allocation (calls and
//! requested bytes) while a measurement window is open. One fixed,
//! seeded stream of BGP4MP records goes through each pipeline stage in
//! turn, and each stage's count per unit of work must stay at or below
//! its row in [`CEILINGS`]:
//!
//! * MRT decode (`MrtReader`): allocations per record;
//! * the `Federation` dedup fold over a second collector whose every
//!   record is an in-window copy: allocations per deduplicated record
//!   (a decode of a copy would show here);
//! * `MonitorEngine` ingest plus shard apply, 2 shards, through
//!   `drain_events`: allocations per route update;
//! * one day mark through `drain_events`: allocations per open
//!   conflict;
//! * `HistoryStore` append plus seal: bytes written and allocations
//!   per event;
//! * `QueryService::respond` on `/v1/prefix/{p}`, once per conflicted
//!   prefix: allocations per request.
//!
//! Everything runs inside one `#[test]`, so no other test of this
//! binary allocates inside a window. Windows that hand work to shard
//! threads end with a drain, which waits for the shards, so their work
//! is counted and none leaks past the window.
//!
//! Each ceiling is the count measured when it was set, rounded up by at
//! most 10%. A change that lowers a count lowers its ceiling in the
//! same commit; raising one needs a written reason. Run with
//! `cargo test --test cost -- --nocapture` to see the measured table.

use moas_bgp::attrs::Attrs;
use moas_bgp::message::{BgpMessage, UpdateMsg};
use moas_feed::{Federation, FederationConfig};
use moas_history::{HistoryService, HistoryStore, ServiceConfig};
use moas_monitor::{MonitorConfig, MonitorEngine, MonitorEvent};
use moas_mrt::bgp4mp::{Bgp4mpMessage, PeeringHeader};
use moas_mrt::{MrtBody, MrtReader, MrtRecord};
use moas_net::{AsPath, Asn, Date, Ipv4Prefix, Prefix};
use moas_serve::{QueryService, Request, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::net::{IpAddr, Ipv4Addr};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-unit ceilings, `(metric, ceiling)`: the count measured when
/// the row was set, rounded up by at most 10%.
const CEILINGS: &[(&str, f64)] = &[
    ("mrt.decode allocs/record", 5.0),
    ("feed.dedup_fold allocs/deduped record", 0.33),
    ("monitor.ingest allocs/route update", 3.75),
    ("monitor.day_mark allocs/open conflict", 1.9),
    ("history.append_seal bytes/event", 44.2),
    ("history.append_seal allocs/event", 1.2),
    ("serve.prefix allocs/request", 63.0),
];

/// Records in the stream.
const RECORDS: u32 = 4_000;
/// Distinct /24 prefixes, in blocks of [`BLOCK`] sharing one origin.
const PREFIXES: u32 = 2_048;
const BLOCK: u32 = 4;
/// Peer sessions.
const SESSIONS: u32 = 8;
/// Monitor shards.
const SHARDS: usize = 2;

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and reallocations while
/// [`ARMED`] is set.
struct Counting;

impl Counting {
    /// Relaxed is enough: the counters publish no other data, and a
    /// window's shard-thread allocations happen before the drain reply
    /// that ends the window, so the final loads see them.
    fn note(size: usize) {
        if ARMED.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's guarantees are exactly the ones `System` needs, and
// what `System` returns is returned as is. The counting before it
// touches only atomics: it neither allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls and requested bytes inside one window.
#[derive(Clone, Copy)]
struct Cost {
    calls: u64,
    bytes: u64,
}

/// Runs `f` inside a measurement window.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    CALLS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    let cost = Cost {
        calls: CALLS.load(Ordering::SeqCst),
        bytes: BYTES.load(Ordering::SeqCst),
    };
    (out, cost)
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as u32
    }
}

fn start_date() -> Date {
    Date::ymd(2001, 1, 1)
}

/// The stream: every record lies in the 00:05 slot of the start date,
/// and each carries its sequence number as MED, so no two records share
/// content. One block in eight is announced from a second origin by
/// odd sessions (a MOAS conflict); one update in ten withdraws.
fn stream() -> Vec<MrtRecord> {
    let head = moas_mrt::snapshot::midnight_timestamp(start_date()) + 300;
    let mut rng = Rng(7);
    (0..RECORDS)
        .map(|seq| {
            let session = rng.below(SESSIONS);
            let block = rng.below(PREFIXES / BLOCK);
            let first = rng.below(BLOCK);
            let count = 1 + rng.below(BLOCK - first);
            let prefixes: Vec<Ipv4Prefix> = (first..first + count)
                .map(|i| Ipv4Prefix::from_bits(0x2000_0000 | ((block * BLOCK + i) << 8), 24))
                .collect();
            let peer_as = 64_512 + session;
            let message = if rng.below(10) == 0 {
                UpdateMsg {
                    withdrawn: prefixes,
                    attrs: Attrs {
                        med: Some(seq),
                        ..Attrs::default()
                    },
                    announced: Vec::new(),
                }
            } else {
                let origin = if block.is_multiple_of(8) && session % 2 == 1 {
                    20_000 + block
                } else {
                    10_000 + block
                };
                let path = AsPath::from_sequence([
                    Asn::new(peer_as),
                    Asn::new(3_000 + block % 61),
                    Asn::new(origin),
                ]);
                UpdateMsg {
                    withdrawn: Vec::new(),
                    attrs: Attrs {
                        med: Some(seq),
                        ..Attrs::announcement(path, Ipv4Addr::new(192, 0, 2, 1))
                    },
                    announced: prefixes,
                }
            };
            MrtRecord {
                timestamp: head + seq * 240 / RECORDS,
                body: MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                    header: PeeringHeader {
                        peer_as: Asn::new(peer_as),
                        local_as: Asn::new(6_447),
                        if_index: 0,
                        peer_addr: IpAddr::V4(Ipv4Addr::from(0xc633_6400 + session)),
                        local_addr: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 254)),
                    },
                    message: BgpMessage::Update(message),
                    as4: true,
                }),
            }
        })
        .collect()
}

/// Where the stages' files go, under the target directory.
fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("cost")
}

/// A fresh scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = scratch_root().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn get(path: String) -> Request {
    Request {
        method: "GET".to_string(),
        path,
        query: Vec::new(),
        headers: Vec::new(),
        body: Vec::new(),
        keep_alive: true,
    }
}

#[test]
fn per_unit_costs_stay_under_their_ceilings() {
    let records = stream();
    let mut bytes = Vec::new();
    for r in &records {
        bytes.extend_from_slice(&r.encode());
    }
    // (metric, measured count per unit, heap bytes per unit).
    let mut measured: Vec<(&str, f64, Option<f64>)> = Vec::new();

    // MRT decode.
    let mut reader = MrtReader::new(&bytes[..]);
    let mut decoded = Vec::with_capacity(records.len());
    let ((), cost) = measure(|| {
        while let Some(r) = reader.next_record() {
            decoded.push(r);
        }
    });
    assert_eq!(decoded, records, "the stream must decode to itself");
    measured.push(allocs("mrt.decode allocs/record", cost, records.len()));

    // Engine ingest plus shard apply, then one day mark.
    let mut engine = MonitorEngine::new(MonitorConfig::with_shards(SHARDS));
    let (events, cost) = measure(|| {
        for r in &decoded {
            engine.ingest_record(r);
        }
        engine.drain_events()
    });
    let routed = engine.metrics().updates_routed;
    measured.push(allocs(
        "monitor.ingest allocs/route update",
        cost,
        routed as usize,
    ));
    let open = engine.snapshot().open_count();
    assert!(open > 0, "the stream must leave conflicts open");
    let (_, cost) = measure(|| {
        engine.mark_day(0, start_date());
        engine.drain_events()
    });
    measured.push(allocs("monitor.day_mark allocs/open conflict", cost, open));
    engine.finish();

    // History append plus seal.
    let mut store = HistoryStore::open(scratch("store")).expect("open store");
    let (sealed, cost) = measure(|| {
        store.append(&events).expect("append");
        store.seal().expect("seal")
    });
    let sealed = sealed.expect("a segment was open");
    assert_eq!(sealed.events as usize, events.len());
    measured.push((
        "history.append_seal bytes/event",
        per(sealed.bytes, events.len()),
        None,
    ));
    measured.push(allocs(
        "history.append_seal allocs/event",
        cost,
        events.len(),
    ));

    // The dedup fold. Collector a's file closes in the first poll (a
    // newer file exists beside it), which opens collector b's copy of
    // the same slot while it is still empty; the measured poll then
    // folds b's copy, every record an in-window hit, and checkpoints
    // (`checkpoint_bytes: 1`), whose drain waits for the shards.
    let (dir_a, dir_b) = (scratch("collector-a"), scratch("collector-b"));
    std::fs::write(dir_a.join("updates.20010101.0005.mrt"), &bytes).expect("write a");
    std::fs::write(dir_a.join("updates.20010101.0010.mrt"), b"").expect("write a");
    std::fs::write(dir_b.join("updates.20010101.0005.mrt"), b"").expect("write b");
    let service = Arc::new(
        HistoryService::open(
            scratch("feed-store"),
            ServiceConfig {
                start_date: start_date(),
                daemon: false,
                ..ServiceConfig::default()
            },
        )
        .expect("open service"),
    );
    let config = FederationConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        checkpoint_bytes: 1,
        ..FederationConfig::new(start_date())
    };
    let mut fed = Federation::open(
        config.collector("a", &dir_a).collector("b", &dir_b),
        Arc::clone(&service),
    )
    .expect("open federation");
    fed.poll_once().expect("first poll");
    let status = fed.status();
    assert_eq!(
        (status.released(), status.deduped()),
        (RECORDS as u64, 0),
        "collector a's file is released whole before b's copy lands"
    );
    std::fs::write(dir_b.join("updates.20010101.0005.mrt"), &bytes).expect("write b");
    let (_, cost) = measure(|| fed.poll_once().expect("measured poll"));
    assert_eq!(
        (status.released(), status.deduped()),
        (RECORDS as u64, RECORDS as u64),
        "every record of b's copy is an in-window hit"
    );
    measured.push(allocs(
        "feed.dedup_fold allocs/deduped record",
        cost,
        RECORDS as usize,
    ));

    // Point lookups on the federation's published epoch, one per
    // conflicted prefix; a warm-up request pays the epoch's one-time
    // replay outside the window.
    let query = QueryService::new(
        service.reader(),
        ServerConfig {
            start_date: start_date(),
            ..ServerConfig::default()
        },
    );
    let conflicted: BTreeSet<Prefix> = events
        .iter()
        .filter_map(|e| match &e.event {
            MonitorEvent::ConflictOpened { prefix, .. } => Some(*prefix),
            _ => None,
        })
        .collect();
    let requests: Vec<Request> = conflicted
        .iter()
        .map(|p| get(format!("/v1/prefix/{p}")))
        .collect();
    assert_eq!(query.respond(&get("/v1/stats".to_string())).status, 200);
    let (statuses, cost) = measure(|| {
        requests
            .iter()
            .map(|r| query.respond(r).status)
            .collect::<Vec<u16>>()
    });
    assert!(statuses.iter().all(|&s| s == 200), "{statuses:?}");
    measured.push(allocs("serve.prefix allocs/request", cost, requests.len()));
    drop((fed, query, service, store));
    std::fs::remove_dir_all(scratch_root()).ok();

    let mut over = Vec::new();
    println!(
        "{:<40} {:>10} {:>10} {:>12}",
        "metric", "measured", "ceiling", "heap B/unit"
    );
    for &(name, ceiling) in CEILINGS {
        let (value, heap) = measured
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|&(_, v, h)| (v, h))
            .unwrap_or_else(|| panic!("{name} was not measured"));
        let heap = heap.map_or("-".to_string(), |h| format!("{h:.0}"));
        println!("{name:<40} {value:>10.3} {ceiling:>10.3} {heap:>12}");
        assert!(value > 0.0, "{name} reads 0: the counter is not counting");
        if value > ceiling {
            over.push(format!("{name}: {value:.3} > {ceiling}"));
        }
    }
    assert!(over.is_empty(), "over the ceiling: {over:?}");
}

/// A stage's allocation row: calls and heap bytes per unit.
fn allocs(name: &str, cost: Cost, units: usize) -> (&str, f64, Option<f64>) {
    (name, per(cost.calls, units), Some(per(cost.bytes, units)))
}

/// `count / units`.
fn per(count: u64, units: usize) -> f64 {
    assert!(units > 0, "a stage measured no work");
    count as f64 / units as f64
}
