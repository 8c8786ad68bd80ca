//! The untraced run: set-up, catch-up passes through `Federation`, the
//! live phase (files landing on a schedule while the open-loop client
//! queries over loopback) and the answer check; also the rate ladder
//! the traced run drives.

use crate::client::{self, Sample};
use crate::gen::{self, Archive};
use crate::reference;
use crate::stats;
use crate::workload::{
    self, Workload, CONNECTIONS, LADDER_TOP, P99_LIMIT_US, RUNGS_PER_OCTAVE, SHARDS, STEP, WORKERS,
};
use moas_feed::{Federation, FederationConfig};
use moas_history::{HistoryService, ServiceConfig};
use moas_monitor::MonitorConfig;
use moas_serve::{FeedStatusSource, QueryServer, QueryService, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Operations attempted and failed, and whether every answer matched.
#[derive(Debug, Default)]
pub struct Tally {
    /// Records decoded plus requests sent.
    pub attempted: u64,
    /// Records skipped by the decoder plus failed requests.
    pub failed: u64,
    /// Every checked answer equalled the reference.
    pub correct: bool,
    /// Human-readable check failures.
    pub notes: Vec<String>,
}

/// A running store, query service and loopback server over one
/// generated archive.
pub struct Stack {
    /// The generated workload.
    pub archive: Archive,
    /// Per-collector archive directories.
    pub dirs: Vec<PathBuf>,
    /// The history store directory.
    pub store: PathBuf,
    /// The writer.
    pub service: Arc<HistoryService>,
    /// The query service behind the server.
    pub query: Arc<QueryService>,
    /// The loopback server.
    pub server: QueryServer,
}

impl Stack {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server, closes the store and removes every file.
    pub fn teardown(self) -> std::io::Result<()> {
        let Stack {
            dirs,
            store,
            service,
            query,
            server,
            ..
        } = self;
        server.shutdown();
        drop(query);
        match Arc::try_unwrap(service) {
            Ok(service) => {
                service.close()?;
            }
            Err(_) => return Err(std::io::Error::other("history service still shared")),
        }
        for dir in dirs {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::remove_dir_all(store)?;
        Ok(())
    }
}

/// Generates the archive, writes the backlog files, and opens the store
/// and the server. Returns the stack and how long that took.
pub fn setup(w: &Workload, seed: u64, root: &Path) -> std::io::Result<(Stack, Duration)> {
    let t = Instant::now();
    let archive = gen::generate(&w.shape, seed);
    let mut dirs = Vec::new();
    for (c, files) in archive.files.iter().enumerate() {
        let dir = root.join(format!("collector{c}"));
        std::fs::create_dir_all(&dir)?;
        for f in files.iter().filter(|f| f.tail_slot.is_none()) {
            std::fs::write(dir.join(&f.name), &f.bytes)?;
        }
        dirs.push(dir);
    }
    let store = root.join("store");
    let service = Arc::new(HistoryService::open(
        &store,
        ServiceConfig {
            start_date: gen::start_date(),
            ..ServiceConfig::default()
        },
    )?);
    let query = Arc::new(QueryService::new(
        service.reader(),
        ServerConfig {
            workers: WORKERS,
            keep_alive_requests: u32::MAX,
            start_date: gen::start_date(),
            ..ServerConfig::default()
        },
    ));
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query))?;
    let stack = Stack {
        archive,
        dirs,
        store,
        service,
        query,
        server,
    };
    Ok((stack, t.elapsed()))
}

/// The federation config over the stack's collectors.
pub fn federation_config(stack: &Stack) -> FederationConfig {
    let mut config = FederationConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        ..FederationConfig::new(gen::start_date())
    };
    for (c, dir) in stack.dirs.iter().enumerate() {
        config = config.collector(format!("c{c}"), dir);
    }
    config
}

/// One timed catch-up: `Federation::open` to `finalize` returning.
pub fn catch_up(stack: &Stack) -> std::io::Result<(Federation, Duration)> {
    let t = Instant::now();
    let mut fed = Federation::open(federation_config(stack), Arc::clone(&stack.service))?;
    while !fed.poll_once()?.caught_up {}
    fed.finalize()?;
    Ok((fed, t.elapsed()))
}

/// Records the decoder skipped, over every collector.
pub fn skipped(fed: &Federation) -> u64 {
    lookup_u64(&fed.status().status_json(), "records_skipped").unwrap_or(0)
}

fn lookup_u64(v: &serde::Value, key: &str) -> Option<u64> {
    match v {
        serde::Value::Object(fields) => fields.iter().find_map(|(k, v)| match v {
            serde::Value::U64(n) if k == key => Some(*n),
            _ => None,
        }),
        _ => None,
    }
}

/// Compares `Federation`'s dedup counters with the archive: every
/// canonical update is released once and every other collector's copy
/// is deduplicated. `tail` says whether the tail files were ingested
/// too, or only the backlog.
pub fn check_dedup(archive: &Archive, released: u64, deduped: u64, tail: bool, tally: &mut Tally) {
    let canonical = archive
        .updates
        .iter()
        .filter(|u| tail || u.ts < gen::midnight(1))
        .count() as u64;
    let copies: u64 = archive
        .files
        .iter()
        .flatten()
        .filter(|f| tail || f.tail_slot.is_none())
        .map(|f| f.records)
        .sum();
    if released != canonical || deduped != copies - canonical {
        tally.correct = false;
        tally.notes.push(format!(
            "dedup: released {released} deduped {deduped}, archive has {canonical} updates in {copies} copies"
        ));
    }
}

/// `a.b.c.0/24` for prefix index `i`, rendered without the program's
/// types.
pub fn prefix_text(i: u32) -> String {
    let bits = 0x2000_0000u32 | (i << 8);
    format!(
        "{}.{}.{}.0/24",
        bits >> 24,
        (bits >> 16) & 0xff,
        (bits >> 8) & 0xff
    )
}

/// `YYYY-MM-DD` of day position `day`.
pub fn date_text(day: u32) -> String {
    gen::start_date().plus_days(day as i64).to_string()
}

/// The reference conflict sets of days `0..=tail_days`.
pub fn reference_days(w: &Workload, archive: &Archive) -> Vec<Vec<u32>> {
    reference::conflicts_by_day(
        reference::route_updates(&w.shape, &archive.updates),
        w.shape.tail_days + 1,
    )
}

/// Compares `/v1/conflicts?date=` over loopback with the reference for
/// each of `days`, counting the requests in `tally`.
pub fn check_days(
    addr: SocketAddr,
    days: impl Iterator<Item = u32>,
    expect: &[Vec<u32>],
    tally: &mut Tally,
) {
    let mut conn = client::Conn::new(addr);
    for day in days {
        let answer = conn.get(&format!("/v1/conflicts?date={}", date_text(day)), None);
        tally.attempted += 1;
        if answer.status != 200 {
            tally.failed += 1;
            tally.correct = false;
            tally
                .notes
                .push(format!("day {day}: status {}", answer.status));
            continue;
        }
        let got = prefixes_of(&answer.body);
        let want: Vec<String> = expect[day as usize]
            .iter()
            .map(|&p| prefix_text(p))
            .collect();
        if got != want {
            tally.correct = false;
            tally.notes.push(format!(
                "day {day}: served {} conflicts, reference {}",
                got.len(),
                want.len()
            ));
        }
    }
}

/// The `"prefixes":[...]` array of a conflicts answer.
fn prefixes_of(body: &[u8]) -> Vec<String> {
    let body = String::from_utf8_lossy(body);
    let Some(rest) = body.split_once("\"prefixes\":[").map(|(_, r)| r) else {
        return Vec::new();
    };
    let list = rest.split(']').next().unwrap_or("");
    list.split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// The live feed driver polls as soon as a slot lands (as a feed
/// woken by a directory watch would) and otherwise every
/// `FALLBACK_POLL`, so freshness carries no polling-interval artefact
/// and idle polls cost little.
pub const FALLBACK_POLL: Duration = Duration::from_millis(10);

/// The live client's schedule runs in segments of this length.
const CLIENT_SEGMENT: Duration = Duration::from_secs(1);

/// The requests of live client segment `k`.
pub fn segment_plan(w: &Workload, seed: u64, k: u32, keys: usize) -> Vec<client::Planned> {
    let n = (w.base_rate * CLIENT_SEGMENT.as_secs_f64()) as usize;
    client::plan(seed ^ ((k as u64) << 32), n, keys)
}

/// What the live phase measured.
pub struct Live {
    /// Client samples at the base rate.
    pub samples: Vec<Sample>,
    /// Peak RSS once the live phase ended, in MB.
    pub peak_rss_mb: f64,
    /// Freshness per closed day, in ms.
    pub freshness_ms: Vec<f64>,
    /// `poll` calls.
    pub polls: u64,
    /// Polls that found nothing.
    pub empty_polls: u64,
    /// Polls that marked more than one day.
    pub multi_day_polls: u64,
    /// Records the live phase ingested.
    pub records: u64,
}

/// A feed driver the live phase can run: the untraced `Federation` or
/// the traced decomposed driver.
pub trait Feed: Send {
    /// One discovery-and-ingest pass: `(records, days marked, idle)`.
    fn poll(&mut self) -> std::io::Result<(u64, u64, bool)>;
}

impl Feed for Federation {
    fn poll(&mut self) -> std::io::Result<(u64, u64, bool)> {
        let p = self.poll_once()?;
        let idle = p.records == 0 && p.files_closed == 0 && p.days_marked == 0;
        Ok((p.records, p.days_marked, idle))
    }
}

/// Warms the server before timing: one request of each class.
pub fn warm_up(addr: SocketAddr, keys: &[u32]) {
    let mut conn = client::Conn::new(addr);
    for target in [
        format!("/v1/prefix/{}", prefix_text(keys[0])),
        "/v1/validity?limit=0".to_string(),
        format!("/v1/conflicts?date={}&limit={}", date_text(0), client::PAGE),
        "/v1/stats".to_string(),
    ] {
        conn.get(&target, None);
    }
}

/// Lands the tail on its schedule while `feed` follows it and the
/// client queries at the base rate.
///
/// Day `d` (1-based tail day) closes when the first file of day `d + 1`
/// is due; its freshness is the time from then to the first answer
/// computed at an epoch at least the store's epoch when the poll that
/// marked day `d` returned. The feed marks days inside `poll`, where
/// checkpoint seals and compaction swaps also advance the epoch, so the
/// epoch read after the poll is the earliest one known to include the
/// day; an answer at an epoch between the mark and the poll's return
/// is not counted, which can overstate freshness by the rest of that
/// poll but never understates it. Polls that mark more than one day
/// (the feed fell behind) are counted in [`Live::multi_day_polls`].
pub fn live(
    w: &Workload,
    stack: &Stack,
    feed: &mut dyn Feed,
    seed: u64,
    keys: &[u32],
) -> std::io::Result<Live> {
    let shape = &w.shape;
    let slots = shape.tail_days * shape.tail_files_per_day;
    let t0 = Instant::now() + Duration::from_millis(20);
    // Slots landed so far, with a wake-up for the feed driver.
    let landed = (Mutex::new(0u32), Condvar::new());
    let feed_done = AtomicBool::new(false);
    let reader = stack.service.reader();
    let targets = client::Targets {
        keys,
        days: shape.tail_days + 1,
    };
    let addr = stack.addr();

    let (landing, feed_out, (samples, peak_rss_mb)) = std::thread::scope(|scope| {
        let landing = scope.spawn(|| -> std::io::Result<()> {
            for slot in 0..slots {
                let due = t0 + w.slot_period * slot;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                for (c, files) in stack.archive.files.iter().enumerate() {
                    for f in files.iter().filter(|f| f.tail_slot == Some(slot)) {
                        let tmp = stack.dirs[c].join("landing.tmp");
                        std::fs::write(&tmp, &f.bytes)?;
                        std::fs::rename(&tmp, stack.dirs[c].join(&f.name))?;
                    }
                }
                *landed.0.lock().expect("landing lock") = slot + 1;
                landed.1.notify_all();
            }
            Ok(())
        });
        let driver = scope.spawn(|| -> std::io::Result<(Vec<u64>, [u64; 4])> {
            let mut closes = Vec::new();
            let (mut polls, mut empty, mut multi, mut records) = (0u64, 0u64, 0u64, 0u64);
            loop {
                let seen = *landed.0.lock().expect("landing lock");
                let (n, marked, idle) = feed.poll()?;
                let after = reader.epoch();
                polls += 1;
                records += n;
                if marked > 1 {
                    multi += 1;
                }
                for _ in 0..marked {
                    closes.push(after);
                }
                if idle {
                    empty += 1;
                    if seen == slots {
                        feed_done.store(true, Ordering::SeqCst);
                        break;
                    }
                    let guard = landed.0.lock().expect("landing lock");
                    drop(
                        landed
                            .1
                            .wait_timeout_while(guard, FALLBACK_POLL, |n| *n == seen)
                            .expect("landing lock"),
                    );
                }
            }
            Ok((closes, [polls, empty, multi, records]))
        });
        // The client keeps its schedule, one second at a time, until the
        // landing schedule is over and the feed has consumed every slot,
        // so a feed that falls behind still has each day close answered.
        let mut samples = Vec::new();
        let mut conns: Vec<client::Conn> =
            (0..CONNECTIONS).map(|_| client::Conn::new(addr)).collect();
        for k in 0u32.. {
            let offset = CLIENT_SEGMENT * k;
            if offset >= w.live_duration() && feed_done.load(Ordering::SeqCst) {
                break;
            }
            let plan = segment_plan(w, seed, k, keys.len());
            samples.extend(client::run(
                &mut conns,
                t0,
                offset,
                w.base_rate,
                &plan,
                &targets,
            ));
        }
        let peak = crate::sys::peak_rss_mb();
        (
            landing.join().expect("lander panicked"),
            driver.join().expect("feed driver panicked"),
            (samples, peak),
        )
    });
    landing?;
    let (closes, [polls, empty_polls, multi_day_polls, records]) = feed_out?;

    // Answers in completion order, to find the first at each epoch.
    let mut answered: Vec<(Duration, u64)> = samples
        .iter()
        .filter(|s| s.ok())
        .filter_map(|s| s.epoch.map(|e| (s.done, e)))
        .collect();
    answered.sort();
    let mut freshness_ms = Vec::new();
    for (i, &epoch) in closes.iter().enumerate().take(w.freshness_days() as usize) {
        let day = i as u32 + 1;
        let due = w.slot_period * (day * shape.tail_files_per_day);
        if let Some((done, _)) = answered.iter().find(|(_, e)| *e >= epoch) {
            freshness_ms.push(done.saturating_sub(due).as_secs_f64() * 1e3);
        }
    }
    Ok(Live {
        samples,
        peak_rss_mb,
        freshness_ms,
        polls,
        empty_polls,
        multi_day_polls,
        records,
    })
}

/// Finds the highest ladder rung whose step meets the limit: a coarse
/// climb an octave at a time, then bisection between the last pass and
/// the first failure. Returns that rate (0 if the lowest rung
/// fails) and every sample sent.
pub fn ladder(addr: SocketAddr, seed: u64, keys: &[u32], days: u32) -> (f64, Vec<Sample>) {
    let targets = client::Targets { keys, days };
    let mut conns: Vec<client::Conn> = (0..CONNECTIONS).map(|_| client::Conn::new(addr)).collect();
    let mut all = Vec::new();
    let mut step = |k: u32| -> bool {
        let rate = workload::rung(k);
        let n = (rate * STEP.as_secs_f64()) as usize;
        let plan = client::plan(seed ^ ((k as u64 + 1) << 40), n, keys.len());
        let samples = client::run(
            &mut conns,
            Instant::now(),
            Duration::ZERO,
            rate,
            &plan,
            &targets,
        );
        let lat = stats::sorted(
            &samples
                .iter()
                .map(|s| {
                    if s.ok() {
                        s.latency_us()
                    } else {
                        f64::INFINITY
                    }
                })
                .collect::<Vec<_>>(),
        );
        // A growing backlog shows as the step's last tenth running late
        // as a whole, not as one slow request.
        let tail: Vec<f64> = samples[samples.len() - samples.len() / 10..]
            .iter()
            .map(Sample::latency_us)
            .collect();
        let tail_p50 = stats::median(&tail);
        let p99 = stats::percentile(&lat, 0.99);
        println!(
            "ladder: rate={rate} p50_us={:.0} p99_us={p99:.0} last_tenth_p50_us={tail_p50:.0}",
            stats::percentile(&lat, 0.5)
        );
        all.extend(samples);
        p99 < P99_LIMIT_US && tail_p50 < P99_LIMIT_US
    };
    let (mut pass, mut fail) = (None, LADDER_TOP + 1);
    for k in (0..=LADDER_TOP).step_by(RUNGS_PER_OCTAVE as usize) {
        if step(k) {
            pass = Some(k);
        } else {
            fail = k;
            break;
        }
    }
    if let Some(mut lo) = pass {
        while fail - lo > 1 {
            let mid = (lo + fail) / 2;
            if step(mid) {
                lo = mid;
            } else {
                fail = mid;
            }
        }
        pass = Some(lo);
    }
    (pass.map_or(0.0, workload::rung), all)
}

/// Prefixes with a conflict record once the backlog is in: those in
/// conflict at the day-0 cut. The Zipf keys of the prefix queries.
pub fn query_keys(expect: &[Vec<u32>], seed: u64) -> Vec<u32> {
    let mut keys = expect[0].clone();
    // A seeded shuffle, so the hottest keys are not the lowest prefixes.
    let mut rng = gen::Rng::new(seed ^ 0x6b65_7973);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    keys
}

/// Metrics of one run: name, value, unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The live phase's freshness (ms) and query latency (µs) samples,
/// sorted, once each is shown to have ten samples beyond its reported
/// tail percentile (p95 and p99).
pub fn distributions(live: &Live) -> std::io::Result<(Vec<f64>, Vec<f64>)> {
    let fresh = stats::sorted(&live.freshness_ms);
    let lat = stats::sorted(
        &live
            .samples
            .iter()
            .map(Sample::latency_us)
            .collect::<Vec<_>>(),
    );
    for (what, n, q) in [("freshness", fresh.len(), 0.95), ("query", lat.len(), 0.99)] {
        if stats::highest_supported(n).is_none_or(|top| top < q) {
            return Err(std::io::Error::other(format!(
                "{what}: {n} samples cannot support p{}",
                q * 100.0
            )));
        }
    }
    Ok((fresh, lat))
}

/// The run length the workloads' pass counts are sized for.
const REFERENCE_SECONDS: f64 = 30.0;

/// Warm set-ups per run at least (`setup_s` is their median; the
/// first set-up of a run is cold and not counted).
const MIN_SETUPS: usize = 7;

/// The end-to-end metrics of one untraced run.
pub fn untraced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    root: &Path,
) -> std::io::Result<(Metrics, Tally)> {
    // A fixed number of passes per run length, so every run of a
    // workload does the same work whatever the machine's speed.
    let timed = ((w.timed_passes as f64 * seconds / REFERENCE_SECONDS).round() as usize).max(1);
    let mut tally = Tally {
        correct: true,
        ..Tally::default()
    };
    let mut setups = Vec::new();
    let mut fingerprint = None;
    let mut same_archive = |stack: &Stack, tally: &mut Tally| {
        let print = gen::fingerprint(&stack.archive);
        if *fingerprint.get_or_insert(print) != print {
            tally.correct = false;
            tally.notes.push("archive differs between set-ups".into());
        }
    };
    // Set-up alone is short: besides the one of each catch-up pass it
    // runs on its own, each stack torn down before the next, until
    // there are enough samples for a median. The first set-up of the
    // process is cold and not counted.
    let alone = MIN_SETUPS.saturating_sub(timed + 1);
    for k in 0..=alone {
        let (stack, took) = setup(w, seed, root)?;
        if k > 0 {
            setups.push(took.as_secs_f64());
        }
        same_archive(&stack, &mut tally);
        stack.teardown()?;
    }
    let mut rates = Vec::new();
    let mut expect: Option<Vec<Vec<u32>>> = None;
    let (stack, mut fed) = loop {
        let (stack, setup_time) = setup(w, seed, root)?;
        setups.push(setup_time.as_secs_f64());
        same_archive(&stack, &mut tally);
        // The first catch-up warms caches and the allocator; it is not
        // timed.
        let warm = expect.is_some();
        if !warm {
            expect = Some(reference_days(w, &stack.archive));
        }
        crate::sys::reset_peak_rss()?;
        let (fed, took) = catch_up(&stack)?;
        if warm {
            rates.push(stack.archive.backlog_route_updates as f64 / took.as_secs_f64());
        }
        let records: u64 = stack
            .archive
            .files
            .iter()
            .flatten()
            .filter(|f| f.tail_slot.is_none())
            .map(|f| f.records)
            .sum();
        tally.attempted += records;
        let status = fed.status();
        check_dedup(
            &stack.archive,
            status.released(),
            status.deduped(),
            false,
            &mut tally,
        );
        drop(status);
        check_days(
            stack.addr(),
            std::iter::once(0),
            expect.as_ref().expect("computed above"),
            &mut tally,
        );
        if rates.len() == timed {
            break (stack, fed);
        }
        tally.failed += skipped(&fed);
        fed.shutdown()?;
        stack.teardown()?;
    };
    let expect = expect.expect("at least one pass");
    let keys = query_keys(&expect, seed);

    warm_up(stack.addr(), &keys);
    let live = live(w, &stack, &mut fed, seed, &keys)?;
    fed.finalize()?;
    tally.attempted += live.records;
    let days = w.shape.tail_days + 1;
    for s in &live.samples {
        tally.attempted += 1;
        if !s.ok() {
            tally.failed += 1;
        }
    }
    check_days(stack.addr(), 0..days, &expect, &mut tally);
    // The kept pass's skips, backlog and tail together.
    tally.failed += skipped(&fed);
    let status = fed.status();
    check_dedup(
        &stack.archive,
        status.released(),
        status.deduped(),
        true,
        &mut tally,
    );
    drop(status);
    fed.shutdown()?;
    stack.teardown()?;

    let (fresh, lat) = distributions(&live)?;
    // Query latency is per-layer (it moves with the host's wake-up
    // cost from run to run); shown here with its exchange part (send to
    // answer), which leaves out queueing behind earlier requests.
    let exchange: Vec<f64> = live
        .samples
        .iter()
        .map(|s| s.done.saturating_sub(s.sent).as_secs_f64() * 1e6)
        .collect();
    println!(
        "info: query_p50_us={:.1} query_exchange_p50_us={:.1}",
        stats::percentile(&lat, 0.5),
        stats::median(&exchange),
    );
    println!(
        "info: timed_passes={} setups={} freshness_samples={} query_samples={} polls={} empty_polls={} multi_day_polls={}",
        rates.len(),
        setups.len(),
        fresh.len(),
        lat.len(),
        live.polls,
        live.empty_polls,
        live.multi_day_polls
    );
    let metrics = vec![
        ("setup_s", stats::median(&setups), "s"),
        ("ingest_updates_per_s", stats::median(&rates), "updates/s"),
        ("freshness_p50_ms", stats::percentile(&fresh, 0.5), "ms"),
        ("peak_rss_mb", live.peak_rss_mb, "MB"),
    ];
    Ok((metrics, tally))
}
