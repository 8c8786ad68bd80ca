//! The traced run: a decomposed driver that calls the same public
//! layer functions `Federation` calls, in the same order on the same
//! files, with a span around every call, plus the isolated layer
//! measurements (decode alone, route extraction alone, a one-shard
//! baseline) and the serve-layer replay.
//!
//! `Federation` keeps its dedup window and cursors private, so the
//! driver re-implements the dedup rule (content key of every record
//! byte but the timestamp, a 90 s window, eviction two windows behind
//! the newest file's slot) and skips cursor persistence; the
//! difference in wall time between `Federation` and the driver's layer
//! spans is reported as the derived `feed.coordination_s`.

use crate::client::{self, Class, Sample};
use crate::run::{self, Feed, Stack, Tally};
use crate::stats;
use crate::workload::{Workload, SHARDS};
use moas_feed::{scan_layout, FeedFile, FileTailer};
use moas_history::{HistoryReader, HistoryService, ValidityConfig};
use moas_monitor::{MonitorConfig, MonitorEngine};
use moas_mrt::record::MrtRecord;
use moas_mrt::MrtReader;
use moas_net::Date;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a traced run writes its spans, relative to the working
/// directory.
pub const TRACE_DIR: &str = ".bench_trace";

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.function`.
    pub name: &'static str,
    /// Start, since the tracer's origin.
    pub start: Duration,
    /// End, since the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The trace (one per file or day close) the span belongs to.
    pub trace: u32,
}

/// In-memory span recorder; disabled, it only runs the closures.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    trace: u32,
}

impl Tracer {
    /// A tracer, recording when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    /// Starts a new trace id for the spans that follow.
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            trace: self.trace,
        });
        self.open.push(idx);
        let out = f();
        self.open.pop();
        self.spans[idx as usize].end = self.origin.elapsed();
        out
    }

    /// Opens a span that [`Tracer::close`] ends, around code that
    /// records spans of its own.
    pub fn open(&mut self, name: &'static str) {
        if self.on {
            let idx = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start: self.origin.elapsed(),
                end: Duration::ZERO,
                parent: self.open.last().copied(),
                trace: self.trace,
            });
            self.open.push(idx);
        }
    }

    /// Ends the innermost span [`Tracer::open`] opened.
    pub fn close(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx as usize].end = self.origin.elapsed();
        }
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals: self time (duration minus children), calls, and
/// every duration.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    /// Sum of self times.
    pub self_time: Duration,
    /// Calls.
    pub calls: u64,
    /// Each call's full duration.
    pub durations: Vec<Duration>,
}

impl Agg {
    /// Median call duration in `unit` seconds (1e-3: ms, 1e-6: µs).
    pub fn median(&self, unit: f64) -> f64 {
        if self.durations.is_empty() {
            return 0.0;
        }
        let v: Vec<f64> = self
            .durations
            .iter()
            .map(|d| d.as_secs_f64() / unit)
            .collect();
        stats::median(&v)
    }

    /// Total full duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.durations.iter().sum::<Duration>().as_secs_f64()
    }
}

/// Aggregates the spans in `range` by name, with each span's self time
/// (parents index into the whole of `spans`).
pub fn aggregate(spans: &[Span], range: std::ops::Range<usize>) -> BTreeMap<&'static str, Agg> {
    let mut child = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p as usize] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().take(range.end).skip(range.start) {
        let a = out.entry(s.name).or_default();
        let d = s.end - s.start;
        a.self_time += d.saturating_sub(child[i]);
        a.calls += 1;
        a.durations.push(d);
    }
    out
}

/// Layer of a span name: the text before the first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Share of `[from, to)` covered by the union of `spans`.
pub fn coverage(spans: &[Span], from: Duration, to: Duration) -> f64 {
    let mut iv: Vec<(Duration, Duration)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start.max(from), s.end.min(to)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort();
    let mut covered = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered.as_secs_f64() / (to - from).as_secs_f64().max(1e-9)
}

/// The Federation dedup rule, re-implemented: a record whose content
/// (every byte but the timestamp) was released within the window is a
/// cross-collector copy.
struct Dedup {
    window: u32,
    seen: HashMap<u64, u32>,
    order: VecDeque<(u32, u64)>,
}

impl Dedup {
    fn open_file(&mut self, head_ts: u32) {
        let horizon = head_ts.saturating_sub(2 * self.window);
        while let Some(&(ts, key)) = self.order.front() {
            if ts >= horizon {
                break;
            }
            if self.seen.get(&key) == Some(&ts) {
                self.seen.remove(&key);
            }
            self.order.pop_front();
        }
    }

    fn admit(&mut self, record: &MrtRecord) -> bool {
        let bytes = record.encode();
        let mut key: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes.get(4..).unwrap_or(&[]) {
            key ^= b as u64;
            key = key.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let ts = record.timestamp;
        match self.seen.get(&key) {
            Some(&released) if ts.abs_diff(released) <= self.window => false,
            _ => {
                self.seen.insert(key, ts);
                self.order.push_back((ts, key));
                true
            }
        }
    }
}

fn slot_head_ts(file: &FeedFile) -> u32 {
    moas_mrt::snapshot::midnight_timestamp(file.date)
        + (file.hhmm / 100) as u32 * 3_600
        + (file.hhmm % 100) as u32 * 60
}

/// Counters the decomposed driver keeps.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Files consumed.
    pub files: u64,
    /// Records released to the engine.
    pub released: u64,
    /// Records only corroborated.
    pub deduped: u64,
    /// Route-level updates in released and corroborated records.
    pub updates: u64,
    /// Lifecycle events drained and appended.
    pub events: u64,
    /// Records the tailer could not decode.
    pub skipped: u64,
}

/// The decomposed driver.
pub struct Decomposed {
    dirs: Vec<std::path::PathBuf>,
    engine: Option<MonitorEngine>,
    service: Arc<HistoryService>,
    reader: HistoryReader,
    start: Date,
    done: Vec<BTreeSet<String>>,
    next_day: u32,
    last_day: Option<u32>,
    dedup: Dedup,
    /// Spans.
    pub tracer: Tracer,
    /// Counters.
    pub counts: Counts,
}

impl Decomposed {
    /// A driver over `stack`'s collectors and store.
    pub fn new(stack: &Stack, shards: usize, traced: bool) -> Self {
        let collectors = stack.dirs.len();
        let mut tracer = Tracer::new(traced);
        let engine = tracer.span("monitor.new", || {
            MonitorEngine::new(MonitorConfig {
                collectors,
                ..MonitorConfig::with_shards(shards)
            })
        });
        Decomposed {
            dirs: stack.dirs.clone(),
            engine: Some(engine),
            service: Arc::clone(&stack.service),
            reader: stack.service.reader(),
            start: crate::gen::start_date(),
            done: vec![BTreeSet::new(); collectors],
            next_day: 0,
            last_day: None,
            dedup: Dedup {
                window: 90,
                seen: HashMap::new(),
                order: VecDeque::new(),
            },
            tracer,
            counts: Counts::default(),
        }
    }

    /// Marks every day before `through`: engine barrier, drain, append,
    /// publish, then the first snapshot of the new epoch and its
    /// validity report, as a reader would build them.
    fn mark_days_before(&mut self, through: u32) -> std::io::Result<u64> {
        let mut marked = 0;
        while self.next_day < through {
            let idx = self.next_day;
            let date = self.start.plus_days(idx as i64);
            self.tracer.next_trace();
            let mut engine = self.engine.take().expect("engine present");
            self.tracer
                .span("monitor.mark_day", || engine.mark_day(idx as usize, date));
            let events = self
                .tracer
                .span("monitor.drain_events", || engine.drain_events());
            self.engine = Some(engine);
            self.counts.events += events.len() as u64;
            let service = Arc::clone(&self.service);
            self.tracer
                .span("history.append", || service.append(&events))?;
            self.tracer
                .span("history.mark_day", || service.mark_day(idx as usize))?;
            let reader = self.reader.clone();
            let snap = self.tracer.span("history.snapshot", || reader.snapshot());
            let report = self.tracer.span("history.validity", || {
                snap.validity(ValidityConfig::default())
            });
            black_box(report.conflicts.len());
            self.next_day += 1;
            marked += 1;
        }
        Ok(marked)
    }

    fn consume(&mut self, collector: usize, file: &FeedFile) -> std::io::Result<u64> {
        self.tracer.next_trace();
        let mut tailer = FileTailer::open(&file.path, 0);
        let pass = self.tracer.span("feed.tail", || tailer.poll())?;
        self.counts.files += 1;
        self.counts.skipped += pass.records_skipped;
        let dedup = &mut self.dedup;
        dedup.open_file(slot_head_ts(file));
        let fresh: Vec<bool> = self.tracer.span("feed.dedup", || {
            pass.records.iter().map(|r| dedup.admit(r)).collect()
        });
        let mut released = 0;
        let collector = collector as u16;
        let mut engine = self.engine.take().expect("engine present");
        // The driver's own loop is a span too, so its overhead shows as
        // the `driver` layer's self time instead of as a gap.
        let (tracer, counts) = (&mut self.tracer, &mut self.counts);
        tracer.open("driver.records");
        for (rec, fresh) in pass.records.iter().zip(fresh) {
            counts.updates += route_updates(rec);
            if fresh {
                released += 1;
                tracer.span("monitor.ingest", || {
                    engine.ingest_record_from(collector, rec)
                });
            } else {
                counts.deduped += 1;
                tracer.span("monitor.corroborate", || {
                    engine.corroborate_record(collector, rec)
                });
            }
        }
        tracer.close();
        let events = self
            .tracer
            .span("monitor.drain_events", || engine.drain_events());
        self.engine = Some(engine);
        self.counts.released += released;
        self.counts.events += events.len() as u64;
        let service = Arc::clone(&self.service);
        self.tracer
            .span("history.append", || service.append(&events))?;
        self.tracer
            .span("history.checkpoint", || service.checkpoint())?;
        self.done[collector as usize].insert(file.name.clone());
        Ok(released)
    }

    /// Consumes every landed file in the merged `(date, hhmm,
    /// collector, name)` order, marking each day when the first file of
    /// a later day opens.
    pub fn poll_files(&mut self) -> std::io::Result<(u64, u64, bool)> {
        let dirs = self.dirs.clone();
        let layouts = self.tracer.span("feed.scan", || {
            dirs.iter()
                .map(|d| scan_layout(d))
                .collect::<std::io::Result<Vec<_>>>()
        })?;
        let mut todo: Vec<(Date, u16, usize, FeedFile)> = Vec::new();
        for (c, layout) in layouts.into_iter().enumerate() {
            for f in layout {
                if !self.done[c].contains(&f.name) {
                    todo.push((f.date, f.hhmm, c, f));
                }
            }
        }
        todo.sort_by(|a, b| (a.0, a.1, a.2, &a.3.name).cmp(&(b.0, b.1, b.2, &b.3.name)));
        let (mut records, mut marked) = (0, 0);
        for (date, _, c, f) in &todo {
            let pos = self.start.days_until(date) as u32;
            marked += self.mark_days_before(pos)?;
            records += self.consume(*c, f)?;
            self.last_day = Some(self.last_day.map_or(pos, |d| d.max(pos)));
        }
        Ok((records, marked, todo.is_empty()))
    }

    /// Marks every day through the last consumed file's.
    pub fn finalize(&mut self) -> std::io::Result<()> {
        if let Some(day) = self.last_day {
            self.mark_days_before(day + 1)?;
        }
        Ok(())
    }

    /// Stops the shard workers.
    pub fn finish(mut self) -> (Tracer, Counts) {
        if let Some(engine) = self.engine.take() {
            engine.finish();
        }
        (self.tracer, self.counts)
    }
}

impl Feed for Decomposed {
    fn poll(&mut self) -> std::io::Result<(u64, u64, bool)> {
        self.poll_files()
    }
}

/// Announced plus withdrawn prefixes of a record, read off its fields
/// (cheap: the driver counts outside any span).
fn route_updates(rec: &MrtRecord) -> u64 {
    match &rec.body {
        moas_mrt::MrtBody::Bgp4mpMessage(m) => match &m.message {
            moas_bgp::message::BgpMessage::Update(u) => {
                let v6 = u.attrs.mp_reach.as_ref().map_or(0, |r| r.prefixes.len());
                (u.withdrawn.len() + u.announced.len() + v6 + u.attrs.mp_unreach.len()) as u64
            }
            _ => 0,
        },
        _ => 0,
    }
}

/// A catch-up of the backlog by the decomposed driver.
fn decomposed_catch_up(
    stack: &Stack,
    shards: usize,
    traced: bool,
) -> std::io::Result<(Decomposed, Duration)> {
    let t = Instant::now();
    let mut d = Decomposed::new(stack, shards, traced);
    d.poll_files()?;
    d.finalize()?;
    Ok((d, t.elapsed()))
}

/// Seconds of untraced `Federation` catch-up a traced run times at
/// least, for the reference walls.
const REFERENCE_SECS: f64 = 2.0;

/// Sets a stack up, runs `f` on it, and tears it down.
fn with_stack<T>(
    w: &Workload,
    seed: u64,
    root: &Path,
    f: impl FnOnce(&Stack) -> std::io::Result<(T, Duration)>,
) -> std::io::Result<(T, Duration)> {
    let (stack, _) = run::setup(w, seed, root)?;
    let out = f(&stack)?;
    stack.teardown()?;
    Ok(out)
}

/// Decode alone and route extraction alone over every file's bytes.
struct Isolated {
    records: u64,
    bytes: u64,
    skipped: u64,
    decode: Duration,
    instructions: Duration,
}

fn isolated(stack: &Stack) -> Isolated {
    let mut out = Isolated {
        records: 0,
        bytes: 0,
        skipped: 0,
        decode: Duration::ZERO,
        instructions: Duration::ZERO,
    };
    for f in stack.archive.files.iter().flatten() {
        let t = Instant::now();
        let mut reader = MrtReader::new(&f.bytes[..]);
        let records: Vec<MrtRecord> = reader.by_ref().collect();
        out.decode += t.elapsed();
        out.records += records.len() as u64;
        out.bytes += f.bytes.len() as u64;
        out.skipped += reader.stats().records_skipped;
        let t = Instant::now();
        for r in &records {
            black_box(moas_core::replay::record_instructions(black_box(r)));
        }
        out.instructions += t.elapsed();
    }
    out
}

/// The per-layer metrics of one traced run.
pub fn traced(w: &Workload, seed: u64, root: &Path) -> std::io::Result<(run::Metrics, Tally)> {
    let mut tally = Tally {
        correct: true,
        ..Tally::default()
    };

    let (stack, _) = run::setup(w, seed, root)?;
    let expect = run::reference_days(w, &stack.archive);
    let iso = isolated(&stack);
    stack.teardown()?;

    // Untraced `Federation` (the wall the derived coordination time is
    // taken from, and the dedup counters), the untraced decomposed
    // driver and the traced one, alternating, each on a fresh store.
    // Short catch-ups repeat until about two seconds of `Federation`
    // were timed; the walls are medians.
    let (mut fed_walls, mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut fed_counts;
    let mut reps = 1;
    let mut rep = 0;
    loop {
        let (counts, wall) = with_stack(w, seed, root, |stack| {
            let (fed, wall) = run::catch_up(stack)?;
            let status = fed.status();
            let counts = (status.released(), status.deduped());
            drop(status);
            run::check_dedup(&stack.archive, counts.0, counts.1, false, &mut tally);
            fed.shutdown()?;
            Ok((counts, wall))
        })?;
        fed_counts = counts;
        fed_walls.push(wall.as_secs_f64());
        if rep == 0 {
            reps = (REFERENCE_SECS / wall.as_secs_f64()).ceil().clamp(1.0, 9.0) as usize;
        }
        let ((), wall) = with_stack(w, seed, root, |stack| {
            let (d, wall) = decomposed_catch_up(stack, SHARDS, false)?;
            d.finish();
            Ok(((), wall))
        })?;
        plain_walls.push(wall.as_secs_f64());
        rep += 1;
        if rep == reps {
            break;
        }
        let ((), wall) = with_stack(w, seed, root, |stack| {
            let (d, wall) = decomposed_catch_up(stack, SHARDS, true)?;
            d.finish();
            Ok(((), wall))
        })?;
        traced_walls.push(wall.as_secs_f64());
    }
    let (fed_released, fed_deduped) = fed_counts;
    let fed_wall = stats::median(&fed_walls);
    let plain_wall = stats::median(&plain_walls);

    // The single-shard baseline.
    let (one, one_wall) = with_stack(w, seed, root, |stack| {
        let (d, wall) = decomposed_catch_up(stack, 1, false)?;
        Ok((d.finish().1, wall))
    })?;

    // Traced: catch-up, then the live phase on the same driver.
    let (stack, _) = run::setup(w, seed, root)?;
    let io_before = crate::sys::wchar();
    let (mut d, traced_one) = decomposed_catch_up(&stack, SHARDS, true)?;
    let io_written = crate::sys::wchar() - io_before;
    traced_walls.push(traced_one.as_secs_f64());
    let traced_wall = stats::median(&traced_walls);
    let catch_counts = d.counts;
    let catch_spans = d.tracer.spans().len();
    let catch_end = d.tracer.origin.elapsed();
    let catch_start = catch_end.saturating_sub(traced_one);
    let cover = coverage(&d.tracer.spans()[..catch_spans], catch_start, catch_end);
    check_counts(&mut tally, &catch_counts);
    run::check_dedup(
        &stack.archive,
        catch_counts.released,
        catch_counts.deduped,
        false,
        &mut tally,
    );
    let keys = run::query_keys(&expect, seed);
    run::warm_up(stack.addr(), &keys);
    let live = run::live(w, &stack, &mut d, seed, &keys)?;
    d.finalize()?;
    let days = w.shape.tail_days;
    run::check_days(stack.addr(), 0..=days, &expect, &mut tally);
    // The ladder runs once compaction triggered by the last day marks
    // is done, before the replay adds epochs.
    stack.service.wait_idle();
    let (max_rate, ladder_samples) = run::ladder(stack.addr(), seed, &keys, days + 1);
    let targets = client::Targets {
        keys: &keys,
        days: days + 1,
    };
    let replay = replay_respond(w, &stack, &live.samples, seed, &targets)?;
    let cache = stack.query.cache_stats();
    let (tracer, counts) = d.finish();
    stack.teardown()?;
    write_spans(&tracer, &format!("{}-{seed}", w.name))?;

    for s in live.samples.iter().chain(&ladder_samples) {
        tally.attempted += 1;
        if !s.ok() {
            tally.failed += 1;
        }
    }
    tally.attempted += counts.released + counts.deduped + counts.skipped;
    tally.failed += counts.skipped;

    let n = tracer.spans().len();
    let all = aggregate(tracer.spans(), 0..n);
    let catch = aggregate(tracer.spans(), 0..catch_spans);
    let live_spans = aggregate(tracer.spans(), catch_spans..n);
    let get = |m: &BTreeMap<&'static str, Agg>, k: &str| m.get(k).cloned().unwrap_or_default();

    print_layer_table(&catch, traced_one, "catch-up");
    print_layer_table(&live_spans, live_wall(&tracer, catch_spans), "live");
    println!(
        "info: catch-ups={reps} federation_wall_s={fed_wall:.3} decomposed_wall_s={plain_wall:.3} traced_wall_s={traced_wall:.3} coverage={:.1}%",
        cover * 100.0
    );

    let layer_self: Duration = catch
        .iter()
        .filter(|(name, _)| layer(name) != "driver")
        .map(|(_, a)| a.self_time)
        .sum();
    let ingest = {
        let mut a = get(&catch, "monitor.ingest");
        let c = get(&catch, "monitor.corroborate");
        a.durations.extend(c.durations);
        a
    };
    let requests = live.samples.len() as f64;
    let errors = live.samples.iter().filter(|s| !s.ok()).count() as f64;
    let client_p50 = stats::median(
        &live
            .samples
            .iter()
            .map(Sample::latency_us)
            .collect::<Vec<_>>(),
    );
    let respond_all: Vec<f64> = replay.iter().flat_map(|(_, v)| v.iter().copied()).collect();
    let respond_p50 = |c: Class| {
        replay
            .iter()
            .find(|(k, _)| *k == c)
            .map_or(0.0, |(_, v)| stats::median(v))
    };
    let lateness = stats::sorted(&client::generator_lateness_ms(&live.samples));
    let (fresh, lat) = run::distributions(&live)?;
    let per_update = |d: Duration, n: u64| d.as_secs_f64() * 1e9 / n.max(1) as f64;
    let cache_ratio = cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64;
    let corroborations = get(&all, "monitor.corroborate").calls;
    let metrics = vec![
        (
            "mrt.decode_ns_per_record",
            per_update(iso.decode, iso.records),
            "ns",
        ),
        ("mrt.records", iso.records as f64, "count"),
        ("mrt.bytes", iso.bytes as f64, "bytes"),
        ("mrt.skipped", iso.skipped as f64, "count"),
        ("feed.tail_s", get(&catch, "feed.tail").total_s(), "s"),
        ("feed.files", catch_counts.files as f64, "count"),
        ("feed.released", fed_released as f64, "count"),
        ("feed.deduped", fed_deduped as f64, "count"),
        (
            "feed.dedup_ratio",
            fed_deduped as f64 / (fed_released + fed_deduped).max(1) as f64,
            "share",
        ),
        (
            "feed.coordination_s",
            fed_wall - layer_self.as_secs_f64() * plain_wall / traced_wall,
            "s",
        ),
        (
            "feed.empty_poll_ratio",
            live.empty_polls as f64 / live.polls.max(1) as f64,
            "share",
        ),
        (
            "core.instructions_ns_per_record",
            per_update(iso.instructions, iso.records),
            "ns",
        ),
        (
            "monitor.ingest_ns_per_update",
            per_update(ingest.durations.iter().sum(), catch_counts.updates),
            "ns",
        ),
        (
            "monitor.drain_wait_s",
            get(&catch, "monitor.drain_events").total_s(),
            "s",
        ),
        (
            "monitor.single_shard_updates_per_s",
            one.updates as f64 / one_wall.as_secs_f64(),
            "updates/s",
        ),
        (
            "monitor.day_mark_ms",
            get(&all, "monitor.mark_day").median(1e-3),
            "ms",
        ),
        ("monitor.events", counts.events as f64, "count"),
        ("monitor.corroborations", corroborations as f64, "count"),
        (
            "history.append_ns_per_event",
            per_update(
                get(&all, "history.append").durations.iter().sum(),
                counts.events,
            ),
            "ns",
        ),
        (
            "history.publish_ms",
            get(&all, "history.mark_day").median(1e-3),
            "ms",
        ),
        (
            "history.bytes_written_per_event",
            io_written as f64 / catch_counts.events.max(1) as f64,
            "bytes",
        ),
        (
            "history.epoch_replay_ms",
            get(&all, "history.snapshot").median(1e-3),
            "ms",
        ),
        (
            "history.validity_build_us",
            get(&all, "history.validity").median(1e-6),
            "us",
        ),
        ("serve.respond_us.prefix", respond_p50(Class::Prefix), "us"),
        (
            "serve.respond_us.validity",
            respond_p50(Class::Validity),
            "us",
        ),
        (
            "serve.respond_us.conflicts",
            respond_p50(Class::Conflicts),
            "us",
        ),
        (
            "serve.respond_us.not_modified",
            respond_p50(Class::NotModified),
            "us",
        ),
        ("serve.respond_us.stats", respond_p50(Class::Stats), "us"),
        (
            "serve.wire_us",
            client_p50 - stats::median(&respond_all),
            "us",
        ),
        ("serve.cache_hit_ratio", cache_ratio, "share"),
        ("serve.requests", requests, "count"),
        ("serve.errors", errors, "count"),
        ("freshness_p95_ms", stats::percentile(&fresh, 0.95), "ms"),
        ("query_p50_us", stats::percentile(&lat, 0.5), "us"),
        ("query_p99_us", stats::percentile(&lat, 0.99), "us"),
        ("query_max_rate_qps", max_rate, "q/s"),
        ("gen.late_ms_p99", stats::percentile(&lateness, 0.99), "ms"),
        (
            "trace.overhead_pct",
            (traced_wall / plain_wall - 1.0) * 100.0,
            "%",
        ),
        ("trace.coverage_pct", cover * 100.0, "%"),
        (
            "error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "share",
        ),
    ];
    Ok((metrics, tally))
}

/// Writes every span as TSV (name, start_ns, end_ns, parent, trace)
/// under `.bench_trace/` in the working directory.
fn write_spans(tracer: &Tracer, stem: &str) -> std::io::Result<()> {
    use std::io::Write;
    let dir = Path::new(TRACE_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.tsv"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent\ttrace")?;
    for s in tracer.spans() {
        let parent = s.parent.map_or(-1, i64::from);
        writeln!(
            out,
            "{}\t{}\t{}\t{parent}\t{}",
            s.name,
            s.start.as_nanos(),
            s.end.as_nanos(),
            s.trace
        )?;
    }
    out.flush()?;
    println!(
        "spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

fn check_counts(tally: &mut Tally, counts: &Counts) {
    if counts.skipped > 0 {
        tally
            .notes
            .push(format!("decoder skipped {} records", counts.skipped));
    }
}

fn live_wall(tracer: &Tracer, from: usize) -> Duration {
    let spans = &tracer.spans()[from..];
    match (spans.first(), spans.iter().map(|s| s.end).max()) {
        (Some(a), Some(b)) => b - a.start,
        _ => Duration::ZERO,
    }
}

/// Replays the live phase's requests through `QueryService::respond`
/// on the final store, in order, publishing a new epoch (an empty day
/// mark past the tail) as often as the live phase saw one, so the
/// cache is invalidated at the live rate. Per class, the respond times
/// in µs.
fn replay_respond(
    w: &Workload,
    stack: &Stack,
    samples: &[Sample],
    seed: u64,
    targets: &client::Targets,
) -> std::io::Result<Vec<(Class, Vec<f64>)>> {
    let plan: Vec<client::Planned> = (0u32..)
        .flat_map(|k| run::segment_plan(w, seed, k, targets.keys.len()))
        .take(samples.len())
        .collect();
    let epochs: BTreeSet<u64> = samples.iter().filter_map(|s| s.epoch).collect();
    let per_epoch = (samples.len() / epochs.len().max(1)).max(1);
    let mut next_day = targets.days as usize;
    let mut etag: Option<String> = None;
    let mut out: Vec<(Class, Vec<f64>)> = Class::ALL.iter().map(|c| (*c, Vec::new())).collect();
    let mut tracer = Tracer::new(true);
    for (i, p) in plan.iter().enumerate() {
        if i % per_epoch == 0 {
            stack.service.mark_day(next_day)?;
            next_day += 1;
        }
        let target = targets.target(p);
        let mut head = format!("GET {target} HTTP/1.1\r\nhost: bench\r\n");
        if let (Class::NotModified, Some(tag)) = (p.class, &etag) {
            head.push_str(&format!("if-none-match: {tag}\r\n"));
        }
        head.push_str("\r\n");
        let Ok(req) = moas_serve::http::read_request(&mut head.as_bytes()) else {
            continue;
        };
        let resp = tracer.span("serve.respond", || stack.query.respond(&req));
        let span = tracer.spans().last().expect("span just recorded");
        let us = (span.end - span.start).as_secs_f64() * 1e6;
        if matches!(p.class, Class::Validity | Class::NotModified) && resp.status == 200 {
            etag = resp.etag.clone();
        }
        if let Some((_, v)) = out.iter_mut().find(|(c, _)| *c == p.class) {
            v.push(us);
        }
    }
    Ok(out)
}

/// Prints self time, share of wall and calls per layer and per span.
fn print_layer_table(aggs: &BTreeMap<&'static str, Agg>, wall: Duration, phase: &str) {
    let wall_s = wall.as_secs_f64().max(1e-9);
    println!("layers ({phase}, wall {wall_s:.3} s):");
    println!(
        "  {:<10} {:>10} {:>8} {:>10}",
        "layer", "self_s", "share", "calls"
    );
    let mut by_layer: BTreeMap<&str, (Duration, u64)> = BTreeMap::new();
    for (name, a) in aggs {
        let e = by_layer.entry(layer(name)).or_default();
        e.0 += a.self_time;
        e.1 += a.calls;
    }
    for l in [
        "mrt", "feed", "core", "monitor", "history", "serve", "driver",
    ] {
        let (t, n) = by_layer.get(l).copied().unwrap_or_default();
        println!(
            "  {:<10} {:>10.4} {:>7.1}% {:>10}",
            l,
            t.as_secs_f64(),
            t.as_secs_f64() / wall_s * 100.0,
            n
        );
    }
    for (name, a) in aggs {
        println!(
            "    {:<28} {:>10.4} {:>7.1}% {:>10}",
            name,
            a.self_time.as_secs_f64(),
            a.self_time.as_secs_f64() / wall_s * 100.0,
            a.calls
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_merges_overlaps() {
        let ms = Duration::from_millis;
        let spans = [
            Span {
                name: "a.x",
                start: ms(0),
                end: ms(10),
                parent: None,
                trace: 1,
            },
            Span {
                name: "b.y",
                start: ms(2),
                end: ms(6),
                parent: Some(0),
                trace: 1,
            },
            Span {
                name: "b.y",
                start: ms(12),
                end: ms(14),
                parent: None,
                trace: 2,
            },
        ];
        let agg = aggregate(&spans, 0..spans.len());
        assert_eq!(agg["a.x"].self_time, ms(6));
        assert_eq!(agg["b.y"].self_time, ms(6));
        assert_eq!(agg["b.y"].calls, 2);
        let c = coverage(&spans, ms(0), ms(20));
        assert!((c - 0.6).abs() < 1e-9, "{c}");
    }
}
