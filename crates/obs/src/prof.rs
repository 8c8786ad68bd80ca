//! Continuous profiling: the thread-name registry, the per-thread CPU
//! ledger, and the wall-clock stage profiler.
//!
//! Three questions this module answers about a running deployment,
//! std-only and always-on:
//!
//! * **Where do the cycles go, by thread?** Every pipeline thread
//!   (shard workers, compaction daemon, server workers, feed
//!   thread, tsdb sampler) reports through the process-global
//!   thread-name registry ([`register_thread`]); the [`CpuLedger`]
//!   then walks `/proc/self/task/*/stat` on each sample and
//!   attributes utime+stime deltas to the registered names as
//!   `moas_thread_cpu_seconds_total{thread=...}`. Threads nobody
//!   registered pool under `thread="other"`, and the whole process
//!   (from `/proc/self/stat`, including already-reaped threads) is
//!   `moas_process_cpu_seconds_total` — so *coverage* is checkable:
//!   named threads should account for ~all process CPU.
//! * **Where does the wall-clock go, by stage?** The [`Profiler`]
//!   continuously drains the span ring ([`crate::trace::Tracer::drain_new`]),
//!   reassembles each trace's tree, and aggregates per-stage
//!   *self-time* (duration minus children) and *total-time* into a
//!   bounded time-bucketed ring. The folded rendering
//!   ([`Profiler::folded`]) is the `stack;frames weight` format
//!   flamegraph.pl consumes directly, weighted by self-time in
//!   microseconds; self-time is conserved (children never
//!   double-count their parents), so per-stage totals reconcile with
//!   the `moas_stage_duration_us` histograms the stages record
//!   independently.
//! * **Is the profiler itself healthy?** Ring overruns between drains
//!   are counted on `moas_profile_spans_dropped_total`, and profiler
//!   start/stop land in the registry journal so they surface in
//!   `/v1/events/log` and the SSE tail like any operational event.
//!
//! Everything degrades gracefully off Linux: without `/proc` the CPU
//! ledger records nothing and registration is a no-op — the wall-clock
//! profiler is OS-independent.

use crate::registry::{Counter, Registry};
use crate::trace::SpanRecord;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

/// Kernel clock-tick rate `/proc` CPU fields are reported in. Linux
/// has exposed `USER_HZ = 100` to userspace since 2.6 regardless of
/// the kernel's internal HZ; with no libc available to ask
/// `sysconf(_SC_CLK_TCK)`, the constant is assumed (and verified on
/// the build machines: `getconf CLK_TCK` → 100).
const USER_HZ: u64 = 100;

/// Microseconds per `/proc` clock tick.
const TICK_US: u64 = 1_000_000 / USER_HZ;

fn thread_names() -> &'static Mutex<HashMap<u64, String>> {
    static NAMES: OnceLock<Mutex<HashMap<u64, String>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The calling thread's kernel task id, from `/proc/thread-self`
/// (std-only; `gettid` needs libc). `None` off Linux.
fn current_tid() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    stat.split(' ').next()?.parse().ok()
}

/// A thread's registration in the process-global name registry;
/// deregisters on drop, so a pool that respawns workers never leaks
/// stale tid → name entries.
#[must_use = "dropping the registration immediately unregisters the thread"]
pub struct ThreadRegistration {
    tid: Option<u64>,
}

impl Drop for ThreadRegistration {
    fn drop(&mut self) {
        if let Some(tid) = self.tid {
            thread_names()
                .lock()
                .expect("thread registry poisoned")
                .remove(&tid);
        }
    }
}

/// Registers the calling thread under its `std::thread` name — the
/// first line of every named pipeline thread
/// (`std::thread::Builder::new().name(...)` spawns report through
/// here). Unnamed threads register as `unnamed`.
pub fn register_thread() -> ThreadRegistration {
    let name = std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_string();
    register_thread_as(&name)
}

/// Registers the calling thread under an explicit name — for scoped
/// pool threads and test harness threads whose `std::thread` name is
/// not the one the CPU ledger should attribute to.
pub fn register_thread_as(name: &str) -> ThreadRegistration {
    let tid = current_tid();
    if let Some(tid) = tid {
        thread_names()
            .lock()
            .expect("thread registry poisoned")
            .insert(tid, name.to_string());
    }
    ThreadRegistration { tid }
}

/// Currently registered `(tid, name)` pairs, sorted by tid.
pub fn registered_threads() -> Vec<(u64, String)> {
    let mut v: Vec<(u64, String)> = thread_names()
        .lock()
        .expect("thread registry poisoned")
        .iter()
        .map(|(&t, n)| (t, n.clone()))
        .collect();
    v.sort();
    v
}

/// Sum of utime+stime in microseconds from one `/proc/.../stat` line.
/// The comm field is parenthesized and may itself contain spaces or
/// parens, so fields are counted from after the *last* `)`: state is
/// field 3 (token 0 of the tail), utime field 14 (token 11), stime
/// field 15 (token 12).
fn stat_cpu_micros(stat: &str) -> Option<u64> {
    let tail = &stat[stat.rfind(')')? + 1..];
    let mut tokens = tail.split_ascii_whitespace();
    let utime: u64 = tokens.nth(11)?.parse().ok()?;
    let stime: u64 = tokens.next()?.parse().ok()?;
    Some((utime + stime) * TICK_US)
}

/// The per-thread CPU sampler: attributes `/proc/self/task/*/stat`
/// utime+stime deltas to registered thread names. See the module
/// docs.
pub struct CpuLedger {
    registry: Arc<Registry>,
    inner: Mutex<CpuInner>,
}

#[derive(Default)]
struct CpuInner {
    /// Last sampled cumulative CPU per live tid, microseconds.
    last: HashMap<u64, u64>,
    /// Last sampled process-wide cumulative CPU, microseconds.
    last_process: u64,
}

impl CpuLedger {
    /// A ledger recording onto `registry`. The process-total series is
    /// registered eagerly so a scrape before the first sample still
    /// shows the family.
    pub fn new(registry: Arc<Registry>) -> Self {
        registry.seconds_counter_with(
            "moas_process_cpu_seconds_total",
            &[],
            "Whole-process CPU time (utime+stime, all threads ever).",
        );
        CpuLedger {
            registry,
            inner: Mutex::new(CpuInner::default()),
        }
    }

    /// Takes one sample: reads every task's cumulative CPU, adds the
    /// delta since the previous sample to the owning thread's series
    /// (`thread="other"` for unregistered tids), prunes dead tids, and
    /// advances the process-total series. Returns the number of tasks
    /// seen (0 off Linux — the sample is then a no-op).
    pub fn sample(&self) -> usize {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return 0;
        };
        let names = thread_names()
            .lock()
            .expect("thread registry poisoned")
            .clone();
        let mut inner = self.inner.lock().expect("cpu ledger poisoned");
        let mut seen: HashMap<u64, u64> = HashMap::with_capacity(inner.last.len() + 4);
        let mut sampled = 0usize;
        for entry in tasks.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
                continue; // the task exited mid-scan
            };
            let Some(total_us) = stat_cpu_micros(&stat) else {
                continue;
            };
            sampled += 1;
            let prev = inner.last.get(&tid).copied().unwrap_or(0);
            seen.insert(tid, total_us);
            let delta = total_us.saturating_sub(prev);
            if delta == 0 {
                continue;
            }
            let label = names.get(&tid).map(String::as_str).unwrap_or("other");
            self.registry
                .seconds_counter_with(
                    "moas_thread_cpu_seconds_total",
                    &[("thread", label)],
                    "Per-thread CPU time attributed to named pipeline threads.",
                )
                .add(delta);
        }
        // Dead tids drop out of `last`; their already-attributed time
        // stays on the counters, and anything they burned between the
        // final sample and exit shows up only in the process total.
        inner.last = seen;

        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            if let Some(total_us) = stat_cpu_micros(&stat) {
                let delta = total_us.saturating_sub(inner.last_process);
                inner.last_process = total_us;
                if delta > 0 {
                    self.registry
                        .seconds_counter_with(
                            "moas_process_cpu_seconds_total",
                            &[],
                            "Whole-process CPU time (utime+stime, all threads ever).",
                        )
                        .add(delta);
                }
            }
        }
        sampled
    }
}

/// Default profile ring slot width, seconds (matches the tsdb fine
/// tier, so `range=` means the same thing on both surfaces).
pub const DEFAULT_PROFILE_SLOT_SECS: u64 = 10;
/// Default profile ring slot count (one hour at 10 s slots).
pub const DEFAULT_PROFILE_SLOTS: usize = 360;
/// Collection ticks a rootless trace may wait for its remaining spans
/// before being folded as-is. Roots are pushed last (guard drop
/// order), so one tick normally suffices; stragglers come from
/// daemon-side children recorded after their ingest root closed.
const PENDING_MAX_TICKS: u32 = 3;

/// Per-stage wall-clock aggregate over a queried window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Microseconds spent in the stage itself (children excluded).
    pub self_us: u64,
    /// Microseconds spent in the stage including its children.
    pub total_us: u64,
    /// Spans aggregated.
    pub count: u64,
}

/// One time bucket of aggregated profile data.
struct ProfSlot {
    bucket: u64,
    /// Folded stack (`root;child;leaf`) → self-time microseconds.
    stacks: BTreeMap<String, u64>,
    /// Stage name → aggregate.
    stages: BTreeMap<String, StageProfile>,
}

struct ProfInner {
    cursor: u64,
    pending: HashMap<u64, PendingTrace>,
    slots: Vec<Option<ProfSlot>>,
}

#[derive(Default)]
struct PendingTrace {
    spans: Vec<SpanRecord>,
    ticks: u32,
}

/// The continuous wall-clock profiler over the registry's span ring.
/// See the module docs.
pub struct Profiler {
    registry: Arc<Registry>,
    slot_secs: u64,
    dropped: Counter,
    inner: Mutex<ProfInner>,
}

impl Profiler {
    /// A profiler with the default one-hour ring, journaling its start
    /// into the registry's event journal.
    pub fn new(registry: Arc<Registry>) -> Self {
        Profiler::with_geometry(registry, DEFAULT_PROFILE_SLOT_SECS, DEFAULT_PROFILE_SLOTS)
    }

    /// A profiler whose ring holds `slots` buckets of `slot_secs`
    /// seconds each.
    pub fn with_geometry(registry: Arc<Registry>, slot_secs: u64, slots: usize) -> Self {
        let dropped = registry.counter(
            "moas_profile_spans_dropped_total",
            "Spans overwritten in the trace ring before the profiler drained them.",
        );
        registry.journal().record(
            "profiler_started",
            format!(
                "continuous profiler started ({}s x {} slots)",
                slot_secs.max(1),
                slots.max(1)
            ),
        );
        Profiler {
            registry,
            slot_secs: slot_secs.max(1),
            dropped,
            inner: Mutex::new(ProfInner {
                cursor: 0,
                pending: HashMap::new(),
                slots: (0..slots.max(1)).map(|_| None).collect(),
            }),
        }
    }

    /// Spans lost to ring overruns between collections.
    pub fn spans_dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Drains new spans from the trace ring and folds completed
    /// traces into the profile. Call on the sampling cadence (and
    /// before rendering); idempotent when nothing new was recorded.
    pub fn collect(&self) {
        let from = self.inner.lock().expect("profiler poisoned").cursor;
        let (spans, cursor, missed) = self.registry.tracer().drain_new(from);
        if missed > 0 {
            self.dropped.add(missed);
        }
        let mut inner = self.inner.lock().expect("profiler poisoned");
        inner.cursor = cursor;
        // Root spans are pushed last (guard drop order), so a root's
        // arrival completes its trace.
        let mut completed: Vec<u64> = Vec::new();
        for span in spans {
            let trace = span.trace;
            let is_root = span.parent == 0;
            inner.pending.entry(trace).or_default().spans.push(span);
            if is_root {
                completed.push(trace);
            }
        }
        let mut folds: Vec<Vec<SpanRecord>> = Vec::with_capacity(completed.len());
        for trace in completed {
            if let Some(p) = inner.pending.remove(&trace) {
                folds.push(p.spans);
            }
        }
        // Stragglers (children journaled after their root closed, or
        // roots lost to a ring overrun) are folded as-is once they
        // stop growing, so their time is attributed rather than held
        // forever.
        let mut expired: Vec<u64> = Vec::new();
        for (&trace, p) in inner.pending.iter_mut() {
            p.ticks += 1;
            if p.ticks > PENDING_MAX_TICKS {
                expired.push(trace);
            }
        }
        for trace in expired {
            if let Some(p) = inner.pending.remove(&trace) {
                folds.push(p.spans);
            }
        }
        let slot_secs = self.slot_secs;
        for spans in folds {
            Self::fold_trace(&mut inner.slots, slot_secs, &spans);
        }
    }

    /// Folds one trace's spans into the bucketed aggregates:
    /// self-time = duration − Σ(direct children), stack = stage names
    /// from the root down (orphaned spans start their stack at
    /// themselves, so their time still lands under their own stage).
    fn fold_trace(slots: &mut [Option<ProfSlot>], slot_secs: u64, spans: &[SpanRecord]) {
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span, s)).collect();
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            if s.parent != 0 {
                *child_us.entry(s.parent).or_default() += s.duration_us;
            }
        }
        for s in spans {
            let self_us = s
                .duration_us
                .saturating_sub(child_us.get(&s.span).copied().unwrap_or(0));
            // Stack root→leaf; parent chain capped in case a recycled
            // ring ever produced a cycle.
            let mut names: Vec<&str> = vec![s.name];
            let mut cursor = s;
            for _ in 0..32 {
                let Some(parent) = by_id.get(&cursor.parent) else {
                    break;
                };
                names.push(parent.name);
                cursor = parent;
            }
            names.reverse();
            let stack = names.join(";");

            let bucket = (s.start_unix_us / 1_000_000) / slot_secs;
            let idx = (bucket % slots.len() as u64) as usize;
            let slot = match &mut slots[idx] {
                Some(slot) if slot.bucket == bucket => slot,
                other => {
                    *other = Some(ProfSlot {
                        bucket,
                        stacks: BTreeMap::new(),
                        stages: BTreeMap::new(),
                    });
                    other.as_mut().expect("just set")
                }
            };
            if self_us > 0 {
                *slot.stacks.entry(stack).or_default() += self_us;
            }
            let agg = slot.stages.entry(s.name.to_string()).or_default();
            agg.self_us += self_us;
            agg.total_us += s.duration_us;
            agg.count += 1;
        }
    }

    /// Per-stage profiles over the window `[now - range_secs, now]`,
    /// sorted by stage name.
    pub fn stages(&self, range_secs: u64, now_unix: u64) -> Vec<(String, StageProfile)> {
        let inner = self.inner.lock().expect("profiler poisoned");
        let mut out: BTreeMap<String, StageProfile> = BTreeMap::new();
        for slot in self.window(&inner, range_secs, now_unix) {
            for (name, agg) in &slot.stages {
                let e = out.entry(name.clone()).or_default();
                e.self_us += agg.self_us;
                e.total_us += agg.total_us;
                e.count += agg.count;
            }
        }
        out.into_iter().collect()
    }

    /// The folded-stack rendering of the window — one
    /// `stage;child;leaf weight` line per distinct stack, weighted by
    /// self-time in microseconds. Feed directly to `flamegraph.pl`.
    pub fn folded(&self, range_secs: u64, now_unix: u64) -> String {
        let inner = self.inner.lock().expect("profiler poisoned");
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for slot in self.window(&inner, range_secs, now_unix) {
            for (stack, us) in &slot.stacks {
                *merged.entry(stack.clone()).or_default() += us;
            }
        }
        let mut out = String::with_capacity(merged.len() * 48);
        for (stack, us) in merged {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&us.to_string());
            out.push('\n');
        }
        out
    }

    fn window<'a>(
        &self,
        inner: &'a ProfInner,
        range_secs: u64,
        now_unix: u64,
    ) -> impl Iterator<Item = &'a ProfSlot> {
        let from = now_unix.saturating_sub(range_secs);
        let slot_secs = self.slot_secs;
        inner.slots.iter().flatten().filter(move |slot| {
            let ts = slot.bucket * slot_secs;
            ts + slot_secs > from && ts <= now_unix
        })
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.registry
            .journal()
            .record("profiler_stopped", "continuous profiler stopped");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stat_parsing_survives_hostile_comm_fields() {
        // comm may contain spaces and parens; fields count from the
        // LAST ')'. utime=7 ticks, stime=3 ticks → 100ms total.
        let stat = "123 (weird) (name) S 1 2 3 4 5 6 7 8 9 10 7 3 0 0 20";
        assert_eq!(stat_cpu_micros(stat), Some((7 + 3) * TICK_US));
        assert_eq!(stat_cpu_micros("garbage"), None);
    }

    #[test]
    fn thread_registration_round_trips_and_unregisters_on_drop() {
        if current_tid().is_none() {
            return; // not a /proc platform
        }
        let before = registered_threads().len();
        {
            let _guard = register_thread_as("prof-test-thread");
            let names = registered_threads();
            assert!(names.iter().any(|(_, n)| n == "prof-test-thread"));
            assert_eq!(names.len(), before + 1);
        }
        assert_eq!(registered_threads().len(), before);
    }

    #[test]
    fn cpu_ledger_attributes_a_spinning_named_thread() {
        let registry = Arc::new(Registry::new());
        let ledger = CpuLedger::new(Arc::clone(&registry));
        if ledger.sample() == 0 {
            return; // not a /proc platform
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let spinner = std::thread::Builder::new()
            .name("prof-spinner".into())
            .spawn(move || {
                let _reg = register_thread();
                let mut x = 0u64;
                while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    std::hint::black_box(x);
                }
            })
            .unwrap();
        // Burn well past one scheduler tick so utime moves.
        std::thread::sleep(Duration::from_millis(120));
        ledger.sample();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        spinner.join().unwrap();
        let spun = registry
            .value(
                "moas_thread_cpu_seconds_total",
                &[("thread", "prof-spinner")],
            )
            .unwrap_or(0);
        assert!(spun > 0, "spinner CPU must be attributed, got {spun}us");
        let process = registry
            .value("moas_process_cpu_seconds_total", &[])
            .unwrap_or(0);
        assert!(process >= spun, "process total covers the spinner");
    }

    #[test]
    fn profiler_folds_traces_with_self_time_conservation() {
        let registry = Arc::new(Registry::new());
        let profiler = Profiler::with_geometry(Arc::clone(&registry), 10, 8);
        let tracer = registry.tracer();
        let root = tracer.span("feed_poll");
        let ctx = root.context();
        tracer.record_child(ctx, "mrt_decode", Duration::from_micros(700));
        tracer.record_child(ctx, "shard_apply", Duration::from_micros(200));
        drop(root); // root pushed last; total duration ≥ children
        profiler.collect();
        let now = crate::tsdb::unix_now();
        let stages = profiler.stages(3_600, now);
        let get = |name: &str| {
            stages
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, a)| *a)
                .unwrap_or_default()
        };
        let decode = get("mrt_decode");
        assert_eq!(
            (decode.self_us, decode.total_us, decode.count),
            (700, 700, 1)
        );
        let poll = get("feed_poll");
        assert_eq!(poll.count, 1);
        assert_eq!(
            poll.self_us,
            poll.total_us.saturating_sub(900),
            "root self-time excludes both children"
        );
        let folded = profiler.folded(3_600, now);
        assert!(folded.contains("feed_poll;mrt_decode 700"), "{folded}");
        assert!(folded.contains("feed_poll;shard_apply 200"), "{folded}");
        // Every line parses as `stack weight` — the flamegraph.pl
        // contract.
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("folded line shape");
            assert!(!stack.is_empty());
            weight.parse::<u64>().expect("numeric weight");
        }
    }

    #[test]
    fn profiler_journals_start_and_stop() {
        let registry = Arc::new(Registry::new());
        {
            let _p = Profiler::new(Arc::clone(&registry));
            let kinds: Vec<String> = registry
                .journal()
                .events()
                .into_iter()
                .map(|e| e.kind)
                .collect();
            assert!(kinds.contains(&"profiler_started".to_string()));
        }
        let kinds: Vec<String> = registry
            .journal()
            .events()
            .into_iter()
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&"profiler_stopped".to_string()));
    }

    #[test]
    fn orphaned_spans_fold_after_the_pending_ttl() {
        let registry = Arc::new(Registry::new());
        let profiler = Profiler::with_geometry(Arc::clone(&registry), 10, 8);
        let tracer = registry.tracer();
        let root = tracer.span("request");
        let ctx = root.context();
        tracer.record_child(ctx, "request_route", Duration::from_micros(50));
        // Root never finishes before the drains: the child must still
        // be attributed once its trace expires from pending.
        for _ in 0..=PENDING_MAX_TICKS {
            profiler.collect();
        }
        let now = crate::tsdb::unix_now();
        let stages = profiler.stages(3_600, now);
        let route = stages.iter().find(|(n, _)| n == "request_route");
        assert!(route.is_some(), "orphan folded: {stages:?}");
        root.finish();
    }
}
