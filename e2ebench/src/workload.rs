//! The three workloads: an archive shape plus the live schedule.

use crate::gen::Shape;
use std::time::Duration;

/// A workload: what is generated and how it is landed and queried.
pub struct Workload {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Archive shape.
    pub shape: Shape,
    /// Time between two tail file slots landing (all collectors' files
    /// of a slot land together).
    pub slot_period: Duration,
    /// Fixed open-loop query rate while the tail lands, in q/s.
    pub base_rate: f64,
    /// Timed catch-up passes (after the untimed warm-up pass) in a
    /// 30-second run; other run lengths scale it.
    pub timed_passes: u32,
}

/// The rate ladder, in q/s: `LADDER_BASE * 2^(k/16)` for `k` in
/// `0..=LADDER_TOP`. It runs in the traced run, once the tail has
/// landed. A coarse pass
/// climbs one octave at a time until a step fails, then bisection finds
/// the highest passing rung between the last pass and that failure.
/// A step fails when its p99 misses [`P99_LIMIT_US`] or its last tenth
/// of requests runs that late at the median (a growing backlog).
pub const LADDER_BASE: f64 = 1_000.0;

/// Rungs per octave.
pub const RUNGS_PER_OCTAVE: u32 = 16;

/// Highest rung index (1000 q/s × 2^6 = 64000 q/s).
pub const LADDER_TOP: u32 = 6 * RUNGS_PER_OCTAVE;

/// The rate of rung `k`.
pub fn rung(k: u32) -> f64 {
    (LADDER_BASE * 2f64.powf(k as f64 / RUNGS_PER_OCTAVE as f64)).round()
}

/// Duration of one ladder step: at least 1000 requests, so its p99 has
/// ten samples beyond it.
pub const STEP: Duration = Duration::from_millis(500);

/// The latency limit a ladder step's p99 must stay under.
pub const P99_LIMIT_US: f64 = 10_000.0;

/// Monitor shards and server workers, fixed so results compare across
/// machines with different core counts.
pub const SHARDS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Client connections (and client threads).
pub const CONNECTIONS: usize = 2;

impl Workload {
    /// Length of one tail day's landing schedule.
    pub fn day_period(&self) -> Duration {
        self.slot_period * self.shape.tail_files_per_day
    }

    /// Tail days whose closes are freshness samples: every tail day but
    /// the last, which lands only to close the one before it.
    pub fn freshness_days(&self) -> u32 {
        self.shape.tail_days - 1
    }

    /// The live phase: every tail day's landing schedule.
    pub fn live_duration(&self) -> Duration {
        self.day_period() * self.shape.tail_days
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    vec![catchup_table(), catchup_federated(), live_query()]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// One collector, a large table in a few large files: decode, route
/// extraction and shard apply do the work; dedup never drops anything.
fn catchup_table() -> Workload {
    Workload {
        name: "catchup-table",
        shape: Shape {
            prefixes: 250_000,
            block: 4,
            sessions: 16,
            moas_share: 0.01,
            withdraw_share: 0.10,
            as_set_share: 0.002,
            skew_secs: vec![0],
            hidden_share: 0.0,
            backlog_files: 20,
            backlog_records_per_file: 20_000,
            backlog_file_secs: 900,
            tail_days: 201,
            tail_files_per_day: 1,
            tail_records_per_file: 200,
        },
        slot_period: Duration::from_millis(70),
        base_rate: 1_000.0,
        timed_passes: 3,
    }
}

/// Three collectors carrying one stream with clock skew and partial
/// visibility, in many small files: two thirds of the input are
/// duplicates and per-file costs come 5x more often.
fn catchup_federated() -> Workload {
    Workload {
        name: "catchup-federated",
        shape: Shape {
            prefixes: 200_000,
            block: 4,
            sessions: 16,
            moas_share: 0.01,
            withdraw_share: 0.10,
            as_set_share: 0.002,
            skew_secs: vec![0, 25, -35],
            hidden_share: 0.03,
            backlog_files: 60,
            backlog_records_per_file: 4_000,
            backlog_file_secs: 300,
            tail_days: 201,
            tail_files_per_day: 1,
            tail_records_per_file: 100,
        },
        slot_period: Duration::from_millis(70),
        base_rate: 1_000.0,
        timed_passes: 2,
    }
}

/// A small table taking files on a fixed schedule, with many short
/// days, while one open-loop client queries it: publish, epoch replay,
/// cache invalidation, validity scoring and HTTP do the work.
fn live_query() -> Workload {
    Workload {
        name: "live-query",
        shape: Shape {
            prefixes: 20_000,
            block: 4,
            sessions: 16,
            moas_share: 0.10,
            withdraw_share: 0.10,
            as_set_share: 0.002,
            skew_secs: vec![0],
            hidden_share: 0.0,
            backlog_files: 16,
            backlog_records_per_file: 5_000,
            backlog_file_secs: 900,
            tail_days: 201,
            tail_files_per_day: 2,
            tail_records_per_file: 100,
        },
        slot_period: Duration::from_millis(30),
        base_rate: 1_000.0,
        timed_passes: 20,
    }
}
