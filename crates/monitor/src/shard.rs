//! Shard workers: each owns a prefix-hash slice of the origin state.
//!
//! Workers consume batched route updates from a bounded channel
//! (blocking the producer when full — backpressure, not unbounded
//! queues), apply them to their [`ShardState`], log the lifecycle
//! events, and answer control messages: day marks (count the day's
//! per-AS conflict involvement and feed the embedded §VII new-origin
//! detector) and epoch queries (report the current MOAS set without
//! stopping ingestion).

use crate::event::{MonitorEvent, SeqEvent};
use crate::metrics::EngineMetrics;
use crate::state::{LiveConflict, RouteUpdate, ShardState};
use moas_core::detect::{DayObservation, PrefixConflict};
use moas_core::detector::{Anomaly, MoasMonitor};
use moas_net::{Asn, Date};
use moas_obs::SpanContext;
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};

/// Messages a shard worker consumes.
pub enum ShardMsg {
    /// A batch of route updates (per-prefix order preserved by the
    /// engine's routing), plus the ingest trace context captured when
    /// the engine flushed the batch — the shard's `shard_apply` span
    /// attaches there, so one trace id crosses the channel.
    Batch(Vec<RouteUpdate>, SpanContext),
    /// Day boundary: run the embedded new-origin detector over this
    /// shard's open conflicts, and reply with their per-AS
    /// involvement counts so the engine can aggregate them across
    /// shards for the §VII origin profiler.
    DayMark {
        /// Snapshot-day position in the study window.
        idx: usize,
        /// The calendar date of the day.
        date: Date,
        /// Where to send this shard's involvement counts for the day.
        involvement: mpsc::Sender<Vec<(Asn, u32)>>,
    },
    /// Epoch query: report the current open conflicts.
    Query(mpsc::Sender<ShardSnapshot>),
    /// Event drain: hand over (and clear) the event log accumulated
    /// since the last drain, so a downstream store can persist
    /// lifecycle events mid-stream instead of waiting for shutdown.
    Drain(mpsc::Sender<Vec<SeqEvent>>),
    /// Drain and exit.
    Shutdown,
}

/// A shard's answer to an epoch query.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Which shard answered.
    pub shard: usize,
    /// Updates this shard had applied when it answered — the shard's
    /// epoch. Monotonic; two queries bracketing an idle engine return
    /// equal epochs.
    pub epoch: u64,
    /// Conflicts open at the epoch (prefix order).
    pub open: Vec<LiveConflict>,
    /// Live routes held.
    pub routes: u64,
    /// Distinct prefixes held.
    pub prefixes: usize,
}

/// Everything a shard hands back when it shuts down.
#[derive(Debug)]
pub struct ShardOutput {
    /// Which shard this is.
    pub shard: usize,
    /// The shard's full event log (seq order).
    pub log: Vec<SeqEvent>,
    /// §VII alarms raised in-stream, tagged with the day position of
    /// the mark that triggered them.
    pub alarms: Vec<(usize, Anomaly)>,
    /// Final route count.
    pub routes: u64,
    /// Final distinct-prefix count.
    pub prefixes: usize,
    /// Withdrawals that matched no held route.
    pub spurious_withdrawals: u64,
}

/// Runs one shard worker until [`ShardMsg::Shutdown`].
///
/// The embedded [`MoasMonitor`] sees this shard's open conflicts at
/// each day mark — prefix-sharded, so its `NewOrigin` alarms are exact
/// at any shard count. Origin-surge profiling is *not* per-shard: each day mark
/// replies with this shard's involvement counts and the engine runs
/// one global [`moas_core::detector::OriginProfiler`] over their sum,
/// which makes surge alarms exactly match the batch profiler.
pub fn run_shard(
    shard: usize,
    rx: mpsc::Receiver<ShardMsg>,
    accept_after: u32,
    collectors: usize,
    metrics: Arc<EngineMetrics>,
) -> ShardOutput {
    let mut state = ShardState::with_collectors(collectors);
    let mut log: Vec<SeqEvent> = Vec::new();
    let mut alarms: Vec<(usize, Anomaly)> = Vec::new();
    let mut moas_monitor = MoasMonitor::new(accept_after);
    let mut seq: u64 = 0;
    let mut epoch: u64 = 0;
    // Retained-footprint gauge, refreshed on a coarse cadence:
    // approx_bytes walks the whole slice, so pricing it per batch
    // would tax the hot path.
    let state_bytes = metrics.registry().gauge_with(
        "moas_shard_state_bytes",
        &[("shard", &shard.to_string())],
        "Approximate retained bytes of one shard's origin state.",
    );
    let mut batches: u64 = 0;

    let emit = |log: &mut Vec<SeqEvent>, seq: &mut u64, events: Vec<MonitorEvent>| {
        EngineMetrics::add(&metrics.events_emitted, events.len() as u64);
        for event in events {
            log.push(SeqEvent {
                shard,
                seq: *seq,
                event,
            });
            *seq += 1;
        }
    };

    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch(updates, ctx) => {
                EngineMetrics::add(&metrics.updates_applied, updates.len() as u64);
                let started = std::time::Instant::now();
                for update in &updates {
                    let events = state.apply(update);
                    epoch += 1;
                    if !events.is_empty() {
                        emit(&mut log, &mut seq, events);
                    }
                }
                // One observation per batch, not per update: the
                // stage histogram prices the unit of work the channel
                // moves, and the hot path pays two atomic adds per
                // batch instead of per route.
                let elapsed = started.elapsed();
                metrics.stage_shard_apply.observe_duration(elapsed);
                metrics
                    .registry()
                    .tracer()
                    .record_stage(ctx, "shard_apply", elapsed);
                batches += 1;
                if batches % 64 == 1 {
                    state_bytes.set(state.approx_bytes());
                }
            }
            ShardMsg::DayMark {
                idx,
                date,
                involvement,
            } => {
                let open = state.open_conflicts();
                // Per-AS involvement over this shard's slice; counts
                // are integers, so the engine's cross-shard sum equals
                // `involvement_by_origin` over the merged day exactly.
                let mut counts: BTreeMap<Asn, u32> = BTreeMap::new();
                for c in &open {
                    for o in &c.origins {
                        *counts.entry(*o).or_default() += 1;
                    }
                }
                // A vanished engine is shutdown in progress, not a
                // shard failure.
                let _ = involvement.send(counts.into_iter().collect());
                // The new-origin detector reads only prefixes and origins.
                let obs = DayObservation {
                    date: Some(date),
                    conflicts: open
                        .into_iter()
                        .map(|c| PrefixConflict {
                            prefix: c.prefix,
                            origins: c.origins,
                            paths: Vec::new(),
                        })
                        .collect(),
                    ..DayObservation::default()
                };
                for a in moas_monitor.observe(&obs) {
                    alarms.push((idx, a));
                }
            }
            ShardMsg::Drain(reply) => {
                let _ = reply.send(std::mem::take(&mut log));
            }
            ShardMsg::Query(reply) => {
                EngineMetrics::add(&metrics.queries_served, 1);
                state_bytes.set(state.approx_bytes());
                // A disconnected requester is not a shard failure.
                let _ = reply.send(ShardSnapshot {
                    shard,
                    epoch,
                    open: state.open_conflicts(),
                    routes: state.route_count(),
                    prefixes: state.prefix_count(),
                });
            }
            ShardMsg::Shutdown => break,
        }
    }

    EngineMetrics::add(&metrics.spurious_withdrawals, state.spurious_withdrawals());

    ShardOutput {
        shard,
        log,
        alarms,
        routes: state.route_count(),
        prefixes: state.prefix_count(),
        spurious_withdrawals: state.spurious_withdrawals(),
    }
}
