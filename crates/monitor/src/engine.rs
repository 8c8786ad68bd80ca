//! The engine: shard workers, update routing, batching, day marks.
//!
//! The ingest thread decodes BGP4MP records into route-level updates,
//! routes each by prefix hash to its owning shard, and flushes
//! per-shard batches over bounded channels (a full channel blocks the
//! producer — backpressure instead of unbounded memory). A prefix
//! always lands on the same shard, so per-prefix update order — the
//! only order conflict lifecycles depend on — is preserved no matter
//! how many shards run.

use crate::event::{sort_log, SeqEvent};
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::query::{MoasSnapshot, MonitorReport};
use crate::shard::{run_shard, DaySlice, ShardMsg, ShardOutput, ShardSnapshot};
use crate::state::{RouteUpdate, SessionKey, UpdateAction};
use moas_bgp::BgpMessage;
use moas_bgp::TableSnapshot;
use moas_core::detector::{Anomaly, OriginProfiler, ProfilerConfig};
use moas_core::replay::{record_instructions, RouteInstruction};
use moas_mrt::record::{MrtBody, MrtRecord};
use moas_net::{Asn, Date, Origin, Prefix};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// What a copy of one MRT record corroborates: its peer session and
/// every announced `(prefix, origin)` pair whose AS path ends in a
/// single origin — the announce instructions of
/// [`moas_core::replay::record_instructions`] with a
/// [`moas_net::Origin::Single`] origin, without building their routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sighting {
    /// The peer session the record belongs to.
    pub session: SessionKey,
    /// Announced prefixes with their single origin.
    pub announced: Vec<(Prefix, Asn)>,
}

impl Sighting {
    /// The sighting `record` carries; `None` for anything that is not
    /// a BGP4MP UPDATE.
    pub fn of(record: &MrtRecord) -> Option<Sighting> {
        let MrtBody::Bgp4mpMessage(m) = &record.body else {
            return None;
        };
        let BgpMessage::Update(u) = &m.message else {
            return None;
        };
        let announced = match u.attrs.as_path.as_ref().map(|p| p.origin()) {
            Some(Origin::Single(origin)) => {
                u.all_announced().into_iter().map(|p| (p, origin)).collect()
            }
            _ => Vec::new(),
        };
        Some(Sighting {
            session: (m.header.peer_addr, m.header.peer_as),
            announced,
        })
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Worker shard count (≥ 1).
    pub shards: usize,
    /// Bounded channel capacity, in batches, per shard.
    pub queue_capacity: usize,
    /// Route updates per batch before a flush.
    pub batch_size: usize,
    /// Config for each shard's embedded origin profiler (§VII).
    pub profiler: ProfilerConfig,
    /// Days a new origin must persist before the embedded
    /// [`moas_core::detector::MoasMonitor`] auto-accepts it.
    pub accept_after: u32,
    /// Vantage points feeding this engine. 1 (the default) keeps the
    /// single-collector behavior bit-for-bit: no vantage masks are
    /// tracked and no [`crate::event::MonitorEvent::OriginCorroborated`]
    /// events are emitted. A federation sets its collector count here
    /// (capped at 64 — masks are `u64` bitsets).
    pub collectors: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            shards: 4,
            queue_capacity: 64,
            batch_size: 256,
            profiler: ProfilerConfig::default(),
            accept_after: 2,
            collectors: 1,
        }
    }
}

impl MonitorConfig {
    /// A config with the given shard count and defaults otherwise.
    pub fn with_shards(shards: usize) -> Self {
        MonitorConfig {
            shards,
            ..MonitorConfig::default()
        }
    }
}

/// The online sharded MOAS monitor.
///
/// Feed it BGP4MP update records ([`MonitorEngine::ingest_record`]) or
/// whole table snapshots ([`MonitorEngine::seed_snapshot`]); mark day
/// boundaries ([`MonitorEngine::mark_day`]) to take per-day
/// observations in-stream; query the live MOAS set at any point
/// ([`MonitorEngine::snapshot`]); and [`MonitorEngine::finish`] to
/// join the workers and collect the full [`MonitorReport`].
pub struct MonitorEngine {
    config: MonitorConfig,
    senders: Vec<mpsc::SyncSender<ShardMsg>>,
    handles: Vec<JoinHandle<ShardOutput>>,
    pending: Vec<Vec<RouteUpdate>>,
    metrics: Arc<EngineMetrics>,
    /// The global §VII origin profiler. Each day mark merges every
    /// shard's involvement counts before this profiler sees the day,
    /// so its surge alarms exactly match the batch profiler run over
    /// the merged day observation (per-shard baselines would not).
    profiler: OriginProfiler,
    /// Surge alarms the global profiler raised, tagged with day
    /// position.
    surge_alarms: Vec<(usize, Anomaly)>,
}

impl MonitorEngine {
    /// Spawns the shard workers on a private metric registry.
    pub fn new(config: MonitorConfig) -> Self {
        Self::with_registry(config, Arc::new(moas_obs::Registry::new()))
    }

    /// Spawns the shard workers with every engine metric registered on
    /// `registry` — the deployment path, where the history store, feed
    /// follower, and query server share the same registry so one
    /// scrape covers the whole pipeline.
    pub fn with_registry(config: MonitorConfig, registry: Arc<moas_obs::Registry>) -> Self {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.batch_size >= 1, "need a positive batch size");
        assert!(
            (1..=64).contains(&config.collectors),
            "collectors must be in 1..=64 (vantage masks are u64 bitsets)"
        );
        let metrics = Arc::new(EngineMetrics::new(&registry));
        let mut senders = Vec::with_capacity(config.shards);
        let mut handles = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (tx, rx) = mpsc::sync_channel(config.queue_capacity.max(1));
            let m = Arc::clone(&metrics);
            let accept_after = config.accept_after;
            let collectors = config.collectors;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("moas-shard-{shard}"))
                    .spawn(move || {
                        let _registered = moas_obs::prof::register_thread();
                        run_shard(shard, rx, accept_after, collectors, m)
                    })
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }
        MonitorEngine {
            pending: vec![Vec::new(); config.shards],
            profiler: OriginProfiler::new(config.profiler),
            surge_alarms: Vec::new(),
            config,
            senders,
            handles,
            metrics,
        }
    }

    /// The engine's config.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// A point-in-time copy of the engine counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The shared counter block itself. A downstream consumer (the
    /// history store) holds this to publish its own store-side
    /// counters through the same [`MetricsSnapshot`] the report
    /// carries.
    pub fn metrics_handle(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.metrics)
    }

    fn shard_of(&self, prefix: &Prefix) -> usize {
        let mut h = DefaultHasher::new();
        prefix.hash(&mut h);
        (h.finish() % self.config.shards as u64) as usize
    }

    fn route(&mut self, update: RouteUpdate) {
        let shard = self.shard_of(&update.prefix);
        EngineMetrics::add(&self.metrics.updates_routed, 1);
        self.pending[shard].push(update);
        if self.pending[shard].len() >= self.config.batch_size {
            self.flush_shard(shard);
        }
    }

    fn flush_shard(&mut self, shard: usize) {
        if self.pending[shard].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending[shard]);
        EngineMetrics::add(&self.metrics.batches_sent, 1);
        // Capture the ambient ingest trace context at flush time so
        // the shard's apply span joins the trace of the poll pass
        // that filled (most of) the batch.
        let ctx = self.metrics.registry().tracer().current();
        self.senders[shard]
            .send(ShardMsg::Batch(batch, ctx))
            .expect("shard worker alive");
    }

    /// Flushes every pending batch to its shard.
    pub fn flush(&mut self) {
        for shard in 0..self.config.shards {
            self.flush_shard(shard);
        }
    }

    /// Seeds state from a full table snapshot, as if every entry were
    /// announced at `at` — the streaming equivalent of
    /// `StreamReplayer::seed`.
    pub fn seed_snapshot(&mut self, snap: &TableSnapshot, at: u32) {
        for e in &snap.entries {
            let peer = &snap.peers[e.peer_idx as usize];
            self.route(RouteUpdate {
                session: (peer.addr, peer.asn),
                prefix: e.route.prefix,
                action: UpdateAction::Announce(e.route.path.clone()),
                at,
                collector: 0,
            });
        }
    }

    /// Ingests one MRT record as seen from collector 0.
    pub fn ingest_record(&mut self, record: &MrtRecord) {
        self.ingest_record_from(0, record);
    }

    /// Ingests one MRT record observed by `collector`. BGP4MP UPDATEs
    /// mutate state; everything else is counted and skipped, like the
    /// batch reader's fault tolerance. What a record *means* at the
    /// route level comes from
    /// [`moas_core::replay::record_instructions`] — the same
    /// definition the batch replayer applies, so the two pipelines
    /// cannot drift.
    pub fn ingest_record_from(&mut self, collector: u16, record: &MrtRecord) {
        EngineMetrics::add(&self.metrics.records_ingested, 1);
        let Some((session, instructions)) = record_instructions(record) else {
            EngineMetrics::add(&self.metrics.records_skipped, 1);
            return;
        };
        let session: SessionKey = session;
        for instruction in instructions {
            let (prefix, action) = match instruction {
                RouteInstruction::Withdraw { prefix } => (prefix, UpdateAction::Withdraw),
                RouteInstruction::Announce { prefix, route } => {
                    (prefix, UpdateAction::Announce(route.path))
                }
            };
            self.route(RouteUpdate {
                session,
                prefix,
                action,
                at: record.timestamp,
                collector,
            });
        }
    }

    /// Registers a deduplicated cross-collector sighting: `collector`
    /// saw an identical copy of a record another collector already
    /// delivered. Route state is untouched; only the vantage masks of
    /// the record's announced origins widen. Withdraw instructions
    /// carry no origin and are dropped. Rides the normal prefix-routed
    /// batch channel, so per-prefix ordering against real updates is
    /// preserved.
    pub fn corroborate_record(&mut self, collector: u16, record: &MrtRecord) {
        if let Some(sighting) = Sighting::of(record) {
            self.corroborate_at(collector, &sighting, record.timestamp);
        }
    }

    /// [`MonitorEngine::corroborate_record`] for a copy that was never
    /// decoded: `collector` saw, at its own timestamp `at`, the update
    /// `sighting` was taken from.
    pub fn corroborate_at(&mut self, collector: u16, sighting: &Sighting, at: u32) {
        for &(prefix, origin) in &sighting.announced {
            self.route(RouteUpdate {
                session: sighting.session,
                prefix,
                action: UpdateAction::Corroborate(origin),
                at,
                collector,
            });
        }
    }

    /// Ingests a whole record stream in order.
    pub fn ingest_all<'a, I: IntoIterator<Item = &'a MrtRecord>>(&mut self, records: I) {
        for r in records {
            self.ingest_record(r);
        }
    }

    /// Marks a day boundary: flushes all pending updates, asks every
    /// shard to snapshot its slice for day position `idx` and run its
    /// embedded new-origin detector over it, then aggregates the
    /// shards' per-AS involvement counts and feeds the merged day to
    /// the global §VII origin profiler — so surge alarms match the
    /// batch profiler exactly at any shard count. The aggregation
    /// waits for every shard to reach the mark (a barrier), which is
    /// what makes the merged counts a consistent day snapshot.
    pub fn mark_day(&mut self, idx: usize, date: Date) {
        self.flush();
        EngineMetrics::add(&self.metrics.day_marks, 1);
        let (tx, rx) = mpsc::channel::<Vec<(Asn, u32)>>();
        for sender in &self.senders {
            sender
                .send(ShardMsg::DayMark {
                    idx,
                    date,
                    involvement: tx.clone(),
                })
                .expect("shard worker alive");
        }
        drop(tx);
        let mut merged: HashMap<Asn, u32> = HashMap::new();
        for counts in rx.iter() {
            for (asn, n) in counts {
                *merged.entry(asn).or_default() += n;
            }
        }
        for alarm in self.profiler.observe_counts(date, &merged) {
            self.surge_alarms.push((idx, alarm));
        }
    }

    /// Hands over (and clears) every shard's event log accumulated
    /// since the last drain — the subscription hook a persistent
    /// conflict-history store uses to persist lifecycle events
    /// mid-stream. Returned events are in replay order (see
    /// [`sort_log`]); per-shard `seq` keeps counting across drains, so
    /// concatenated drains plus the final report still form one
    /// causally ordered log. Events drained here no longer appear in
    /// [`MonitorEngine::finish`]'s report.
    pub fn drain_events(&mut self) -> Vec<SeqEvent> {
        self.flush();
        let (tx, rx) = mpsc::channel::<Vec<SeqEvent>>();
        for sender in &self.senders {
            sender
                .send(ShardMsg::Drain(tx.clone()))
                .expect("shard worker alive");
        }
        drop(tx);
        let mut events: Vec<SeqEvent> = rx.iter().flatten().collect();
        sort_log(&mut events);
        events
    }

    /// Takes an epoch-consistent-per-shard snapshot of the live MOAS
    /// set without stopping ingestion: pending batches are flushed,
    /// each shard answers at a message boundary, and ingestion resumes
    /// as soon as the queries are enqueued.
    pub fn snapshot(&mut self) -> MoasSnapshot {
        self.flush();
        let (tx, rx) = mpsc::channel::<ShardSnapshot>();
        for sender in &self.senders {
            sender
                .send(ShardMsg::Query(tx.clone()))
                .expect("shard worker alive");
        }
        drop(tx);
        let mut shards: Vec<ShardSnapshot> = rx.iter().collect();
        shards.sort_by_key(|s| s.shard);
        MoasSnapshot::new(shards)
    }

    /// Flushes, shuts the workers down, and collects the merged
    /// report: the sorted event log, all day slices, in-stream alarms,
    /// and final counters.
    pub fn finish(mut self) -> MonitorReport {
        self.flush();
        for tx in &self.senders {
            tx.send(ShardMsg::Shutdown).expect("shard worker alive");
        }
        drop(self.senders);

        let mut events: Vec<SeqEvent> = Vec::new();
        let mut day_slices: Vec<DaySlice> = Vec::new();
        // Global surge alarms first, then the shards' new-origin
        // alarms; the stable sort below keeps that order within a day.
        let mut alarms: Vec<(usize, Anomaly)> = std::mem::take(&mut self.surge_alarms);
        let mut routes = 0u64;
        let mut prefixes = 0usize;
        let mut spurious = 0u64;
        for handle in self.handles {
            let out = handle.join().expect("shard worker panicked");
            events.extend(out.log);
            day_slices.extend(out.slices);
            alarms.extend(out.alarms);
            routes += out.routes;
            prefixes += out.prefixes;
            spurious += out.spurious_withdrawals;
        }
        sort_log(&mut events);
        day_slices.sort_by_key(|s| (s.idx, s.shard));
        alarms.sort_by_key(|(idx, _)| *idx);

        MonitorReport {
            events,
            day_slices,
            alarms,
            routes,
            prefixes,
            spurious_withdrawals: spurious,
            metrics: self.metrics.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moas_bgp::attrs::Attrs;
    use moas_bgp::message::UpdateMsg;
    use moas_mrt::bgp4mp::{Bgp4mpMessage, PeeringHeader};

    fn update(path: &str, announced: &[&str], withdrawn: &[&str]) -> MrtRecord {
        MrtRecord {
            timestamp: 1_000,
            body: MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                header: PeeringHeader {
                    peer_as: Asn::new(701),
                    local_as: Asn::new(6447),
                    if_index: 0,
                    peer_addr: "10.0.0.1".parse().unwrap(),
                    local_addr: "10.0.0.2".parse().unwrap(),
                },
                message: BgpMessage::Update(UpdateMsg {
                    withdrawn: withdrawn.iter().map(|p| p.parse().unwrap()).collect(),
                    attrs: Attrs::announcement(
                        path.parse().unwrap(),
                        std::net::Ipv4Addr::new(10, 0, 0, 1),
                    ),
                    announced: announced.iter().map(|p| p.parse().unwrap()).collect(),
                }),
                as4: false,
            }),
        }
    }

    #[test]
    fn sighting_is_the_single_origin_announce_instructions() {
        let records = [
            update(
                "701 7",
                &["192.0.2.0/24", "198.51.100.0/24"],
                &["203.0.113.0/24"],
            ),
            update("701 {7,9}", &["192.0.2.0/24"], &[]),
            update("701 7", &[], &["192.0.2.0/24"]),
        ];
        for rec in &records {
            let (session, instructions) = record_instructions(rec).unwrap();
            let announced: Vec<(Prefix, Asn)> = instructions
                .into_iter()
                .filter_map(|i| match i {
                    RouteInstruction::Announce { prefix, route } => match route.path.origin() {
                        Origin::Single(origin) => Some((prefix, origin)),
                        _ => None,
                    },
                    RouteInstruction::Withdraw { .. } => None,
                })
                .collect();
            assert_eq!(Sighting::of(rec), Some(Sighting { session, announced }));
        }
        assert_eq!(Sighting::of(&records[0]).unwrap().announced.len(), 2);
    }
}
