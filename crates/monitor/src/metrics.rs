//! Engine-wide counters, shared between the ingest thread and the
//! shard workers through the [`moas_obs`] registry so reading them
//! never contends with the hot path — and so one `GET /metrics`
//! scrape covers the engine alongside every other pipeline layer.

use moas_obs::{Counter, Gauge, Histogram, LagTracker, Registry};
use std::sync::Arc;

/// Live counters for a running engine, all registered on one shared
/// [`Registry`]. [`MetricsSnapshot`] (and through it the monitor's
/// reports and the query server's `/v1/metrics`) is a view over these
/// handles, not parallel bookkeeping.
#[derive(Debug)]
pub struct EngineMetrics {
    /// MRT records handed to the engine.
    pub records_ingested: Counter,
    /// Records that were not BGP4MP UPDATEs (counted and skipped).
    pub records_skipped: Counter,
    /// Route-level updates (announcements + withdrawals) routed to
    /// shards.
    pub updates_routed: Counter,
    /// Route-level updates actually applied by shard workers.
    pub updates_applied: Counter,
    /// Withdrawals for routes no session held (no state change).
    pub spurious_withdrawals: Counter,
    /// Lifecycle events emitted across all shards.
    pub events_emitted: Counter,
    /// Batches flushed into shard channels.
    pub batches_sent: Counter,
    /// Day marks broadcast.
    pub day_marks: Counter,
    /// Epoch snapshots served.
    pub queries_served: Counter,
    /// Event-log segments an attached history store has written
    /// (lifetime: live plus expired).
    pub store_segments_written: Gauge,
    /// Segments an attached history store's retention has expired.
    pub store_segments_expired: Gauge,
    /// Record tables an attached history store has installed.
    pub store_tables_written: Gauge,
    /// Bytes an attached history store currently holds on disk
    /// (live segments plus the record table).
    pub store_bytes_retained: Gauge,
    /// Bytes an attached history store has ever written, including
    /// since-expired segments and replaced tables.
    pub store_bytes_lifetime: Gauge,
    /// Sealed segments awaiting compaction into the record table —
    /// the compaction daemon's backlog.
    pub store_compaction_lag: Gauge,
    /// Conflict records an attached history store has compacted.
    pub store_records_compacted: Gauge,
    /// Wall-clock spent applying one routed batch inside a shard
    /// worker (microseconds).
    pub stage_shard_apply: Histogram,
    /// End-to-end ingest-to-serve lag watermarks (fed by the feed
    /// and the history service when both share this
    /// registry).
    pub lag: LagTracker,
    registry: Arc<Registry>,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics::new(&Arc::new(Registry::new()))
    }
}

impl EngineMetrics {
    /// Registers every engine series on `registry`. Two engines
    /// sharing a registry share series — standalone tools get a
    /// private one via [`Default`].
    pub fn new(registry: &Arc<Registry>) -> Self {
        let r = registry.as_ref();
        EngineMetrics {
            records_ingested: r.counter(
                "moas_monitor_records_ingested_total",
                "MRT records handed to the engine.",
            ),
            records_skipped: r.counter(
                "moas_monitor_records_skipped_total",
                "Records that were not BGP4MP UPDATEs.",
            ),
            updates_routed: r.counter(
                "moas_monitor_updates_routed_total",
                "Route-level updates routed to shards.",
            ),
            updates_applied: r.counter(
                "moas_monitor_updates_applied_total",
                "Route-level updates applied by shard workers.",
            ),
            spurious_withdrawals: r.counter(
                "moas_monitor_spurious_withdrawals_total",
                "Withdrawals that matched no held route.",
            ),
            events_emitted: r.counter(
                "moas_monitor_events_emitted_total",
                "Lifecycle events emitted across all shards.",
            ),
            batches_sent: r.counter(
                "moas_monitor_batches_sent_total",
                "Batches flushed into shard channels.",
            ),
            day_marks: r.counter("moas_monitor_day_marks_total", "Day marks broadcast."),
            queries_served: r.counter(
                "moas_monitor_queries_served_total",
                "Epoch snapshots served by shard workers.",
            ),
            store_segments_written: r.gauge(
                "moas_store_segments_written",
                "Event-log segments written by the history store (lifetime).",
            ),
            store_segments_expired: r.gauge(
                "moas_store_segments_expired",
                "Segments expired by history-store retention.",
            ),
            store_tables_written: r.gauge(
                "moas_store_tables_written",
                "Record tables installed by the history store.",
            ),
            store_bytes_retained: r.gauge(
                "moas_store_bytes_retained",
                "Bytes the history store currently holds on disk.",
            ),
            store_bytes_lifetime: r.gauge(
                "moas_store_bytes_lifetime",
                "Bytes the history store has ever written.",
            ),
            store_compaction_lag: r.gauge(
                "moas_store_compaction_lag",
                "Sealed segments awaiting compaction into the record table.",
            ),
            store_records_compacted: r.gauge(
                "moas_store_records_compacted",
                "Conflict records in the installed record table.",
            ),
            stage_shard_apply: r.stage_histogram("shard_apply"),
            lag: LagTracker::new(r),
            registry: Arc::clone(registry),
        }
    }

    /// The registry every series here lives on.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &Counter, n: u64) {
        counter.add(n);
    }

    /// Overwrites a gauge (disk occupancy and the like).
    pub fn set(gauge: &Gauge, v: u64) {
        gauge.set(v);
    }

    /// A point-in-time copy of every counter, for reports.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            records_ingested: self.records_ingested.get(),
            records_skipped: self.records_skipped.get(),
            updates_routed: self.updates_routed.get(),
            updates_applied: self.updates_applied.get(),
            spurious_withdrawals: self.spurious_withdrawals.get(),
            events_emitted: self.events_emitted.get(),
            batches_sent: self.batches_sent.get(),
            day_marks: self.day_marks.get(),
            queries_served: self.queries_served.get(),
            store_segments_written: self.store_segments_written.get(),
            store_segments_expired: self.store_segments_expired.get(),
            store_tables_written: self.store_tables_written.get(),
            store_bytes_retained: self.store_bytes_retained.get(),
            store_bytes_lifetime: self.store_bytes_lifetime.get(),
            store_compaction_lag: self.store_compaction_lag.get(),
            store_records_compacted: self.store_records_compacted.get(),
        }
    }
}

/// A frozen copy of [`EngineMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// MRT records handed to the engine.
    pub records_ingested: u64,
    /// Records that were not BGP4MP UPDATEs.
    pub records_skipped: u64,
    /// Route-level updates routed to shards.
    pub updates_routed: u64,
    /// Route-level updates applied by shard workers.
    pub updates_applied: u64,
    /// Withdrawals that matched no held route.
    pub spurious_withdrawals: u64,
    /// Lifecycle events emitted.
    pub events_emitted: u64,
    /// Batches flushed into shard channels.
    pub batches_sent: u64,
    /// Day marks broadcast.
    pub day_marks: u64,
    /// Epoch snapshots served.
    pub queries_served: u64,
    /// Event-log segments an attached history store has written
    /// (lifetime: live plus expired).
    pub store_segments_written: u64,
    /// Segments an attached history store's retention has expired.
    pub store_segments_expired: u64,
    /// Record tables an attached history store has installed.
    pub store_tables_written: u64,
    /// Bytes an attached history store currently holds on disk
    /// (live segments plus the record table).
    pub store_bytes_retained: u64,
    /// Bytes an attached history store has ever written, including
    /// since-expired segments and replaced tables.
    pub store_bytes_lifetime: u64,
    /// Sealed segments awaiting compaction into the record table.
    pub store_compaction_lag: u64,
    /// Conflict records an attached history store has compacted.
    pub store_records_compacted: u64,
}

impl MetricsSnapshot {
    /// Every counter with its name, in declaration order — the
    /// serialization surface for exporters (the query server's
    /// `/v1/metrics`, log lines) so they never fall out of sync with
    /// the struct.
    pub fn fields(&self) -> [(&'static str, u64); 16] {
        [
            ("records_ingested", self.records_ingested),
            ("records_skipped", self.records_skipped),
            ("updates_routed", self.updates_routed),
            ("updates_applied", self.updates_applied),
            ("spurious_withdrawals", self.spurious_withdrawals),
            ("events_emitted", self.events_emitted),
            ("batches_sent", self.batches_sent),
            ("day_marks", self.day_marks),
            ("queries_served", self.queries_served),
            ("store_segments_written", self.store_segments_written),
            ("store_segments_expired", self.store_segments_expired),
            ("store_tables_written", self.store_tables_written),
            ("store_bytes_retained", self.store_bytes_retained),
            ("store_bytes_lifetime", self.store_bytes_lifetime),
            ("store_compaction_lag", self.store_compaction_lag),
            ("store_records_compacted", self.store_records_compacted),
        ]
    }
}
