//! # moas-monitor — online streaming MOAS conflict detection
//!
//! The paper's §VII names the goal beyond daily-snapshot measurement:
//! identifying invalid conflicts *as they happen*. This crate is that
//! monitor: an online, sharded, incremental detection engine that
//! consumes BGP4MP update streams (from MRT files via `moas-mrt`, or
//! synthesized by `moas-routeviews::updates`) and maintains live
//! per-prefix origin state, instead of re-materializing snapshots and
//! re-running `detect()` per check.
//!
//! * [`state`] — the incremental per-prefix origin bookkeeping: O(1)
//!   per route update, with the exact conflict predicate of
//!   `moas_core::detect` (≥ 2 distinct single origins, no AS-set
//!   route).
//! * [`event`] — typed lifecycle events with real-time timestamps:
//!   [`event::MonitorEvent::ConflictOpened`], `OriginAdded`,
//!   `OriginWithdrawn`, `ConflictClosed`.
//! * [`shard`] — worker threads, each owning a prefix-hash slice of
//!   the state plus an embedded `moas_core::detector::MoasMonitor`
//!   (prefix-sharded, so its new-origin alarms are exact). At a day
//!   mark each shard reads its open conflicts once: they feed that
//!   detector, and their per-AS involvement counts go back to the
//!   engine, which sums them into one global
//!   `moas_core::detector::OriginProfiler` — surge alarms therefore
//!   match the batch profiler exactly at any shard count.
//! * [`engine`] — routing, per-peer batching, bounded channels with
//!   backpressure, day marks, shutdown/collect, and the
//!   [`engine::MonitorEngine::drain_events`] hook that hands
//!   accumulated lifecycle events to a downstream consumer mid-stream
//!   (the persistent `moas-history` store is built on it).
//! * [`query`] — epoch snapshots of the live MOAS set
//!   ("current conflicts", "open longer than D") without stopping
//!   ingestion, and the fold that merges an event log into the batch
//!   [`moas_core::timeline::Timeline`] so both pipelines report
//!   identical `total_conflicts()` / `durations()`.
//! * [`metrics`] — atomic engine counters.
//!
//! ```no_run
//! use moas_monitor::{MonitorConfig, MonitorEngine};
//!
//! let mut engine = MonitorEngine::new(MonitorConfig::with_shards(4));
//! // engine.ingest_all(&records);
//! let snap = engine.snapshot();
//! println!("open conflicts: {}", snap.open_count());
//! let report = engine.finish();
//! println!("events: {}", report.events.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod metrics;
pub mod query;
pub mod shard;
pub mod state;

pub use engine::{MonitorConfig, MonitorEngine, Sighting};
pub use event::{MonitorEvent, SeqEvent};
pub use metrics::MetricsSnapshot;
pub use query::{fold_events_into_timeline, MoasSnapshot, MonitorReport};
pub use state::{LiveConflict, RouteUpdate, SessionKey, UpdateAction};
