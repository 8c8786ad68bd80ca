//! # moas-feed — the live collector-feed subsystem
//!
//! The batch pipelines scan a *rendered* archive; a deployed monitor
//! follows a *growing* one. This crate is the ingestion layer between
//! the two: one driver, [`Federation`], that polls N ≥ 1 Route Views /
//! RIS-style collector directories (`updates.YYYYMMDD.HHMM.mrt`
//! BGP4MP update files), discovers newly landed files in timestamp
//! order, tails the in-flight newest file record-by-record, and
//! drives a sharded [`moas_monitor::MonitorEngine`] plus a
//! [`moas_history::HistoryService`] so served epochs advance live. A
//! single-collector feed is a federation of one; with more, identical
//! copies of an update seen by several collectors are deduplicated
//! into corroboration instead of being ingested twice.
//!
//! Restartability is the design center: durable per-collector
//! `FEED_CURSOR`s (file + byte offset, swapped atomically next to the
//! history `MANIFEST`) are only ever written behind the sealed log,
//! and a restarted feed replays the archives up to them — sink
//! disabled, duplicates suppressed by per-shard sequence watermarks —
//! so the history after any kill-and-resume equals a single
//! uninterrupted pass, byte for byte of cursor position
//! (`tests/feed_follow.rs` pins this against batch
//! `analyze_mrt_archive`).
//!
//! Feed pathologies are handled, not fatal: truncated in-flight files
//! wait (then count as truncated tails once finalized), out-of-order
//! arrivals inside a polling window sort into place, late files
//! beyond a collector's position are counted and ignored, and missing
//! archive days surface as [`FeedGap`]s through each collector's
//! [`FeedStatus`] — aggregated by [`FederationStatus`] and served by
//! `moas-serve` as `/v1/feed` and `/v1/collectors`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cursor;
pub mod federation;
pub mod layout;
pub mod status;
pub mod tail;

pub use cursor::FeedCursor;
pub use federation::{CollectorSpec, Federation, FederationConfig, FederationStatus, FeedProgress};
pub use layout::{parse_update_name, scan_layout, FeedFile};
pub use status::{FeedGap, FeedStatus, FeedStatusSnapshot};
pub use tail::{FileTailer, TailPass};
