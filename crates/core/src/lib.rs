//! # moas-core — MOAS conflict detection and analysis
//!
//! The reproduction of the paper's contribution. Everything here
//! implements the *measurement methodology* of §III–§VI:
//!
//! * [`mod@detect`] — scans one day's routing table, extracts per-prefix
//!   origin sets by the paper's rule (last AS of the path; routes
//!   ending in AS sets are excluded and counted separately), and
//!   reports the day's MOAS conflicts.
//! * [`classify`] — the §V three-way classification of a conflict's
//!   path set: `OrigTranAS` (one path a proper prefix of another),
//!   `SplitView` (same first-hop AS, different origins), and
//!   `DistinctPaths` (disjoint paths), with an explicit residual class
//!   for partially overlapping path pairs the paper folds into
//!   DistinctPaths.
//! * [`timeline`] — accumulates daily observations across the window:
//!   per-prefix observed-day counts (duration, "regardless of whether
//!   the conflict was continuous", §IV-B), daily conflict counts, daily
//!   class and mask-length histograms.
//! * [`stats`] — regenerates the paper's tables and figures from a
//!   timeline: Fig. 1 daily counts, Fig. 2 yearly medians, Fig. 3
//!   duration histogram, Fig. 4 expectation ladder, Fig. 5 prefix-length
//!   distribution, Fig. 6 class mix.
//! * [`causes`] — §VI analyses: per-AS involvement on incident days,
//!   exchange-point subset behavior, and the duration heuristic for
//!   valid-vs-invalid conflicts.
//! * [`detector`] — the paper's future work (§VII: "identifying
//!   invalid conflicts with a high degree of certainty"): an
//!   origin-profile anomaly detector that flags ASes suddenly
//!   originating far more prefixes than their history, plus a MOAS
//!   alarm stream with an allowlist.
//! * [`pipeline`] — drives a whole study window through the analysis,
//!   serially or sharded across scoped threads, from in-memory
//!   snapshots or from MRT archives on disk.
//! * [`report`] — text tables, CSV and JSON artifacts for the
//!   `figures` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causes;
pub mod classify;
pub mod detect;
pub mod detector;
pub mod pipeline;
pub mod replay;
pub mod report;
pub mod stats;
pub mod submoas;
pub mod timeline;

pub use classify::ConflictClass;
pub use detect::{detect, DayObservation, PrefixConflict, TableSource};
pub use timeline::{DailyStats, Timeline};
