//! # moas-sim — the conflict generative model
//!
//! This crate is the synthetic stand-in for the real 1997–2001 routing
//! system's *behavior*: which prefixes conflicted, when, for how long,
//! and why. Everything the paper measures is produced by explicit
//! per-cause stochastic processes (§VI's taxonomy), not by replaying
//! the paper's numbers:
//!
//! * [`window`] — the study window: 1997-11-08 → 2001-07-18 with a
//!   deterministic 70-day archive-gap set (1279 snapshot days, matching
//!   the paper), extended to 2001-08-15 for the Figure 6 classification
//!   window.
//! * [`calibrate`] — the numeric targets derived from the paper
//!   (duration mixture solved from Figure 4's expectations, the daily
//!   baseline curve through Figure 2's yearly medians) and the scale
//!   knob for laptop-size test runs.
//! * [`conflict`] — conflict instances: cause, origin set, intended
//!   path shape, and the active-day pattern (possibly intermittent —
//!   the paper counts days in existence "regardless of whether the
//!   conflict was continuous").
//! * [`schedule`] — the generator: duration cohorts, start-day
//!   placement proportional to the baseline curve, right-censoring
//!   (the paper's 1326 still-ongoing conflicts), and the two scripted
//!   mass-fault incidents (1998-04-07 AS 8584; 2001-04-06/10 AS 15412
//!   via AS 3561).
//! * [`world`] — ties topology + prefix plan + conflicts together and
//!   answers per-day queries for the collector substrate.
//!
//! The generator is *calibrated, then measured*: `moas-core` analyzes
//! the produced tables with the paper's own methodology, and the
//! `figures` binary (`moas-bench`) and `tests/paper_scale.rs` report
//! how close the measured statistics land.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod conflict;
pub mod schedule;
pub mod window;
pub mod world;

pub use calibrate::{Calibration, SimParams};
pub use conflict::{ActivePattern, Cause, Conflict, Shape};
pub use window::StudyWindow;
pub use world::World;
