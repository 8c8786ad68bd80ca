//! # moas-topology — a synthetic AS-level Internet, 1997–2001
//!
//! The paper measures the real Internet; this crate provides the
//! substitute world the reproduction measures instead (see DESIGN.md §2
//! for the substitution argument). It models what the analysis actually
//! depends on:
//!
//! * an AS graph with **power-law degree structure** grown by
//!   preferential attachment ([`graph`]), annotated with Gao-Rexford
//!   **customer/provider/peer/sibling** relationships, growing from
//!   ~3 000 ASes (late 1997) to ~11 500 (mid 2001) with per-AS birth
//!   days;
//! * **prefix allocation** with the study era's mask-length mix —
//!   the bulk of the table at /24, the rest spread over /8–/23
//!   ([`prefixes`]), which drives Figure 5;
//! * **valley-free path synthesis** ([`paths`]): fast provider-chain
//!   join paths for bulk generation, plus a reference Gao-Rexford BFS
//!   (customer > peer > provider preference) used to validate the fast
//!   generator.
//!
//! Everything is seeded and deterministic (`moas_net::rng::DetRng`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod paths;
pub mod prefixes;

pub use graph::{AsNode, GrowthParams, Tier, Topology};
pub use paths::PathSynth;
pub use prefixes::{PrefixAllocator, PrefixPlan};
