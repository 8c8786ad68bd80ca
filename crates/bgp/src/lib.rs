//! # moas-bgp — BGP-4 wire formats, RIBs, policy
//!
//! The substrate underneath the MOAS study: everything the paper takes
//! for granted about "BGP routes" is implemented here.
//!
//! * [`message`] — BGP-4 messages (RFC 1771/4271): OPEN, UPDATE,
//!   NOTIFICATION, KEEPALIVE, with full header validation.
//! * [`attrs`] — path attributes: ORIGIN, AS_PATH (AS_SET /
//!   AS_SEQUENCE / confederation segments), NEXT_HOP, MED, LOCAL_PREF,
//!   ATOMIC_AGGREGATE, AGGREGATOR, COMMUNITIES, MP_REACH/MP_UNREACH.
//! * [`nlri`] — prefix encoding as used by UPDATE and the MRT formats.
//! * [`route`] — the attribute-complete [`route::Route`] type.
//! * [`rib`] — the Adj-RIB-In plus [`rib::TableSnapshot`],
//!   the "routing table dump" type the whole analysis pipeline consumes
//!   (it is exactly what a Route Views table archive contains: a list of
//!   (peer, prefix, AS path) entries for one day).
//! * [`policy`] — Gao-Rexford relationships and valley-free export
//!   rules, used by the topology substrate to synthesize realistic paths.
//!
//! Wire formats use 2-byte AS numbers by default — every AS in the
//! 1997–2001 study window fits — with an explicit [`attrs::AsnWidth`]
//! switch for 4-byte encodings so modern dumps parse too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrs;
pub mod error;
pub mod message;
pub mod nlri;
pub mod policy;
pub mod rib;
pub mod route;

pub use error::BgpError;
pub use message::{BgpMessage, NotificationMsg, OpenMsg, UpdateMsg};
pub use rib::{PeerInfo, RibEntry, TableSnapshot};
pub use route::{OriginAttr, Route};
