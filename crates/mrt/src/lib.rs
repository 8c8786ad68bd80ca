//! # moas-mrt — MRT routing-archive format (RFC 6396)
//!
//! The paper's raw input is archived Route Views table dumps (NLANR
//! 1998→2001, PCH 2001→). Those archives are MRT files; this crate is a
//! from-scratch MRT implementation so the reproduction's analysis
//! pipeline runs over *real MRT bytes*, exactly as it would over the
//! genuine archives.
//!
//! Supported record types:
//!
//! * **TABLE_DUMP** (type 12, IPv4/IPv6 subtypes) — the format the
//!   study-era archives actually used: one record per (prefix, peer).
//! * **TABLE_DUMP_V2** (type 13) — `PEER_INDEX_TABLE` +
//!   `RIB_IPV4_UNICAST`/`RIB_IPV6_UNICAST`: one record per prefix with
//!   all peer entries, as modern Route Views files are written. Both
//!   directions (read/write) are implemented, so archive size and
//!   parse cost can be compared across formats.
//! * **BGP4MP** (type 16) — wrapped BGP messages and state changes,
//!   used for update-stream replay tests.
//!
//! Reading is streaming ([`reader::MrtReader`]) with smoltcp-style
//! fault tolerance: a corrupt record is counted and skipped using the
//! length field; a 1279-day scan never aborts on one bad byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgp4mp;
pub mod error;
pub mod reader;
pub mod record;
pub mod snapshot;
pub mod table_dump;

pub use error::MrtError;
pub use reader::{MrtReader, MrtWriter, ReadStats};
pub use record::{MrtBody, MrtRecord};
