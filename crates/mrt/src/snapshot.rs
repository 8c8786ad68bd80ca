//! Conversion between [`TableSnapshot`] and MRT record sequences.
//!
//! This is the bridge the whole reproduction crosses twice a day:
//! the collector substrate renders its daily table into MRT records
//! (either format), and the analyzer reads the records back into a
//! `TableSnapshot` — the same code path an analysis of the genuine
//! NLANR/PCH archives would take.

use crate::error::MrtError;
use crate::record::{MrtBody, MrtRecord};
use crate::table_dump::{PeerEntry, PeerIndexTable, RibEntryV2, RibUnicast, TableDumpEntry};
use moas_bgp::attrs::Attrs;
use moas_bgp::{PeerInfo, TableSnapshot};
use moas_net::{Date, Prefix};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Which MRT flavor to render a snapshot into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpFormat {
    /// TABLE_DUMP (v1): the study-era archive format.
    V1,
    /// TABLE_DUMP_V2: peer-index + per-prefix records.
    V2,
}

/// Seconds since the Unix epoch at midnight UTC of `date`.
pub fn midnight_timestamp(date: Date) -> u32 {
    let days = date.day_index().0;
    // The study window is far inside u32 range (1997–2001).
    (days * 86_400).max(0) as u32
}

/// Renders a snapshot into MRT records.
pub fn snapshot_to_records(snapshot: &TableSnapshot, format: DumpFormat) -> Vec<MrtRecord> {
    match format {
        DumpFormat::V1 => to_v1(snapshot),
        DumpFormat::V2 => to_v2(snapshot),
    }
}

fn to_v1(snapshot: &TableSnapshot) -> Vec<MrtRecord> {
    let ts = midnight_timestamp(snapshot.date);
    let mut out = Vec::with_capacity(snapshot.entries.len());
    for (i, e) in snapshot.entries.iter().enumerate() {
        let peer = &snapshot.peers[e.peer_idx as usize];
        out.push(MrtRecord {
            timestamp: ts,
            body: MrtBody::TableDump(TableDumpEntry {
                view: 0,
                sequence: (i % 65_536) as u16,
                prefix: e.route.prefix,
                status: 1,
                originated: ts,
                peer_addr: peer.addr,
                peer_as: peer.asn,
                attrs: Attrs::from_route(&e.route),
            }),
        });
    }
    out
}

fn to_v2(snapshot: &TableSnapshot) -> Vec<MrtRecord> {
    let ts = midnight_timestamp(snapshot.date);
    let mut out = Vec::new();
    out.push(MrtRecord {
        timestamp: ts,
        body: MrtBody::PeerIndexTable(PeerIndexTable {
            collector_id: Ipv4Addr::new(198, 32, 162, 100),
            view_name: "route-views".into(),
            peers: snapshot
                .peers
                .iter()
                .map(|p| PeerEntry {
                    bgp_id: p.bgp_id,
                    addr: p.addr,
                    asn: p.asn,
                    as4: p.asn.value() > 0xFFFF,
                })
                .collect(),
        }),
    });
    // Group entries by prefix, preserving prefix order.
    let mut by_prefix: BTreeMap<Prefix, Vec<RibEntryV2>> = BTreeMap::new();
    for e in &snapshot.entries {
        by_prefix
            .entry(e.route.prefix)
            .or_default()
            .push(RibEntryV2 {
                peer_index: e.peer_idx,
                originated: ts,
                attrs: Attrs::from_route(&e.route),
            });
    }
    for (seq, (prefix, entries)) in by_prefix.into_iter().enumerate() {
        out.push(MrtRecord {
            timestamp: ts,
            body: MrtBody::RibUnicast(RibUnicast {
                sequence: seq as u32,
                prefix,
                entries,
            }),
        });
    }
    out
}

/// A rebuilt snapshot plus loss counters from a lossy rebuild.
#[derive(Debug, Clone)]
pub struct SnapshotBuild {
    /// The rebuilt table.
    pub snapshot: TableSnapshot,
    /// RIB entries dropped because their peer index was not in the
    /// PEER_INDEX_TABLE (corrupt records that still parsed
    /// structurally).
    pub unknown_peer_entries: u64,
}

/// Like [`records_to_snapshot`] but *lossy*: entries referencing an
/// unknown peer index are counted and skipped instead of failing the
/// whole file — the right behavior for multi-year archive scans where
/// a corrupted record must never abort the run. A missing
/// PEER_INDEX_TABLE remains fatal (nothing in the file is usable).
pub fn records_to_snapshot_lossy(
    records: &[MrtRecord],
    date_hint: Option<Date>,
) -> Result<SnapshotBuild, MrtError> {
    let mut builder = SnapshotBuilder::new(date_hint, true);
    for rec in records {
        builder.push(rec)?;
    }
    Ok(builder.finish())
}

/// Rebuilds a snapshot from MRT records (either format, even mixed),
/// strictly: any unknown peer index is an error.
///
/// The snapshot date is taken from `date_hint` if given, otherwise from
/// the first record's timestamp.
pub fn records_to_snapshot(
    records: &[MrtRecord],
    date_hint: Option<Date>,
) -> Result<TableSnapshot, MrtError> {
    let mut builder = SnapshotBuilder::new(date_hint, false);
    for rec in records {
        builder.push(rec)?;
    }
    Ok(builder.finish().snapshot)
}

/// Incrementally rebuilds a [`TableSnapshot`] from a record stream,
/// one record at a time — the streaming counterpart of
/// [`records_to_snapshot_lossy`] for whole-file table scans that must
/// not buffer the file's records in memory first.
#[derive(Debug)]
pub struct SnapshotBuilder {
    snapshot: TableSnapshot,
    date_fixed: bool,
    lossy: bool,
    unknown_peer_entries: u64,
    /// Peer table for V2 records; V1 records register peers on the fly.
    v2_peer_map: Vec<u16>,
}

impl SnapshotBuilder {
    /// Starts a build. With `lossy`, entries referencing an unknown
    /// peer index are counted and skipped; otherwise they fail the
    /// build. The snapshot date comes from `date_hint` if given,
    /// otherwise from the first pushed record's timestamp.
    pub fn new(date_hint: Option<Date>, lossy: bool) -> Self {
        SnapshotBuilder {
            snapshot: TableSnapshot::new(date_hint.unwrap_or_else(|| Date::ymd(1970, 1, 1))),
            date_fixed: date_hint.is_some(),
            lossy,
            unknown_peer_entries: 0,
            v2_peer_map: Vec::new(),
        }
    }

    /// Adds one record's contribution to the table.
    pub fn push(&mut self, rec: &MrtRecord) -> Result<(), MrtError> {
        if !self.date_fixed {
            self.snapshot.date =
                Date::from_day_index(moas_net::DayIndex((rec.timestamp / 86_400) as i64));
            self.date_fixed = true;
        }
        match &rec.body {
            MrtBody::PeerIndexTable(t) => {
                self.v2_peer_map = t
                    .peers
                    .iter()
                    .map(|p| {
                        self.snapshot.add_peer(PeerInfo {
                            addr: p.addr,
                            bgp_id: p.bgp_id,
                            asn: p.asn,
                        })
                    })
                    .collect();
            }
            MrtBody::RibUnicast(r) => {
                if self.v2_peer_map.is_empty() {
                    return Err(MrtError::MissingPeerIndexTable);
                }
                for e in &r.entries {
                    let idx = match self.v2_peer_map.get(e.peer_index as usize) {
                        Some(i) => *i,
                        None if self.lossy => {
                            self.unknown_peer_entries += 1;
                            continue;
                        }
                        None => return Err(MrtError::UnknownPeerIndex(e.peer_index)),
                    };
                    self.snapshot.push(idx, e.attrs.to_route(r.prefix));
                }
            }
            MrtBody::TableDump(e) => {
                let idx = self.snapshot.add_peer(PeerInfo {
                    addr: e.peer_addr,
                    bgp_id: match e.peer_addr {
                        std::net::IpAddr::V4(a) => a,
                        std::net::IpAddr::V6(_) => Ipv4Addr::UNSPECIFIED,
                    },
                    asn: e.peer_as,
                });
                self.snapshot.push(idx, e.attrs.to_route(e.prefix));
            }
            // Update-stream records do not contribute to a table dump.
            MrtBody::Bgp4mpMessage(_) | MrtBody::Bgp4mpStateChange(_) => {}
        }
        Ok(())
    }

    /// Finishes the build.
    pub fn finish(self) -> SnapshotBuild {
        SnapshotBuild {
            snapshot: self.snapshot,
            unknown_peer_entries: self.unknown_peer_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moas_net::Asn;

    fn sample_snapshot() -> TableSnapshot {
        let mut t = TableSnapshot::new(Date::ymd(2001, 4, 10));
        let p0 = t.add_peer(PeerInfo::v4(Ipv4Addr::new(10, 0, 0, 1), Asn::new(701)));
        let p1 = t.add_peer(PeerInfo::v4(Ipv4Addr::new(10, 0, 0, 2), Asn::new(3561)));
        t.push_path(
            p0,
            "192.0.2.0/24".parse().unwrap(),
            "701 1239 8584".parse().unwrap(),
        );
        t.push_path(
            p1,
            "192.0.2.0/24".parse().unwrap(),
            "3561 15412".parse().unwrap(),
        );
        t.push_path(
            p1,
            "198.51.100.0/24".parse().unwrap(),
            "3561 7007".parse().unwrap(),
        );
        t.push_path(
            p0,
            "2001:db8::/32".parse().unwrap(),
            "701 5511".parse().unwrap(),
        );
        t
    }

    /// Compare snapshots modulo entry order (V2 groups by prefix).
    fn assert_same_content(a: &TableSnapshot, b: &TableSnapshot) {
        assert_eq!(a.date, b.date);
        let key = |t: &TableSnapshot| {
            let mut v: Vec<String> = t
                .entries
                .iter()
                .map(|e| {
                    let peer = &t.peers[e.peer_idx as usize];
                    format!("{} {} via {}", e.route.prefix, e.route.path, peer.asn)
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(a), key(b));
    }

    #[test]
    fn v1_roundtrip_preserves_content() {
        let snap = sample_snapshot();
        let records = snapshot_to_records(&snap, DumpFormat::V1);
        assert_eq!(records.len(), snap.entries.len());
        let back = records_to_snapshot(&records, Some(snap.date)).unwrap();
        assert_same_content(&snap, &back);
    }

    #[test]
    fn v2_roundtrip_preserves_content() {
        let snap = sample_snapshot();
        let records = snapshot_to_records(&snap, DumpFormat::V2);
        // Peer index + one record per distinct prefix.
        assert_eq!(records.len(), 1 + snap.distinct_prefixes());
        let back = records_to_snapshot(&records, Some(snap.date)).unwrap();
        assert_same_content(&snap, &back);
    }

    #[test]
    fn v2_without_peer_table_fails() {
        let snap = sample_snapshot();
        let records = snapshot_to_records(&snap, DumpFormat::V2);
        let no_table: Vec<MrtRecord> = records[1..].to_vec();
        assert!(matches!(
            records_to_snapshot(&no_table, None),
            Err(MrtError::MissingPeerIndexTable)
        ));
    }

    #[test]
    fn date_recovered_from_timestamp() {
        let snap = sample_snapshot();
        let records = snapshot_to_records(&snap, DumpFormat::V1);
        let back = records_to_snapshot(&records, None).unwrap();
        assert_eq!(back.date, snap.date);
    }

    #[test]
    fn midnight_timestamp_known_value() {
        // 1998-04-07 = day 10323 since epoch.
        assert_eq!(midnight_timestamp(Date::ymd(1998, 4, 7)), 10_323 * 86_400);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = TableSnapshot::new(Date::ymd(2000, 1, 1));
        let v1 = snapshot_to_records(&snap, DumpFormat::V1);
        assert!(v1.is_empty());
        let v2 = snapshot_to_records(&snap, DumpFormat::V2);
        assert_eq!(v2.len(), 1); // just the (empty) peer table
        let back = records_to_snapshot(&v2, Some(snap.date)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn v2_archive_is_smaller_than_v1_for_shared_prefixes() {
        // The dedup win that motivated TABLE_DUMP_V2.
        let mut snap = TableSnapshot::new(Date::ymd(2001, 1, 1));
        let peers: Vec<u16> = (0..20)
            .map(|i| {
                snap.add_peer(PeerInfo::v4(
                    Ipv4Addr::new(10, 0, 0, i as u8 + 1),
                    Asn::new(100 + i as u32),
                ))
            })
            .collect();
        for p in &peers {
            snap.push_path(
                *p,
                "192.0.2.0/24".parse().unwrap(),
                format!("{} 8584", 100 + *p as u32).parse().unwrap(),
            );
        }
        let size = |recs: &[MrtRecord]| -> usize { recs.iter().map(|r| r.encode().len()).sum() };
        let v1 = size(&snapshot_to_records(&snap, DumpFormat::V1));
        let v2 = size(&snapshot_to_records(&snap, DumpFormat::V2));
        assert!(v2 < v1, "v2 ({v2}) should be smaller than v1 ({v1})");
    }
}
