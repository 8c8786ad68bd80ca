//! Routing Information Bases and table snapshots.
//!
//! [`TableSnapshot`] is the central data-exchange type of the workspace:
//! one day's routing table as collected at a vantage point — exactly
//! what an archived Route Views table dump contains. The simulator
//! produces them, the MRT crate serializes them, and the MOAS analyzer
//! consumes them.

use crate::route::Route;
use moas_net::trie::PrefixMap;
use moas_net::{AsPath, Asn, Date, Prefix};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};

/// Identity of a BGP peer of the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PeerInfo {
    /// The peering address.
    pub addr: IpAddr,
    /// The peer's BGP identifier.
    pub bgp_id: Ipv4Addr,
    /// The peer's AS.
    pub asn: Asn,
}

impl PeerInfo {
    /// Convenience constructor for an IPv4 peer.
    pub fn v4(addr: Ipv4Addr, asn: Asn) -> Self {
        PeerInfo {
            addr: IpAddr::V4(addr),
            bgp_id: addr,
            asn,
        }
    }
}

/// One routing-table entry: a route as exported by one peer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RibEntry {
    /// Index into the snapshot's peer table.
    pub peer_idx: u16,
    /// The route (prefix + attributes).
    pub route: Route,
}

/// One day's full routing table at a collector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSnapshot {
    /// Snapshot date.
    pub date: Date,
    /// The peers contributing entries.
    pub peers: Vec<PeerInfo>,
    /// All table entries.
    pub entries: Vec<RibEntry>,
}

impl TableSnapshot {
    /// Creates an empty snapshot for a date.
    pub fn new(date: Date) -> Self {
        TableSnapshot {
            date,
            peers: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Registers a peer and returns its index.
    pub fn add_peer(&mut self, peer: PeerInfo) -> u16 {
        if let Some(i) = self.peers.iter().position(|p| p == &peer) {
            return i as u16;
        }
        self.peers.push(peer);
        (self.peers.len() - 1) as u16
    }

    /// Appends an entry. Panics if `peer_idx` is out of range
    /// (programmer error: peers must be registered first).
    pub fn push(&mut self, peer_idx: u16, route: Route) {
        assert!(
            (peer_idx as usize) < self.peers.len(),
            "peer index {peer_idx} not registered"
        );
        self.entries.push(RibEntry { peer_idx, route });
    }

    /// Convenience: append a bare (peer, prefix, path) entry.
    pub fn push_path(&mut self, peer_idx: u16, prefix: Prefix, path: AsPath) {
        self.push(peer_idx, Route::new(prefix, path));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Groups entries by prefix, in prefix order. Each group holds
    /// `(peer_idx, &Route)` pairs — the input shape of the MOAS
    /// detector.
    pub fn group_by_prefix(&self) -> BTreeMap<Prefix, Vec<(u16, &Route)>> {
        let mut map: BTreeMap<Prefix, Vec<(u16, &Route)>> = BTreeMap::new();
        for e in &self.entries {
            map.entry(e.route.prefix)
                .or_default()
                .push((e.peer_idx, &e.route));
        }
        map
    }

    /// The number of distinct prefixes in the table.
    pub fn distinct_prefixes(&self) -> usize {
        let mut prefixes: Vec<Prefix> = self.entries.iter().map(|e| e.route.prefix).collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        prefixes.len()
    }

    /// Restricts the snapshot to entries from the given peers —
    /// the per-vantage visibility experiment of §III uses this.
    pub fn restrict_to_peers(&self, keep: &[u16]) -> TableSnapshot {
        let mut out = TableSnapshot::new(self.date);
        out.peers = self.peers.clone();
        out.entries = self
            .entries
            .iter()
            .filter(|e| keep.contains(&e.peer_idx))
            .cloned()
            .collect();
        out
    }

    /// Basic structural validation: every entry's peer index must be
    /// registered. Returns the number of entries checked.
    pub fn validate(&self) -> Result<usize, String> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.peer_idx as usize >= self.peers.len() {
                return Err(format!(
                    "entry {i}: peer index {} out of range ({} peers)",
                    e.peer_idx,
                    self.peers.len()
                ));
            }
        }
        Ok(self.entries.len())
    }
}

/// Per-peer Adj-RIB-In: the routes currently announced by one peer.
///
/// Replaying an UPDATE stream (BGP4MP archives) through [`AdjRibIn`]
/// reconstructs the table state at any point in time.
#[derive(Debug, Clone, Default)]
pub struct AdjRibIn {
    routes: PrefixMap<Route>,
}

impl AdjRibIn {
    /// Creates an empty Adj-RIB-In.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies an announcement; returns the replaced route if any.
    pub fn announce(&mut self, route: Route) -> Option<Route> {
        self.routes.insert(route.prefix, route)
    }

    /// Applies a withdrawal; returns the removed route if any.
    pub fn withdraw(&mut self, prefix: &Prefix) -> Option<Route> {
        self.routes.remove(prefix)
    }

    /// Current route for a prefix.
    pub fn get(&self, prefix: &Prefix) -> Option<&Route> {
        self.routes.get(prefix)
    }

    /// Number of currently announced prefixes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no prefixes are announced.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterates all current routes.
    pub fn iter(&self) -> impl Iterator<Item = &Route> + '_ {
        self.routes.iter().map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> TableSnapshot {
        let mut t = TableSnapshot::new(Date::ymd(1998, 4, 7));
        let p0 = t.add_peer(PeerInfo::v4(Ipv4Addr::new(10, 0, 0, 1), Asn::new(701)));
        let p1 = t.add_peer(PeerInfo::v4(Ipv4Addr::new(10, 0, 0, 2), Asn::new(1239)));
        t.push_path(
            p0,
            "192.0.2.0/24".parse().unwrap(),
            "701 8584".parse().unwrap(),
        );
        t.push_path(
            p1,
            "192.0.2.0/24".parse().unwrap(),
            "1239 7007".parse().unwrap(),
        );
        t.push_path(
            p1,
            "198.51.100.0/24".parse().unwrap(),
            "1239 3561".parse().unwrap(),
        );
        t
    }

    #[test]
    fn add_peer_dedups() {
        let mut t = TableSnapshot::new(Date::ymd(2001, 1, 1));
        let a = t.add_peer(PeerInfo::v4(Ipv4Addr::new(10, 0, 0, 1), Asn::new(701)));
        let b = t.add_peer(PeerInfo::v4(Ipv4Addr::new(10, 0, 0, 1), Asn::new(701)));
        assert_eq!(a, b);
        assert_eq!(t.peers.len(), 1);
    }

    #[test]
    fn group_by_prefix_collects_peers() {
        let t = snapshot();
        let groups = t.group_by_prefix();
        assert_eq!(groups.len(), 2);
        let conflicted = &groups[&"192.0.2.0/24".parse().unwrap()];
        assert_eq!(conflicted.len(), 2);
        assert_eq!(t.distinct_prefixes(), 2);
    }

    #[test]
    fn restrict_to_peers_filters() {
        let t = snapshot();
        let only_p0 = t.restrict_to_peers(&[0]);
        assert_eq!(only_p0.len(), 1);
        assert_eq!(only_p0.distinct_prefixes(), 1);
    }

    #[test]
    fn validate_catches_bad_index() {
        let mut t = snapshot();
        t.entries.push(RibEntry {
            peer_idx: 99,
            route: Route::new("10.0.0.0/8".parse().unwrap(), "1".parse().unwrap()),
        });
        assert!(t.validate().is_err());
        assert_eq!(snapshot().validate(), Ok(3));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn push_unregistered_peer_panics() {
        let mut t = TableSnapshot::new(Date::ymd(2001, 1, 1));
        t.push_path(0, "10.0.0.0/8".parse().unwrap(), "1".parse().unwrap());
    }

    #[test]
    fn adj_rib_in_announce_withdraw() {
        let mut rib = AdjRibIn::new();
        let r1 = Route::new("10.0.0.0/8".parse().unwrap(), "1 2".parse().unwrap());
        let r2 = Route::new("10.0.0.0/8".parse().unwrap(), "1 3".parse().unwrap());
        assert!(rib.announce(r1.clone()).is_none());
        assert_eq!(rib.announce(r2.clone()), Some(r1));
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.get(&"10.0.0.0/8".parse().unwrap()), Some(&r2));
        assert_eq!(rib.withdraw(&"10.0.0.0/8".parse().unwrap()), Some(r2));
        assert!(rib.is_empty());
        assert!(rib.withdraw(&"10.0.0.0/8".parse().unwrap()).is_none());
    }
}
