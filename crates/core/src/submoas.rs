//! SubMOAS analysis: conflicts hidden from exact-prefix detection.
//!
//! The paper identifies conflicts **by prefix only** (§III) and notes
//! faulty aggregation (§VI-E) as a cause it cannot fully see: an AS
//! announcing an *aggregate* that covers space originated elsewhere
//! never collides with the victims' exact prefixes, so the exact-match
//! detector stays silent. This module is the natural extension (the
//! basis of later sub-prefix-hijack detection systems): find pairs
//! where a covering prefix and a covered prefix are originated by
//! completely disjoint AS sets.
//!
//! This is the one analysis in the workspace that genuinely needs the
//! radix trie — exact-match hash maps cannot answer covering queries.

use crate::detect::TableSource;
use moas_net::trie::RadixTrie;
use moas_net::{Asn, Ipv4Prefix, Origin};
use serde::Serialize;

/// A covering/covered origin disagreement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SubMoasPair {
    /// The more-specific prefix.
    pub specific: Ipv4Prefix,
    /// Its origins (sorted).
    pub specific_origins: Vec<Asn>,
    /// The nearest covering prefix announced with disjoint origins.
    pub covering: Ipv4Prefix,
    /// The covering prefix's origins (sorted).
    pub covering_origins: Vec<Asn>,
}

/// Summary counters for one day's subMOAS scan.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SubMoasReport {
    /// Pairs with disjoint origin sets (the suspicious class).
    pub pairs: Vec<SubMoasPair>,
    /// Covered prefixes whose covering prefix shares ≥1 origin — the
    /// benign aggregation pattern (provider aggregates own space).
    pub consistent_covers: usize,
    /// Distinct prefixes scanned.
    pub prefixes: usize,
}

/// Scans a table for subMOAS pairs.
///
/// For every announced v4 prefix, the *nearest* strictly-covering
/// announced prefix is examined: if the two origin sets are disjoint,
/// the pair is reported. Only the nearest cover is considered — a /24
/// inside a /20 inside a /16 yields at most one pair for the /24,
/// against the /20 (chains would double-count the same event).
pub fn detect_submoas(source: &impl TableSource) -> SubMoasReport {
    // Origins per prefix (v4 only — the study's address family).
    let mut trie: RadixTrie<Ipv4Prefix, Vec<Asn>> = RadixTrie::new();
    source.for_each_route(&mut |prefix, _session, path| {
        let moas_net::Prefix::V4(p4) = prefix else {
            return;
        };
        if let Origin::Single(origin) = path.origin() {
            let slot = trie.get_or_insert_with(p4, Vec::new);
            if !slot.contains(&origin) {
                slot.push(origin);
            }
        }
    });

    let mut report = SubMoasReport {
        prefixes: trie.len(),
        ..SubMoasReport::default()
    };
    let entries: Vec<(Ipv4Prefix, Vec<Asn>)> = trie.iter().map(|(p, o)| (p, o.clone())).collect();
    for (specific, mut specific_origins) in entries {
        // Nearest strict cover: the longest match on the parent.
        let Some(parent) = specific.supernet() else {
            continue;
        };
        let Some((covering, cover_origins)) = trie.longest_match(&parent) else {
            continue;
        };
        // longest_match(parent) can still return `specific`'s own
        // supernet chain only; it can never return `specific` itself
        // because parent is strictly shorter.
        debug_assert!(covering.len() < specific.len());
        let mut covering_origins = cover_origins.clone();
        let disjoint = !specific_origins
            .iter()
            .any(|o| covering_origins.contains(o));
        if disjoint {
            specific_origins.sort_unstable();
            covering_origins.sort_unstable();
            report.pairs.push(SubMoasPair {
                specific,
                specific_origins,
                covering,
                covering_origins,
            });
        } else {
            report.consistent_covers += 1;
        }
    }
    report.pairs.sort_by_key(|p| (p.specific, p.covering));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use moas_bgp::{PeerInfo, TableSnapshot};
    use moas_net::{Date, Prefix};
    use std::net::Ipv4Addr;

    fn snap(routes: &[(&str, &str)]) -> TableSnapshot {
        let mut t = TableSnapshot::new(Date::ymd(2001, 1, 1));
        let p0 = t.add_peer(PeerInfo::v4(Ipv4Addr::new(10, 0, 0, 1), Asn::new(100)));
        for (prefix, path) in routes {
            t.push_path(p0, prefix.parse().unwrap(), path.parse().unwrap());
        }
        t
    }

    #[test]
    fn disjoint_cover_is_flagged() {
        let report = detect_submoas(&snap(&[
            ("10.1.2.0/24", "100 7"),
            ("10.1.0.0/18", "100 666"), // different origin covers it
        ]));
        assert_eq!(report.pairs.len(), 1);
        let p = &report.pairs[0];
        assert_eq!(p.specific.to_string(), "10.1.2.0/24");
        assert_eq!(p.covering.to_string(), "10.1.0.0/18");
        assert_eq!(p.specific_origins, vec![Asn::new(7)]);
        assert_eq!(p.covering_origins, vec![Asn::new(666)]);
        assert_eq!(report.consistent_covers, 0);
    }

    #[test]
    fn shared_origin_cover_is_benign() {
        let report = detect_submoas(&snap(&[
            ("10.1.2.0/24", "100 7"),
            ("10.1.0.0/18", "100 9 7"), // same origin: provider aggregate
        ]));
        assert!(report.pairs.is_empty());
        assert_eq!(report.consistent_covers, 1);
    }

    #[test]
    fn unrelated_prefixes_no_pairs() {
        let report = detect_submoas(&snap(&[
            ("10.1.2.0/24", "100 7"),
            ("192.0.2.0/24", "100 9"),
        ]));
        assert!(report.pairs.is_empty());
        assert_eq!(report.prefixes, 2);
    }

    #[test]
    fn only_nearest_cover_counts() {
        let report = detect_submoas(&snap(&[
            ("10.1.2.0/24", "100 7"),
            ("10.1.0.0/20", "100 8"), // nearest cover (disjoint)
            ("10.0.0.0/8", "100 9"),  // outer cover (also disjoint, must not duplicate)
        ]));
        // /24 vs /20, and /20 vs /8 — each specific pairs with its
        // nearest cover only.
        assert_eq!(report.pairs.len(), 2);
        assert_eq!(report.pairs[0].covering.to_string(), "10.0.0.0/8");
        assert_eq!(report.pairs[0].specific.to_string(), "10.1.0.0/20");
        assert_eq!(report.pairs[1].covering.to_string(), "10.1.0.0/20");
        assert_eq!(report.pairs[1].specific.to_string(), "10.1.2.0/24");
    }

    #[test]
    fn multi_origin_prefixes_use_origin_sets() {
        // The covering prefix is itself a MOAS conflict; overlap with
        // ANY origin of the specific is benign.
        let report = detect_submoas(&snap(&[
            ("10.1.2.0/24", "100 7"),
            ("10.1.2.0/24", "100 12"), // (same session in test — fine)
            ("10.1.0.0/18", "100 12"),
        ]));
        assert!(report.pairs.is_empty());
        assert_eq!(report.consistent_covers, 1);
    }

    #[test]
    fn v6_routes_are_ignored() {
        let mut t = snap(&[("10.1.2.0/24", "100 7")]);
        t.push_path(
            0,
            "2001:db8::/32".parse::<Prefix>().unwrap(),
            "100 9".parse().unwrap(),
        );
        let report = detect_submoas(&t);
        assert_eq!(report.prefixes, 1);
    }

    #[test]
    fn empty_table() {
        let report = detect_submoas(&snap(&[]));
        assert!(report.pairs.is_empty());
        assert_eq!(report.prefixes, 0);
    }
}
