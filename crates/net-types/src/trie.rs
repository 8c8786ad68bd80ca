//! A binary radix trie over CIDR prefixes.
//!
//! The detector uses hash maps for the prefix-keyed hot path (MOAS
//! conflicts are identified by exact prefix, §III), but several analyses
//! need *relational* queries the hash map cannot answer:
//!
//! * **faulty aggregation** (§VI-E): does an announced aggregate cover
//!   more-specifics originated elsewhere? → [`RadixTrie::covered`]
//! * **sub-prefix analysis** (extension): is a conflicting prefix itself
//!   inside a differently-originated covering prefix? →
//!   [`RadixTrie::covering`] / [`RadixTrie::longest_match`]
//!
//! The trie is a straightforward arena-allocated binary trie (one level
//! per bit, max depth 32/128). For the table sizes of the study era
//! (~10⁵ prefixes) this is fast, allocation-friendly, and — in the
//! spirit of the smoltcp design goals — simple enough to be obviously
//! correct.

use crate::prefix::{Ipv4Prefix, Ipv6Prefix, Prefix};

/// Kinds of prefixes a trie can be keyed by.
///
/// Implemented for [`Ipv4Prefix`] and [`Ipv6Prefix`]. The erased
/// [`Prefix`] is served by [`PrefixMap`], which keeps one trie per
/// family.
pub trait TrieKey: Copy + Eq {
    /// The prefix length in bits.
    fn key_len(&self) -> u8;
    /// The `i`-th bit of the network address, 0 = most significant.
    /// Only bits `< key_len()` are meaningful.
    fn key_bit(&self, i: u8) -> bool;
}

impl TrieKey for Ipv4Prefix {
    fn key_len(&self) -> u8 {
        self.len()
    }
    fn key_bit(&self, i: u8) -> bool {
        self.bit(i)
    }
}

impl TrieKey for Ipv6Prefix {
    fn key_len(&self) -> u8 {
        self.len()
    }
    fn key_bit(&self, i: u8) -> bool {
        self.bit(i)
    }
}

const NO_NODE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<P, V> {
    children: [u32; 2],
    entry: Option<(P, V)>,
}

impl<P, V> Node<P, V> {
    fn new() -> Self {
        Node {
            children: [NO_NODE, NO_NODE],
            entry: None,
        }
    }
}

/// A binary radix trie mapping prefixes to values.
///
/// ```
/// use moas_net::{trie::RadixTrie, Ipv4Prefix};
/// let mut t: RadixTrie<Ipv4Prefix, &str> = RadixTrie::new();
/// let agg: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
/// let spec: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
/// t.insert(agg, "aggregate");
/// t.insert(spec, "specific");
/// let (p, v) = t.longest_match(&"10.1.2.0/24".parse().unwrap()).unwrap();
/// assert_eq!((p, *v), (spec, "specific"));
/// assert_eq!(t.covered(&agg).count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RadixTrie<P, V> {
    nodes: Vec<Node<P, V>>,
    len: usize,
}

impl<P: TrieKey, V> Default for RadixTrie<P, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: TrieKey, V> RadixTrie<P, V> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        RadixTrie {
            nodes: vec![Node::new()],
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie stores no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all entries (retains the allocation).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::new());
        self.len = 0;
    }

    /// Walks to the node for `prefix`, creating nodes as needed.
    fn walk_or_create(&mut self, prefix: &P) -> usize {
        let mut cur = 0usize;
        for i in 0..prefix.key_len() {
            let dir = prefix.key_bit(i) as usize;
            let next = self.nodes[cur].children[dir];
            cur = if next == NO_NODE {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node::new());
                self.nodes[cur].children[dir] = idx;
                idx as usize
            } else {
                next as usize
            };
        }
        cur
    }

    /// Walks to the node for `prefix` without creating; `None` if the
    /// path does not exist.
    fn walk(&self, prefix: &P) -> Option<usize> {
        let mut cur = 0usize;
        for i in 0..prefix.key_len() {
            let dir = prefix.key_bit(i) as usize;
            let next = self.nodes[cur].children[dir];
            if next == NO_NODE {
                return None;
            }
            cur = next as usize;
        }
        Some(cur)
    }

    /// Inserts or replaces the value for a prefix; returns the previous
    /// value if any.
    pub fn insert(&mut self, prefix: P, value: V) -> Option<V> {
        let node = self.walk_or_create(&prefix);
        let old = self.nodes[node].entry.take();
        self.nodes[node].entry = Some((prefix, value));
        if old.is_none() {
            self.len += 1;
        }
        old.map(|(_, v)| v)
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &P) -> Option<&V> {
        let node = self.walk(prefix)?;
        self.nodes[node].entry.as_ref().map(|(_, v)| v)
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, prefix: &P) -> Option<&mut V> {
        let node = self.walk(prefix)?;
        self.nodes[node].entry.as_mut().map(|(_, v)| v)
    }

    /// Returns the value for `prefix`, inserting `default()` if absent.
    pub fn get_or_insert_with(&mut self, prefix: P, default: impl FnOnce() -> V) -> &mut V {
        let node = self.walk_or_create(&prefix);
        let slot = &mut self.nodes[node].entry;
        if slot.is_none() {
            *slot = Some((prefix, default()));
            self.len += 1;
        }
        // Unwrap is fine: just ensured Some.
        &mut slot.as_mut().expect("entry just ensured").1
    }

    /// Removes the entry for a prefix and returns its value.
    /// (Interior nodes are left in place; the arena only grows, which is
    /// the right trade-off for the build-once/query-many analyses here.)
    pub fn remove(&mut self, prefix: &P) -> Option<V> {
        let node = self.walk(prefix)?;
        let old = self.nodes[node].entry.take();
        if old.is_some() {
            self.len -= 1;
        }
        old.map(|(_, v)| v)
    }

    /// Longest-prefix match: the most specific stored entry whose prefix
    /// contains `prefix` (including an exact match).
    pub fn longest_match(&self, prefix: &P) -> Option<(P, &V)> {
        let mut best: Option<(P, &V)> = None;
        let mut cur = 0usize;
        if let Some((p, v)) = self.nodes[cur].entry.as_ref() {
            best = Some((*p, v));
        }
        for i in 0..prefix.key_len() {
            let dir = prefix.key_bit(i) as usize;
            let next = self.nodes[cur].children[dir];
            if next == NO_NODE {
                break;
            }
            cur = next as usize;
            if let Some((p, v)) = self.nodes[cur].entry.as_ref() {
                best = Some((*p, v));
            }
        }
        best
    }

    /// All stored entries whose prefix contains `prefix`, from least to
    /// most specific (including an exact match).
    pub fn covering<'a>(&'a self, prefix: &P) -> impl Iterator<Item = (P, &'a V)> + 'a {
        let mut hits: Vec<(P, &V)> = Vec::new();
        let mut cur = 0usize;
        if let Some((p, v)) = self.nodes[cur].entry.as_ref() {
            hits.push((*p, v));
        }
        for i in 0..prefix.key_len() {
            let dir = prefix.key_bit(i) as usize;
            let next = self.nodes[cur].children[dir];
            if next == NO_NODE {
                break;
            }
            cur = next as usize;
            if let Some((p, v)) = self.nodes[cur].entry.as_ref() {
                hits.push((*p, v));
            }
        }
        hits.into_iter()
    }

    /// All stored entries contained within `prefix` (including an exact
    /// match), in trie (address) order.
    pub fn covered<'a>(&'a self, prefix: &P) -> impl Iterator<Item = (P, &'a V)> + 'a {
        let start = self.walk(prefix);
        let mut hits: Vec<(P, &V)> = Vec::new();
        if let Some(root) = start {
            let mut stack = vec![root];
            while let Some(n) = stack.pop() {
                if let Some((p, v)) = self.nodes[n].entry.as_ref() {
                    hits.push((*p, v));
                }
                // Push right first so left pops first (address order).
                for dir in [1usize, 0] {
                    let c = self.nodes[n].children[dir];
                    if c != NO_NODE {
                        stack.push(c as usize);
                    }
                }
            }
        }
        hits.into_iter()
    }

    /// Iterates all entries in address order.
    pub fn iter(&self) -> impl Iterator<Item = (P, &V)> + '_ {
        let mut hits: Vec<(P, &V)> = Vec::new();
        let mut stack = vec![0usize];
        while let Some(n) = stack.pop() {
            if let Some((p, v)) = self.nodes[n].entry.as_ref() {
                hits.push((*p, v));
            }
            for dir in [1usize, 0] {
                let c = self.nodes[n].children[dir];
                if c != NO_NODE {
                    stack.push(c as usize);
                }
            }
        }
        hits.into_iter()
    }
}

/// A map keyed by the version-erased [`Prefix`]: one [`RadixTrie`] per
/// address family.
#[derive(Debug, Clone)]
pub struct PrefixMap<V> {
    v4: RadixTrie<Ipv4Prefix, V>,
    v6: RadixTrie<Ipv6Prefix, V>,
}

impl<V> Default for PrefixMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PrefixMap {
            v4: RadixTrie::new(),
            v6: RadixTrie::new(),
        }
    }

    /// Number of stored entries across both families.
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts or replaces; returns the previous value.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        match prefix {
            Prefix::V4(p) => self.v4.insert(p, value),
            Prefix::V6(p) => self.v6.insert(p, value),
        }
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Prefix) -> Option<&V> {
        match prefix {
            Prefix::V4(p) => self.v4.get(p),
            Prefix::V6(p) => self.v6.get(p),
        }
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut V> {
        match prefix {
            Prefix::V4(p) => self.v4.get_mut(p),
            Prefix::V6(p) => self.v6.get_mut(p),
        }
    }

    /// Returns the value for `prefix`, inserting `default()` if absent.
    pub fn get_or_insert_with(&mut self, prefix: Prefix, default: impl FnOnce() -> V) -> &mut V {
        match prefix {
            Prefix::V4(p) => self.v4.get_or_insert_with(p, default),
            Prefix::V6(p) => self.v6.get_or_insert_with(p, default),
        }
    }

    /// Removes an entry.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<V> {
        match prefix {
            Prefix::V4(p) => self.v4.remove(p),
            Prefix::V6(p) => self.v6.remove(p),
        }
    }

    /// Longest-prefix match within the prefix's own family.
    pub fn longest_match(&self, prefix: &Prefix) -> Option<(Prefix, &V)> {
        match prefix {
            Prefix::V4(p) => self.v4.longest_match(p).map(|(p, v)| (Prefix::V4(p), v)),
            Prefix::V6(p) => self.v6.longest_match(p).map(|(p, v)| (Prefix::V6(p), v)),
        }
    }

    /// Entries whose prefix contains the given prefix.
    pub fn covering(&self, prefix: &Prefix) -> Vec<(Prefix, &V)> {
        match prefix {
            Prefix::V4(p) => self
                .v4
                .covering(p)
                .map(|(p, v)| (Prefix::V4(p), v))
                .collect(),
            Prefix::V6(p) => self
                .v6
                .covering(p)
                .map(|(p, v)| (Prefix::V6(p), v))
                .collect(),
        }
    }

    /// Entries contained within the given prefix.
    pub fn covered(&self, prefix: &Prefix) -> Vec<(Prefix, &V)> {
        match prefix {
            Prefix::V4(p) => self
                .v4
                .covered(p)
                .map(|(p, v)| (Prefix::V4(p), v))
                .collect(),
            Prefix::V6(p) => self
                .v6
                .covered(p)
                .map(|(p, v)| (Prefix::V6(p), v))
                .collect(),
        }
    }

    /// Iterates all entries, IPv4 first, each family in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> + '_ {
        self.v4
            .iter()
            .map(|(p, v)| (Prefix::V4(p), v))
            .chain(self.v6.iter().map(|(p, v)| (Prefix::V6(p), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_replace() {
        let mut t = RadixTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn same_bits_different_len_are_distinct() {
        let mut t = RadixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.0.0.0/16"), 16);
        t.insert(p("10.0.0.0/24"), 24);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&p("10.0.0.0/16")), Some(&16));
        assert_eq!(t.get(&p("10.0.0.0/12")), None);
    }

    #[test]
    fn remove_only_removes_exact() {
        let mut t = RadixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.0.0.0/16"), 16);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(8));
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
        assert_eq!(t.get(&p("10.0.0.0/16")), Some(&16));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn longest_match_picks_most_specific() {
        let mut t = RadixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        let (m, v) = t.longest_match(&p("10.1.2.0/24")).unwrap();
        assert_eq!((m, *v), (p("10.1.0.0/16"), 16));
        let (m, v) = t.longest_match(&p("10.2.0.0/16")).unwrap();
        assert_eq!((m, *v), (p("10.0.0.0/8"), 8));
        let (m, v) = t.longest_match(&p("192.0.2.0/24")).unwrap();
        assert_eq!((m, *v), (p("0.0.0.0/0"), 0));
    }

    #[test]
    fn longest_match_exact_hit() {
        let mut t = RadixTrie::new();
        t.insert(p("10.1.0.0/16"), 16);
        let (m, _) = t.longest_match(&p("10.1.0.0/16")).unwrap();
        assert_eq!(m, p("10.1.0.0/16"));
    }

    #[test]
    fn longest_match_none_when_no_cover() {
        let mut t: RadixTrie<Ipv4Prefix, u32> = RadixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        assert!(t.longest_match(&p("11.0.0.0/8")).is_none());
    }

    #[test]
    fn covering_orders_general_to_specific() {
        let mut t = RadixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.0/24"), 24);
        t.insert(p("10.9.0.0/16"), 916);
        let hits: Vec<u8> = t
            .covering(&p("10.1.2.0/24"))
            .map(|(pr, _)| pr.len())
            .collect();
        assert_eq!(hits, vec![8, 16, 24]);
    }

    #[test]
    fn covered_finds_all_subprefixes() {
        let mut t = RadixTrie::new();
        t.insert(p("10.0.0.0/8"), 0);
        t.insert(p("10.1.0.0/16"), 1);
        t.insert(p("10.2.0.0/16"), 2);
        t.insert(p("10.1.2.0/24"), 3);
        t.insert(p("11.0.0.0/8"), 4);
        let within: Vec<Ipv4Prefix> = t.covered(&p("10.0.0.0/8")).map(|(pr, _)| pr).collect();
        assert_eq!(within.len(), 4);
        assert!(!within.contains(&p("11.0.0.0/8")));
        // Address order.
        assert_eq!(within[0], p("10.0.0.0/8"));
    }

    #[test]
    fn covered_on_absent_path_is_empty() {
        let mut t = RadixTrie::new();
        t.insert(p("10.0.0.0/8"), 0);
        assert_eq!(t.covered(&p("192.168.0.0/16")).count(), 0);
    }

    #[test]
    fn default_route_participates() {
        let mut t = RadixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        assert_eq!(t.covering(&p("8.8.8.0/24")).count(), 1);
        assert_eq!(t.covered(&p("0.0.0.0/0")).count(), 1);
        assert_eq!(t.get(&p("0.0.0.0/0")), Some(&0));
    }

    #[test]
    fn get_or_insert_with_counts_once() {
        let mut t: RadixTrie<Ipv4Prefix, Vec<u8>> = RadixTrie::new();
        t.get_or_insert_with(p("10.0.0.0/8"), Vec::new).push(1);
        t.get_or_insert_with(p("10.0.0.0/8"), Vec::new).push(2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&vec![1, 2]));
    }

    #[test]
    fn iter_yields_all_in_address_order() {
        let mut t = RadixTrie::new();
        for s in ["10.0.0.0/8", "9.0.0.0/8", "10.0.0.0/16", "11.0.0.0/8"] {
            t.insert(p(s), ());
        }
        let order: Vec<String> = t.iter().map(|(pr, _)| pr.to_string()).collect();
        assert_eq!(
            order,
            vec!["9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16", "11.0.0.0/8"]
        );
    }

    #[test]
    fn clear_resets() {
        let mut t = RadixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(&p("10.0.0.0/8")), None);
        t.insert(p("10.0.0.0/8"), 2);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn prefix_map_keeps_families_separate() {
        let mut m: PrefixMap<u32> = PrefixMap::new();
        let v4: Prefix = "10.0.0.0/8".parse().unwrap();
        let v6: Prefix = "2001:db8::/32".parse().unwrap();
        m.insert(v4, 4);
        m.insert(v6, 6);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&v4), Some(&4));
        assert_eq!(m.get(&v6), Some(&6));
        let all: Vec<Prefix> = m.iter().map(|(p, _)| p).collect();
        assert_eq!(all[0], v4, "v4 iterates first");
    }

    #[test]
    fn prefix_map_longest_match_and_covered() {
        let mut m: PrefixMap<u32> = PrefixMap::new();
        let agg: Prefix = "10.0.0.0/8".parse().unwrap();
        let spec: Prefix = "10.1.0.0/16".parse().unwrap();
        m.insert(agg, 1);
        m.insert(spec, 2);
        let probe: Prefix = "10.1.2.0/24".parse().unwrap();
        let (hit, _) = m.longest_match(&probe).unwrap();
        assert_eq!(hit, spec);
        assert_eq!(m.covered(&agg).len(), 2);
        assert_eq!(m.covering(&probe).len(), 2);
    }
}
