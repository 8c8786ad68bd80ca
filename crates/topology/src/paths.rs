//! Valley-free AS-path synthesis.
//!
//! Two generators share the topology:
//!
//! * [`PathSynth`] — the fast provider-chain join used for bulk path
//!   generation (millions of paths over the study window). It climbs
//!   from both endpoints toward the core and joins at the first shared
//!   AS (or across the peered core), which is valley-free by
//!   construction.
//! * [`gao_rexford_routes`] — a reference implementation of policy
//!   routing: lexicographic Dijkstra over (route class, path length,
//!   tie-break), with export filters applied per Gao-Rexford. Tests
//!   validate `PathSynth` against it.

use crate::graph::{Tier, Topology};
use moas_bgp::policy::{may_export, Rel, RouteSource};
use moas_net::rng::DetRng;
use moas_net::Asn;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// SplitMix64 finalizer: a stable per-AS hash for canonical provider
/// choice (value-stable across platforms and releases, like `DetRng`).
fn stable_hash(x: u32) -> u64 {
    let mut z = (x as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fast valley-free path synthesizer.
#[derive(Debug, Clone, Copy)]
pub struct PathSynth<'t> {
    topo: &'t Topology,
}

impl<'t> PathSynth<'t> {
    /// Wraps a topology.
    pub fn new(topo: &'t Topology) -> Self {
        PathSynth { topo }
    }

    /// The provider chain from `asn` to a core AS, inclusive on both
    /// ends: `[asn, provider, ..., core]`. Provider choice is weighted
    /// by degree via `rng` (or canonical max-degree when `None`).
    fn chain_to_core(&self, asn: Asn, rng: &mut Option<&mut DetRng>) -> Vec<Asn> {
        let mut chain = vec![asn];
        let mut cur = asn;
        // Bounded climb: hierarchy depth is small; 16 is paranoia.
        for _ in 0..16 {
            let node = match self.topo.node(cur) {
                Some(n) => n,
                None => break,
            };
            if node.tier == Tier::Core {
                break;
            }
            let providers = self.topo.neighbors_with(cur, Rel::Provider);
            if providers.is_empty() {
                break;
            }
            let next = match rng {
                Some(r) => {
                    let weights: Vec<f64> = providers
                        .iter()
                        .map(|p| self.topo.degree(*p) as f64 + 1.0)
                        .collect();
                    providers[r.choose_weighted(&weights).unwrap_or(0)]
                }
                None => {
                    // Canonical: deterministic per-AS choice, degree-
                    // weighted via a stable hash. (A pure max-degree
                    // rule funnels every chain into one giant core,
                    // collapsing the region structure the visibility
                    // model depends on.)
                    let weights: Vec<u64> = providers
                        .iter()
                        .map(|p| self.topo.degree(*p) as u64 + 1)
                        .collect();
                    let total: u64 = weights.iter().sum();
                    let mut target = stable_hash(cur.value()) % total.max(1);
                    let mut chosen = providers[0];
                    for (i, w) in weights.iter().enumerate() {
                        if target < *w {
                            chosen = providers[i];
                            break;
                        }
                        target -= w;
                    }
                    chosen
                }
            };
            if chain.contains(&next) {
                break;
            }
            chain.push(next);
            cur = next;
        }
        chain
    }

    /// The core AS this AS canonically homes under (the top of its
    /// max-degree provider chain). Sessions homed under the same core
    /// form one "region" — used by the visibility model to build
    /// topologically clustered ISP vantages.
    pub fn canonical_core(&self, asn: Asn) -> Option<Asn> {
        if !self.topo.contains(asn) {
            return None;
        }
        let mut no_rng: Option<&mut DetRng> = None;
        self.chain_to_core(asn, &mut no_rng).last().copied()
    }

    /// A valley-free AS path from `vantage` to `origin`, in AS_PATH
    /// order (`vantage` first, `origin` last). Returns `None` when
    /// either endpoint is unknown. Passing a `rng` diversifies provider
    /// choices; without one the canonical path is returned.
    pub fn path(
        &self,
        vantage: Asn,
        origin: Asn,
        mut rng: Option<&mut DetRng>,
    ) -> Option<Vec<Asn>> {
        if !self.topo.contains(vantage) || !self.topo.contains(origin) {
            return None;
        }
        if vantage == origin {
            return Some(vec![origin]);
        }
        // Direct adjacency: use it when the edge is policy-usable
        // (vantage can reach origin through any relationship: the
        // origin's announcement to vantage is allowed for
        // self-originated routes on every edge type).
        if self.topo.rel(vantage, origin).is_some() {
            return Some(vec![vantage, origin]);
        }
        let up_v = self.chain_to_core(vantage, &mut rng);
        let up_o = self.chain_to_core(origin, &mut rng);
        // Join at the first AS of the vantage chain that also appears
        // in the origin chain (minimizes the combined length greedily).
        let pos_in_o: HashMap<Asn, usize> = up_o.iter().enumerate().map(|(i, a)| (*a, i)).collect();
        let mut best: Option<(usize, usize)> = None;
        for (i, a) in up_v.iter().enumerate() {
            if let Some(&j) = pos_in_o.get(a) {
                if best.is_none_or(|(bi, bj)| i + j < bi + bj) {
                    best = Some((i, j));
                }
            }
        }
        let mut path: Vec<Asn> = Vec::new();
        match best {
            Some((i, j)) => {
                path.extend_from_slice(&up_v[..=i]);
                for k in (0..j).rev() {
                    path.push(up_o[k]);
                }
            }
            None => {
                // Distinct cores: the core is fully meshed, so join
                // across one core-core peer edge.
                let top_v = *up_v.last().expect("chain nonempty");
                let top_o = *up_o.last().expect("chain nonempty");
                if self.topo.rel(top_v, top_o) != Some(Rel::Peer) {
                    return None; // disconnected islands (not grown today)
                }
                path.extend_from_slice(&up_v);
                for k in (0..up_o.len()).rev() {
                    path.push(up_o[k]);
                }
            }
        }
        debug_assert!(
            path.first() == Some(&vantage) && path.last() == Some(&origin),
            "endpoints mismatch"
        );
        Some(path)
    }
}

/// Per-AS result of the reference route computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRoute {
    /// Route preference class: 0 self, 1 customer, 2 peer, 3 provider.
    pub class: u8,
    /// Path in AS_PATH order (this AS first, origin last).
    pub path: Vec<Asn>,
}

/// Reference Gao-Rexford route computation from a single origin,
/// returning the selected route per AS that can reach it.
///
/// Selection is lexicographic: lowest class (customer > peer >
/// provider, mirroring LOCAL_PREF practice), then shortest path, then
/// lowest next-hop ASN — a deterministic stand-in for router-id
/// tie-breaks.
pub fn gao_rexford_routes(topo: &Topology, origin: Asn) -> HashMap<Asn, PolicyRoute> {
    let mut best: HashMap<Asn, (u8, usize, u32)> = HashMap::new();
    let mut paths: HashMap<Asn, Vec<Asn>> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u8, usize, u32, Asn)>> = BinaryHeap::new();

    if !topo.contains(origin) {
        return HashMap::new();
    }
    best.insert(origin, (0, 0, 0));
    paths.insert(origin, vec![origin]);
    heap.push(Reverse((0, 0, 0, origin)));

    while let Some(Reverse((class, len, tie, u))) = heap.pop() {
        if best.get(&u) != Some(&(class, len, tie)) {
            continue; // stale entry
        }
        let source = if class == 0 {
            RouteSource::SelfOriginated
        } else {
            RouteSource::From(match class {
                1 => Rel::Customer,
                2 => Rel::Peer,
                _ => Rel::Provider,
            })
        };
        for (w, rel_from_u) in topo.neighbors(u) {
            // `rel_from_u` is w's relationship from u's perspective.
            if !may_export(source, rel_from_u) {
                continue;
            }
            // w's class for a route learned from u depends on u's
            // relationship from w's perspective.
            let rel_from_w = rel_from_u.invert();
            let new_class = match rel_from_w {
                Rel::Customer => 1,
                Rel::Peer => 2,
                Rel::Provider => 3,
                Rel::Sibling => class.max(1), // transparent, but not self
            };
            let key = (new_class, len + 1, u.value());
            let better = match best.get(&w) {
                None => true,
                Some(cur) => key < *cur,
            };
            if better {
                best.insert(w, key);
                let mut p = Vec::with_capacity(len + 2);
                p.push(w);
                p.extend_from_slice(&paths[&u]);
                paths.insert(w, p);
                heap.push(Reverse((new_class, len + 1, u.value(), w)));
            }
        }
    }

    best.into_iter()
        .map(|(asn, (class, _, _))| {
            let path = paths.remove(&asn).expect("path recorded with best");
            PolicyRoute { class, path }
        })
        .zip_check()
}

/// Helper to rebuild the map with ASN keys (zip of keys and routes).
trait ZipCheck {
    fn zip_check(self) -> HashMap<Asn, PolicyRoute>;
}

impl<I: Iterator<Item = PolicyRoute>> ZipCheck for I {
    fn zip_check(self) -> HashMap<Asn, PolicyRoute> {
        self.map(|r| (r.path[0], r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GrowthParams;
    use moas_bgp::policy::is_valley_free;

    fn topo() -> Topology {
        Topology::grow(GrowthParams::tiny(), &DetRng::new(42))
    }

    #[test]
    fn self_path_is_trivial() {
        let t = topo();
        let s = PathSynth::new(&t);
        let a = t.nodes()[10].asn;
        assert_eq!(s.path(a, a, None), Some(vec![a]));
    }

    #[test]
    fn unknown_endpoints_yield_none() {
        let t = topo();
        let s = PathSynth::new(&t);
        let a = t.nodes()[0].asn;
        assert_eq!(s.path(a, Asn::new(999_999), None), None);
        assert_eq!(s.path(Asn::new(999_999), a, None), None);
    }

    #[test]
    fn paths_connect_endpoints_and_are_loop_free() {
        let t = topo();
        let s = PathSynth::new(&t);
        let nodes = t.nodes();
        for i in (0..nodes.len()).step_by(13) {
            for j in (0..nodes.len()).step_by(17) {
                let (v, o) = (nodes[i].asn, nodes[j].asn);
                let p = s.path(v, o, None).expect("connected world");
                assert_eq!(*p.first().unwrap(), v);
                assert_eq!(*p.last().unwrap(), o);
                let mut d = p.clone();
                d.sort_unstable();
                d.dedup();
                assert_eq!(d.len(), p.len(), "loop in path {p:?}");
            }
        }
    }

    #[test]
    fn synthesized_paths_are_valley_free() {
        let t = topo();
        let s = PathSynth::new(&t);
        let nodes = t.nodes();
        let rel = |a: Asn, b: Asn| t.rel(a, b);
        for i in (0..nodes.len()).step_by(7) {
            for j in (0..nodes.len()).step_by(11) {
                let (v, o) = (nodes[i].asn, nodes[j].asn);
                if let Some(p) = s.path(v, o, None) {
                    // Announcement order = reverse of AS_PATH order.
                    let ann: Vec<Asn> = p.iter().rev().copied().collect();
                    assert!(is_valley_free(&ann, rel), "valley in {v}->{o}: {p:?}");
                }
            }
        }
    }

    #[test]
    fn rng_diversifies_but_stays_valid() {
        let t = topo();
        let s = PathSynth::new(&t);
        let nodes = t.nodes();
        let v = nodes[nodes.len() - 1].asn;
        let o = nodes[nodes.len() - 5].asn;
        let mut distinct = std::collections::HashSet::new();
        for k in 0..20 {
            let mut rng = DetRng::new(5).substream_idx("path", k);
            let p = s.path(v, o, Some(&mut rng)).unwrap();
            assert_eq!(*p.first().unwrap(), v);
            assert_eq!(*p.last().unwrap(), o);
            distinct.insert(p);
        }
        // Multi-homing must produce some diversity in a 200-AS world.
        assert!(distinct.len() > 1, "no path diversity");
    }

    #[test]
    fn reference_routes_reach_everyone_in_connected_world() {
        let t = topo();
        let origin = t.nodes()[50].asn;
        let routes = gao_rexford_routes(&t, origin);
        // Every AS should reach the origin (the growth model attaches
        // every AS beneath the meshed core).
        assert_eq!(routes.len(), t.len());
        for (asn, r) in &routes {
            assert_eq!(r.path[0], *asn);
            assert_eq!(*r.path.last().unwrap(), origin);
        }
        assert_eq!(routes[&origin].class, 0);
    }

    #[test]
    fn reference_routes_are_valley_free() {
        let t = topo();
        let origin = t.nodes()[3].asn; // a core AS
        let routes = gao_rexford_routes(&t, origin);
        let rel = |a: Asn, b: Asn| t.rel(a, b);
        for r in routes.values() {
            let ann: Vec<Asn> = r.path.iter().rev().copied().collect();
            assert!(is_valley_free(&ann, rel), "valley in {:?}", r.path);
        }
    }

    #[test]
    fn reference_prefers_customer_routes() {
        let t = topo();
        let origin = t.nodes()[60].asn;
        let routes = gao_rexford_routes(&t, origin);
        // The origin's direct provider must use a customer route of
        // length 2 — nothing can beat it.
        for p in t.neighbors_with(origin, Rel::Provider) {
            let r = &routes[&p];
            assert_eq!(r.class, 1, "provider of origin should use customer route");
            assert_eq!(r.path.len(), 2);
        }
    }

    #[test]
    fn fast_paths_not_much_longer_than_reference() {
        let t = topo();
        let s = PathSynth::new(&t);
        let origin = t.nodes()[100].asn;
        let routes = gao_rexford_routes(&t, origin);
        let mut total_fast = 0usize;
        let mut total_ref = 0usize;
        for i in (0..t.len()).step_by(5) {
            let v = t.nodes()[i].asn;
            let fast = s.path(v, origin, None).unwrap();
            let reference = &routes[&v].path;
            total_fast += fast.len();
            total_ref += reference.len();
        }
        // The join heuristic may be longer but not pathologically so.
        assert!(
            (total_fast as f64) < (total_ref as f64) * 1.6,
            "fast {total_fast} vs ref {total_ref}"
        );
    }
}
