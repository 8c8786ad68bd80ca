//! Incremental per-prefix origin state for one shard.
//!
//! This is `moas_core::detect` turned inside out: instead of scanning
//! a materialized table, every route-level update adjusts per-prefix
//! origin counters in O(1) and reports the conflict-state transition
//! it caused. The invariant that makes streaming and batch agree is
//! spelled out on the internal `PrefixState`: a prefix is in conflict exactly
//! when it holds no AS-set-terminated route (§III exclusion) and its
//! live routes carry ≥ 2 distinct single origins — precisely the
//! predicate `detect()` evaluates on a snapshot of the same routes.

use crate::event::MonitorEvent;
use moas_net::{AsPath, Asn, Origin, Prefix};
use std::collections::HashMap;
use std::net::IpAddr;

/// A peer session, identified as the replayer does: peering address
/// plus peer AS.
pub type SessionKey = (IpAddr, Asn);

/// One route-level change extracted from an UPDATE.
#[derive(Debug, Clone)]
pub struct RouteUpdate {
    /// The announcing/withdrawing session.
    pub session: SessionKey,
    /// The prefix concerned.
    pub prefix: Prefix,
    /// Announce (with the new path) or withdraw.
    pub action: UpdateAction,
    /// BGP4MP timestamp of the enclosing record.
    pub at: u32,
    /// The vantage point (collector) that observed the update. Always
    /// 0 for single-collector ingest; a federation tags each update
    /// with its source so shards can attribute origin sightings.
    pub collector: u16,
}

/// What an update does to one (session, prefix) slot.
#[derive(Debug, Clone)]
pub enum UpdateAction {
    /// Announce or implicitly replace the session's route.
    Announce(AsPath),
    /// Withdraw the session's route.
    Withdraw,
    /// A deduplicated cross-collector sighting: another collector saw
    /// an identical announcement for this origin. Touches no route
    /// state — it only widens the `(prefix, origin)` vantage mask.
    Corroborate(Asn),
}

/// Live state for one prefix.
///
/// Invariant: `routes` holds the origin of each session's current
/// route for this prefix; `single_origins[o]` is the number of those
/// with single origin `o`, and `set_routes` counts the
/// AS-set-terminated ones. The prefix is in conflict iff
/// `set_routes == 0` and `single_origins.len() >= 2`.
#[derive(Debug, Default)]
struct PrefixState {
    routes: HashMap<SessionKey, Origin>,
    single_origins: HashMap<Asn, u32>,
    set_routes: u32,
    /// Set while a conflict is open: the opening timestamp.
    open_since: Option<u32>,
}

impl PrefixState {
    fn is_conflict(&self) -> bool {
        self.set_routes == 0 && self.single_origins.len() >= 2
    }

    fn sorted_origins(&self) -> Vec<Asn> {
        let mut origins: Vec<Asn> = self.single_origins.keys().copied().collect();
        origins.sort_unstable();
        origins
    }

    /// Removes one session's contribution from the counters. Returns
    /// the single origin whose count dropped to zero, if any.
    fn drop_route(&mut self, origin: &Origin) -> Option<Asn> {
        match origin {
            Origin::Single(o) => {
                let n = self
                    .single_origins
                    .get_mut(o)
                    .expect("counter exists for held origin");
                *n -= 1;
                if *n == 0 {
                    self.single_origins.remove(o);
                    return Some(*o);
                }
                None
            }
            Origin::Set(_) => {
                self.set_routes -= 1;
                None
            }
            Origin::None => None,
        }
    }

    /// Adds one session's contribution. Returns the single origin that
    /// newly appeared, if any.
    fn add_route(&mut self, origin: &Origin) -> Option<Asn> {
        match origin {
            Origin::Single(o) => {
                let n = self.single_origins.entry(*o).or_insert(0);
                *n += 1;
                (*n == 1).then_some(*o)
            }
            Origin::Set(_) => {
                self.set_routes += 1;
                None
            }
            Origin::None => None,
        }
    }
}

/// An open conflict, as reported by snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveConflict {
    /// The conflicted prefix.
    pub prefix: Prefix,
    /// Distinct origins currently held (sorted).
    pub origins: Vec<Asn>,
    /// When the conflict opened (update-stream timestamp).
    pub opened_at: u32,
}

/// The full origin state owned by one shard.
#[derive(Debug, Default)]
pub struct ShardState {
    prefixes: HashMap<Prefix, PrefixState>,
    live_routes: u64,
    spurious_withdrawals: u64,
    /// Whether corroboration tracking is on (federated engine,
    /// `collectors > 1`). Off, the masks map stays empty and `apply`
    /// emits exactly the single-collector event stream.
    track_corroboration: bool,
    /// Per `(prefix, origin)` vantage bitmask: bit `c` set means
    /// collector `c` announced `origin` for `prefix` at some point.
    /// Kept outside [`PrefixState`] on purpose — a fully withdrawn
    /// prefix leaves the prefix table, but "who has ever seen this
    /// origin" must survive withdrawal for §VI corroboration scoring.
    masks: HashMap<(Prefix, Asn), u64>,
}

impl ShardState {
    /// An empty shard.
    pub fn new() -> Self {
        ShardState::default()
    }

    /// An empty shard with cross-collector corroboration tracking
    /// enabled when `collectors > 1`.
    pub fn with_collectors(collectors: usize) -> Self {
        ShardState {
            track_corroboration: collectors > 1,
            ..ShardState::default()
        }
    }

    /// Sets bit `collector` in the `(prefix, origin)` vantage mask.
    /// Returns the new cumulative mask if the bit was not already set.
    /// `collector` is below `MonitorConfig::collectors` (at most 64):
    /// the engine rejects any other id before routing the update.
    fn widen_mask(&mut self, prefix: Prefix, origin: Asn, collector: u16) -> Option<u64> {
        if !self.track_corroboration {
            return None;
        }
        let bit = 1u64 << collector;
        let mask = self.masks.entry((prefix, origin)).or_insert(0);
        if *mask & bit != 0 {
            return None;
        }
        *mask |= bit;
        Some(*mask)
    }

    /// The current vantage mask for `(prefix, origin)` (0 when
    /// untracked or never seen).
    pub fn corroboration_mask(&self, prefix: Prefix, origin: Asn) -> u64 {
        self.masks.get(&(prefix, origin)).copied().unwrap_or(0)
    }

    /// Applies one route update; returns the lifecycle events it
    /// caused (at most two route-level events — an origin change plus
    /// a state transition — plus, when federated, the corroboration
    /// events for origins whose vantage mask changed).
    pub fn apply(&mut self, update: &RouteUpdate) -> Vec<MonitorEvent> {
        let mut events = Vec::new();
        let at = update.at;
        let prefix = update.prefix;

        // Corroborations never touch route state: widen the vantage
        // mask and, if the prefix is currently in conflict, surface
        // the change as an event for the history fold.
        if let UpdateAction::Corroborate(origin) = &update.action {
            if let Some(mask) = self.widen_mask(prefix, *origin, update.collector) {
                let in_conflict = self
                    .prefixes
                    .get(&prefix)
                    .is_some_and(|st| st.is_conflict());
                if in_conflict {
                    events.push(MonitorEvent::OriginCorroborated {
                        prefix,
                        origin: *origin,
                        mask,
                        at,
                    });
                }
            }
            return events;
        }

        let st = self.prefixes.entry(prefix).or_default();

        let was_conflict = st.is_conflict();
        let mut removed: Option<Asn> = None;
        let mut added: Option<Asn> = None;

        match &update.action {
            UpdateAction::Announce(path) => {
                let origin = path.origin();
                if let Some(old) = st.routes.remove(&update.session) {
                    removed = st.drop_route(&old);
                } else {
                    self.live_routes += 1;
                }
                added = st.add_route(&origin);
                st.routes.insert(update.session, origin);
            }
            UpdateAction::Withdraw => match st.routes.remove(&update.session) {
                Some(old) => {
                    removed = st.drop_route(&old);
                    self.live_routes -= 1;
                }
                None => {
                    self.spurious_withdrawals += 1;
                }
            },
            UpdateAction::Corroborate(_) => unreachable!("handled above"),
        }

        // A same-origin replacement cancels out: nothing observable
        // changed at the origin level.
        if removed == added {
            removed = None;
            added = None;
        }

        let now_conflict = st.is_conflict();
        match (was_conflict, now_conflict) {
            (false, true) => {
                st.open_since = Some(at);
                events.push(MonitorEvent::ConflictOpened {
                    prefix,
                    origins: st.sorted_origins(),
                    at,
                });
            }
            (true, false) => {
                let opened_at = st.open_since.take().expect("open conflict has open_since");
                events.push(MonitorEvent::ConflictClosed {
                    prefix,
                    opened_at,
                    at,
                });
            }
            (true, true) => {
                if let Some(origin) = added {
                    events.push(MonitorEvent::OriginAdded { prefix, origin, at });
                }
                if let Some(origin) = removed {
                    events.push(MonitorEvent::OriginWithdrawn { prefix, origin, at });
                }
            }
            (false, false) => {}
        }

        // Fully withdrawn prefixes leave the table entirely, exactly
        // like a snapshot that no longer carries them.
        if st.routes.is_empty() {
            self.prefixes.remove(&prefix);
        }

        // Federated: record which collector saw the announced origin,
        // and narrate mask changes for open conflicts. Emitted after
        // the transition event so a fold sees `ConflictOpened` before
        // the masks of its origins.
        if self.track_corroboration {
            if let UpdateAction::Announce(path) = &update.action {
                if let Origin::Single(o) = path.origin() {
                    let widened = self.widen_mask(prefix, o, update.collector);
                    let open_now = self
                        .prefixes
                        .get(&prefix)
                        .is_some_and(|st| st.is_conflict());
                    if open_now {
                        match (was_conflict, now_conflict) {
                            // Opening update: surface every current
                            // origin's mask, so the episode starts with
                            // full vantage attribution.
                            (false, true) => {
                                let origins = self
                                    .prefixes
                                    .get(&prefix)
                                    .map(|st| st.sorted_origins())
                                    .unwrap_or_default();
                                for origin in origins {
                                    let mask = self.corroboration_mask(prefix, origin);
                                    if mask != 0 {
                                        events.push(MonitorEvent::OriginCorroborated {
                                            prefix,
                                            origin,
                                            mask,
                                            at,
                                        });
                                    }
                                }
                            }
                            _ => {
                                if let Some(mask) = widened {
                                    events.push(MonitorEvent::OriginCorroborated {
                                        prefix,
                                        origin: o,
                                        mask,
                                        at,
                                    });
                                } else if added == Some(o) {
                                    // The origin joined an open
                                    // conflict with a mask built up
                                    // before it was conflicted —
                                    // re-announce it for the fold.
                                    let mask = self.corroboration_mask(prefix, o);
                                    if mask != 0 {
                                        events.push(MonitorEvent::OriginCorroborated {
                                            prefix,
                                            origin: o,
                                            mask,
                                            at,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        events
    }

    /// Routes currently held across sessions.
    pub fn route_count(&self) -> u64 {
        self.live_routes
    }

    /// Distinct prefixes with at least one live route.
    pub fn prefix_count(&self) -> usize {
        self.prefixes.len()
    }

    /// Withdrawals that matched no held route.
    pub fn spurious_withdrawals(&self) -> u64 {
        self.spurious_withdrawals
    }

    /// Approximate retained bytes of this shard's origin state — the
    /// input behind `moas_shard_state_bytes{shard=...}` and the
    /// `moas_resource_bytes{component="shard_state"}` ledger. Container
    /// geometry (entries × struct sizes), not an allocator measurement;
    /// O(prefixes), so callers publish it on a coarse cadence, not per
    /// update.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut total = size_of::<ShardState>() as u64;
        total += (self.masks.len() * (size_of::<(Prefix, Asn)>() + size_of::<u64>())) as u64;
        for state in self.prefixes.values() {
            total += (size_of::<Prefix>() + size_of::<PrefixState>()) as u64;
            total += (state.single_origins.len() * (size_of::<Asn>() + size_of::<u32>())) as u64;
            total += (state.routes.len() * (size_of::<SessionKey>() + size_of::<Origin>())) as u64;
        }
        total
    }

    /// The currently open conflicts (prefix order).
    pub fn open_conflicts(&self) -> Vec<LiveConflict> {
        let mut out: Vec<LiveConflict> = self
            .prefixes
            .iter()
            .filter(|(_, st)| st.is_conflict())
            .map(|(prefix, st)| LiveConflict {
                prefix: *prefix,
                origins: st.sorted_origins(),
                opened_at: st.open_since.expect("open conflict has open_since"),
            })
            .collect();
        out.sort_by_key(|c| c.prefix);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn sess(n: u8, asn: u32) -> SessionKey {
        (IpAddr::V4(Ipv4Addr::new(10, 0, 0, n)), Asn::new(asn))
    }

    fn announce(s: SessionKey, prefix: &str, path: &str, at: u32) -> RouteUpdate {
        RouteUpdate {
            session: s,
            prefix: prefix.parse().unwrap(),
            action: UpdateAction::Announce(path.parse().unwrap()),
            at,
            collector: 0,
        }
    }

    fn withdraw(s: SessionKey, prefix: &str, at: u32) -> RouteUpdate {
        RouteUpdate {
            session: s,
            prefix: prefix.parse().unwrap(),
            action: UpdateAction::Withdraw,
            at,
            collector: 0,
        }
    }

    fn announce_from(c: u16, s: SessionKey, prefix: &str, path: &str, at: u32) -> RouteUpdate {
        RouteUpdate {
            collector: c,
            ..announce(s, prefix, path, at)
        }
    }

    fn corroborate(c: u16, s: SessionKey, prefix: &str, origin: u32, at: u32) -> RouteUpdate {
        RouteUpdate {
            session: s,
            prefix: prefix.parse().unwrap(),
            action: UpdateAction::Corroborate(Asn::new(origin)),
            at,
            collector: c,
        }
    }

    #[test]
    fn open_and_close_lifecycle() {
        let mut st = ShardState::new();
        assert!(st
            .apply(&announce(sess(1, 701), "192.0.2.0/24", "701 7", 10))
            .is_empty());
        let ev = st.apply(&announce(sess(2, 1239), "192.0.2.0/24", "1239 9", 20));
        assert_eq!(
            ev,
            vec![MonitorEvent::ConflictOpened {
                prefix: "192.0.2.0/24".parse().unwrap(),
                origins: vec![Asn::new(7), Asn::new(9)],
                at: 20,
            }]
        );
        let ev = st.apply(&withdraw(sess(2, 1239), "192.0.2.0/24", 50));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].duration_secs(), Some(30));
        assert!(st.open_conflicts().is_empty());
    }

    #[test]
    fn origin_churn_in_open_conflict() {
        let mut st = ShardState::new();
        st.apply(&announce(sess(1, 701), "192.0.2.0/24", "701 7", 0));
        st.apply(&announce(sess(2, 1239), "192.0.2.0/24", "1239 9", 1));
        let ev = st.apply(&announce(sess(3, 3561), "192.0.2.0/24", "3561 11", 2));
        assert_eq!(
            ev,
            vec![MonitorEvent::OriginAdded {
                prefix: "192.0.2.0/24".parse().unwrap(),
                origin: Asn::new(11),
                at: 2,
            }]
        );
        // Session 3 re-announces with a different origin: one add and
        // one withdraw, conflict stays open.
        let ev = st.apply(&announce(sess(3, 3561), "192.0.2.0/24", "3561 13", 3));
        assert_eq!(ev.len(), 2);
        assert!(
            matches!(&ev[0], MonitorEvent::OriginAdded { origin, .. } if *origin == Asn::new(13))
        );
        assert!(
            matches!(&ev[1], MonitorEvent::OriginWithdrawn { origin, .. } if *origin == Asn::new(11))
        );
    }

    #[test]
    fn same_origin_replacement_is_silent() {
        let mut st = ShardState::new();
        st.apply(&announce(sess(1, 701), "192.0.2.0/24", "701 7", 0));
        st.apply(&announce(sess(2, 1239), "192.0.2.0/24", "1239 9", 1));
        let ev = st.apply(&announce(sess(1, 701), "192.0.2.0/24", "701 42 7", 2));
        assert!(ev.is_empty(), "path change with same origin: {ev:?}");
    }

    #[test]
    fn as_set_route_closes_and_excludes() {
        let mut st = ShardState::new();
        st.apply(&announce(sess(1, 701), "192.0.2.0/24", "701 7", 0));
        st.apply(&announce(sess(2, 1239), "192.0.2.0/24", "1239 9", 1));
        let ev = st.apply(&announce(sess(3, 3561), "192.0.2.0/24", "3561 {7,9}", 2));
        assert!(matches!(&ev[0], MonitorEvent::ConflictClosed { .. }));
        assert!(st.open_conflicts().is_empty());
        // Withdrawing the set route reopens the conflict.
        let ev = st.apply(&withdraw(sess(3, 3561), "192.0.2.0/24", 3));
        assert!(matches!(&ev[0], MonitorEvent::ConflictOpened { at: 3, .. }));
    }

    #[test]
    fn spurious_withdrawal_counted_not_crashed() {
        let mut st = ShardState::new();
        assert!(st
            .apply(&withdraw(sess(1, 701), "10.0.0.0/8", 0))
            .is_empty());
        assert_eq!(st.spurious_withdrawals(), 1);
        assert_eq!(st.prefix_count(), 0);
    }

    #[test]
    fn full_withdrawal_removes_prefix() {
        let mut st = ShardState::new();
        st.apply(&announce(sess(1, 701), "10.0.0.0/8", "701 7", 0));
        st.apply(&withdraw(sess(1, 701), "10.0.0.0/8", 1));
        assert_eq!(st.prefix_count(), 0);
        assert_eq!(st.route_count(), 0);
    }

    #[test]
    fn single_collector_emits_no_corroboration() {
        let mut st = ShardState::with_collectors(1);
        st.apply(&announce(sess(1, 701), "192.0.2.0/24", "701 7", 0));
        let ev = st.apply(&announce(sess(2, 1239), "192.0.2.0/24", "1239 9", 1));
        assert_eq!(ev.len(), 1, "only the open event: {ev:?}");
        assert_eq!(
            st.corroboration_mask("192.0.2.0/24".parse().unwrap(), Asn::new(7)),
            0
        );
        // A stray corroborate in single-collector mode is a no-op.
        let ev = st.apply(&corroborate(0, sess(1, 701), "192.0.2.0/24", 7, 2));
        assert!(ev.is_empty());
    }

    #[test]
    fn corroboration_masks_widen_and_narrate() {
        let px: Prefix = "192.0.2.0/24".parse().unwrap();
        let mut st = ShardState::with_collectors(3);
        st.apply(&announce(sess(1, 701), "192.0.2.0/24", "701 7", 0));
        let ev = st.apply(&announce(sess(2, 1239), "192.0.2.0/24", "1239 9", 1));
        // Open event first, then both origins' masks (collector 0).
        assert!(matches!(&ev[0], MonitorEvent::ConflictOpened { .. }));
        assert_eq!(ev.len(), 3, "{ev:?}");
        assert_eq!(st.corroboration_mask(px, Asn::new(7)), 0b1);
        // Collector 2 corroborates origin 7: mask widens, event emitted.
        let ev = st.apply(&corroborate(2, sess(1, 701), "192.0.2.0/24", 7, 5));
        assert_eq!(
            ev,
            vec![MonitorEvent::OriginCorroborated {
                prefix: px,
                origin: Asn::new(7),
                mask: 0b101,
                at: 5,
            }]
        );
        // Repeat sighting from the same collector: silent.
        assert!(st
            .apply(&corroborate(2, sess(1, 701), "192.0.2.0/24", 7, 6))
            .is_empty());
        // A direct announce from collector 1 widens too.
        let ev = st.apply(&announce_from(
            1,
            sess(3, 3561),
            "192.0.2.0/24",
            "3561 7",
            7,
        ));
        assert_eq!(
            ev,
            vec![MonitorEvent::OriginCorroborated {
                prefix: px,
                origin: Asn::new(7),
                mask: 0b111,
                at: 7,
            }]
        );
    }

    #[test]
    fn corroboration_mask_survives_prefix_withdrawal() {
        let px: Prefix = "192.0.2.0/24".parse().unwrap();
        let mut st = ShardState::with_collectors(2);
        st.apply(&announce(sess(1, 701), "192.0.2.0/24", "701 7", 0));
        st.apply(&corroborate(1, sess(1, 701), "192.0.2.0/24", 7, 1));
        st.apply(&withdraw(sess(1, 701), "192.0.2.0/24", 2));
        assert_eq!(st.prefix_count(), 0, "prefix fully withdrawn");
        assert_eq!(st.corroboration_mask(px, Asn::new(7)), 0b11);
        // Reopening the conflict re-announces the retained masks.
        st.apply(&announce(sess(1, 701), "192.0.2.0/24", "701 7", 3));
        let ev = st.apply(&announce(sess(2, 1239), "192.0.2.0/24", "1239 9", 4));
        assert!(ev.iter().any(|e| matches!(
            e,
            MonitorEvent::OriginCorroborated { origin, mask: 0b11, .. } if *origin == Asn::new(7)
        )));
    }
}
