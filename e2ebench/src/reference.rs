//! The naive reference: folds the generator's own stream (never the
//! program's decoded records) to end-of-day origins per (session,
//! prefix) and lists the prefixes in conflict at each day cut.
//!
//! A prefix is in conflict at a cut when no session holds an AS_SET
//! route for it and its sessions' routes carry at least two distinct
//! origins. The cut of day `d` is midnight of day `d + 1`: every
//! update stamped before it counts, in stream order.

use crate::gen::{midnight, Shape, Update};
use std::collections::{BTreeMap, BTreeSet};

/// What one route-level update does to a (session, prefix) slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The session now routes the prefix from this origin.
    Origin(u32),
    /// The session's route ends in an AS_SET.
    AsSet,
    /// The session no longer routes the prefix.
    Withdraw,
}

/// One route-level update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteUpdate {
    /// Stream timestamp.
    pub ts: u32,
    /// Peer session.
    pub session: u16,
    /// Prefix index.
    pub prefix: u32,
    /// The change.
    pub action: Action,
}

/// Expands the generator's canonical stream into route-level updates.
pub fn route_updates<'a>(
    shape: &'a Shape,
    updates: &'a [Update],
) -> impl Iterator<Item = RouteUpdate> + 'a {
    updates.iter().flat_map(move |u| {
        let action = if u.withdraw {
            Action::Withdraw
        } else if u.as_set {
            Action::AsSet
        } else {
            Action::Origin(shape.origin(u.session, u.block))
        };
        u.prefixes(shape).map(move |prefix| RouteUpdate {
            ts: u.ts,
            session: u.session,
            prefix,
            action,
        })
    })
}

/// Re-evaluates the prefixes touched since the last cut.
fn settle(
    routes: &BTreeMap<u32, BTreeMap<u16, Action>>,
    dirty: &mut BTreeSet<u32>,
    conflicted: &mut BTreeSet<u32>,
) {
    for p in std::mem::take(dirty) {
        if routes.get(&p).is_some_and(in_conflict) {
            conflicted.insert(p);
        } else {
            conflicted.remove(&p);
        }
    }
}

fn in_conflict(routes: &BTreeMap<u16, Action>) -> bool {
    let mut origins = BTreeSet::new();
    for action in routes.values() {
        match action {
            Action::Origin(o) => {
                origins.insert(*o);
            }
            Action::AsSet => return false,
            Action::Withdraw => unreachable!("withdrawn routes are removed"),
        }
    }
    origins.len() >= 2
}

/// The prefixes in conflict at the cut of each day `0..days`, sorted.
/// `stream` must be in stream order.
pub fn conflicts_by_day(stream: impl Iterator<Item = RouteUpdate>, days: u32) -> Vec<Vec<u32>> {
    let mut routes: BTreeMap<u32, BTreeMap<u16, Action>> = BTreeMap::new();
    let mut conflicted: BTreeSet<u32> = BTreeSet::new();
    let mut dirty: BTreeSet<u32> = BTreeSet::new();
    let mut out = Vec::with_capacity(days as usize);
    for u in stream {
        while (out.len() as u32) < days && u.ts >= midnight(out.len() as u32 + 1) {
            settle(&routes, &mut dirty, &mut conflicted);
            out.push(conflicted.iter().copied().collect());
        }
        let slot = routes.entry(u.prefix).or_default();
        match u.action {
            Action::Withdraw => {
                slot.remove(&u.session);
            }
            action => {
                slot.insert(u.session, action);
            }
        }
        dirty.insert(u.prefix);
    }
    while (out.len() as u32) < days {
        settle(&routes, &mut dirty, &mut conflicted);
        out.push(conflicted.iter().copied().collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn up(ts: u32, session: u16, prefix: u32, action: Action) -> RouteUpdate {
        RouteUpdate {
            ts,
            session,
            prefix,
            action,
        }
    }

    const T: u32 = 1_000;

    fn day0(h: u32) -> u32 {
        midnight(0) + h
    }

    #[test]
    fn withdraw_before_announce_is_a_no_op() {
        let stream = vec![
            up(day0(T), 1, 5, Action::Withdraw),
            up(day0(T + 1), 1, 5, Action::Origin(10)),
            up(day0(T + 2), 2, 5, Action::Origin(20)),
        ];
        assert_eq!(conflicts_by_day(stream.into_iter(), 1), vec![vec![5]]);
    }

    #[test]
    fn an_as_set_route_excludes_the_prefix() {
        let stream = vec![
            up(day0(T), 1, 5, Action::Origin(10)),
            up(day0(T), 2, 5, Action::Origin(20)),
            up(day0(T), 3, 5, Action::AsSet),
            up(day0(T), 1, 6, Action::Origin(10)),
            up(day0(T), 2, 6, Action::Origin(20)),
        ];
        assert_eq!(conflicts_by_day(stream.into_iter(), 1), vec![vec![6]]);
    }

    #[test]
    fn same_second_updates_apply_in_stream_order() {
        // Both at one timestamp: the later announce replaces the
        // session's route, so origins end up equal — no conflict.
        let stream = vec![
            up(day0(T), 1, 5, Action::Origin(10)),
            up(day0(T), 2, 5, Action::Origin(20)),
            up(day0(T), 2, 5, Action::Origin(10)),
        ];
        assert_eq!(
            conflicts_by_day(stream.into_iter(), 1),
            vec![Vec::<u32>::new()]
        );
        // Reversed order of the last two: the conflict stands.
        let stream = vec![
            up(day0(T), 1, 5, Action::Origin(10)),
            up(day0(T), 2, 5, Action::Origin(10)),
            up(day0(T), 2, 5, Action::Origin(20)),
        ];
        assert_eq!(conflicts_by_day(stream.into_iter(), 1), vec![vec![5]]);
    }

    #[test]
    fn a_conflict_spans_the_day_boundary_until_withdrawn() {
        let stream = vec![
            up(day0(T), 1, 5, Action::Origin(10)),
            up(day0(T), 2, 5, Action::Origin(20)),
            // Exactly at the day-0 cut: counts for day 1, not day 0.
            up(midnight(1), 2, 5, Action::Withdraw),
            up(midnight(1) + 10, 2, 5, Action::Origin(20)),
            up(midnight(2) + 10, 1, 5, Action::Withdraw),
        ];
        assert_eq!(
            conflicts_by_day(stream.into_iter(), 3),
            vec![vec![5], vec![5], vec![]]
        );
    }

    #[test]
    fn days_without_updates_repeat_the_last_state() {
        let stream = vec![
            up(day0(T), 1, 5, Action::Origin(10)),
            up(day0(T), 2, 5, Action::Origin(20)),
        ];
        assert_eq!(
            conflicts_by_day(stream.into_iter(), 3),
            vec![vec![5], vec![5], vec![5]]
        );
    }
}
