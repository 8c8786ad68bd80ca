//! # moas-bench — benchmark harness and figures binary
//!
//! * `src/bin/figures.rs` — regenerates every table and figure of the
//!   paper from a full study run.
//! * `benches/` — Criterion benchmarks: one per pipeline stage and per
//!   figure, plus the ablation benches DESIGN.md calls out.
//!
//! The library part only re-exports a tiny helper for building scaled
//! studies shared by benches.

#![forbid(unsafe_code)]

use moas_lab::study::{Study, StudyConfig};
use moas_monitor::{MonitorEvent, SeqEvent};
use moas_net::{Asn, Prefix};

/// Builds the standard benchmark study (small scale, deterministic).
pub fn bench_study(scale: f64) -> Study {
    Study::build(StudyConfig::test(scale))
}

/// A synthetic multi-month lifecycle-event log for history benches:
/// conflicts cycling over a pool of `prefixes`, each episode an open,
/// a flap pair, and a close. Shared by the Criterion history bench
/// and the quick-mode CI bench so both measure the same workload.
pub fn synth_history_events(n: usize, prefixes: u32) -> Vec<SeqEvent> {
    let pool: Vec<Prefix> = (0..prefixes)
        .map(|i| {
            format!("10.{}.{}.0/24", (i >> 8) & 0xFF, i & 0xFF)
                .parse()
                .unwrap()
        })
        .collect();
    let mut events = Vec::with_capacity(n);
    let mut seq = 0u64;
    let mut at = 0u32;
    while events.len() < n {
        let p = pool[(seq % prefixes as u64) as usize];
        let a = Asn::new(100 + (seq % 1024) as u32);
        let b = Asn::new(4_000 + (seq % 512) as u32);
        at += 30;
        for event in [
            MonitorEvent::ConflictOpened {
                prefix: p,
                origins: vec![a, b],
                at,
            },
            MonitorEvent::OriginAdded {
                prefix: p,
                origin: Asn::new(9_000),
                at: at + 5,
            },
            MonitorEvent::OriginWithdrawn {
                prefix: p,
                origin: Asn::new(9_000),
                at: at + 10,
            },
            MonitorEvent::ConflictClosed {
                prefix: p,
                opened_at: at,
                at: at + 20,
            },
        ] {
            events.push(SeqEvent {
                shard: (seq % 8) as usize,
                seq,
                event,
            });
            seq += 1;
        }
    }
    events.truncate(n);
    events
}
