//! Acceptance: the streaming monitor and the batch pipeline agree.
//!
//! A multi-day synthetic update stream (cold-start announcement of the
//! first table, then day-transition diffs) is ingested by the sharded
//! engine; the emitted event log, folded into a [`Timeline`], must
//! match the batch pipeline's `total_conflicts()` and sorted
//! `durations()` exactly — for shard counts 1, 4 and 8 — and every
//! marked day's merged conflict set must equal batch `detect()` on the
//! materialized snapshot.

use moas_core::detect::detect;
use moas_core::detector::{Anomaly, OriginProfiler, ProfilerConfig};
use moas_core::timeline::Timeline;
use moas_lab::study::{Study, StudyConfig};
use moas_monitor::{MonitorConfig, MonitorEngine};
use moas_net::{Asn, Date, Prefix};
use moas_routeviews::{BackgroundMode, Collector, WindowStream};

const START: usize = 0;
const DAYS: usize = 48;
const BACKGROUND: BackgroundMode = BackgroundMode::Sample(15);

fn study() -> Study {
    Study::build(StudyConfig::test(0.004))
}

/// A day's conflicts, compared as `(prefix, origins)` pairs.
type ConflictSet = Vec<(Prefix, Vec<Asn>)>;

/// The batch reference: detect() on each materialized day, recorded
/// into a Timeline, plus each day's conflict set.
fn batch_reference(study: &Study) -> (Timeline, Vec<ConflictSet>) {
    let mut collector = Collector::new(&study.world, &study.peers);
    let dates = window_dates(study);
    let mut tl = Timeline::new(dates, DAYS);
    let mut daily_sets = Vec::new();
    for i in 0..DAYS {
        let snap = collector.snapshot_at(START + i, BACKGROUND);
        let obs = detect(&snap);
        daily_sets.push(
            obs.conflicts
                .iter()
                .map(|c| (c.prefix, c.origins.clone()))
                .collect(),
        );
        tl.record(i, &obs);
    }
    (tl, daily_sets)
}

fn window_dates(study: &Study) -> Vec<Date> {
    study.world.window.all_days()[START..START + DAYS]
        .iter()
        .map(|d| d.date())
        .collect()
}

/// Runs the engine over the window; returns its report and the live
/// conflict set read right after each day mark.
fn run_monitor_with(
    study: &Study,
    config: MonitorConfig,
) -> (moas_monitor::MonitorReport, Vec<ConflictSet>) {
    let mut collector = Collector::new(&study.world, &study.peers);
    let mut engine = MonitorEngine::new(config);
    let mut daily_sets = Vec::new();
    let mut stream = WindowStream::new(&mut collector, START, START + DAYS, BACKGROUND);
    for day in &mut stream {
        engine.ingest_all(&day.records);
        engine.mark_day(day.idx - START, day.snapshot.date);
        daily_sets.push(
            engine
                .snapshot()
                .open_conflicts()
                .into_iter()
                .map(|c| (c.prefix, c.origins))
                .collect(),
        );
    }
    (engine.finish(), daily_sets)
}

fn run_monitor(study: &Study, shards: usize) -> (moas_monitor::MonitorReport, Vec<ConflictSet>) {
    run_monitor_with(study, MonitorConfig::with_shards(shards))
}

#[test]
fn streaming_batch_equivalence_across_shard_counts() {
    let study = study();
    let (batch_tl, batch_daily) = batch_reference(&study);
    let dates = window_dates(&study);
    assert!(
        batch_tl.total_conflicts() > 0,
        "study window must contain conflicts for the test to mean anything"
    );

    for shards in [1usize, 4, 8] {
        let (report, monitor_daily) = run_monitor(&study, shards);

        // (1) Event log folded into a Timeline matches batch exactly.
        let folded = report.fold_into_timeline(&dates, DAYS);
        assert_eq!(
            folded.total_conflicts(),
            batch_tl.total_conflicts(),
            "total_conflicts diverged at {shards} shards"
        );
        let mut batch_durations = batch_tl.durations();
        let mut folded_durations = folded.durations();
        batch_durations.sort_unstable();
        folded_durations.sort_unstable();
        assert_eq!(
            folded_durations, batch_durations,
            "durations diverged at {shards} shards"
        );

        // (2) Every marked day's merged conflict set equals detect().
        assert_eq!(monitor_daily.len(), batch_daily.len());
        for (i, (monitor_set, batch_set)) in monitor_daily.iter().zip(&batch_daily).enumerate() {
            assert_eq!(monitor_set, batch_set, "day {i} at {shards} shards");
        }
    }
}

/// Cross-shard §VII profiler aggregation: the monitor's origin-surge
/// alarms must exactly match a batch [`OriginProfiler`] run over each
/// day's full observation — per-shard involvement counts are merged at
/// day marks before the (single, global) profiler sees them, so the
/// alarm stream is identical at every shard count.
#[test]
fn origin_surge_alarms_match_batch_profiler() {
    let study = study();
    // Sensitive thresholds so the synthetic window actually surges
    // (top per-day involvement in this window is 2).
    let profiler_config = ProfilerConfig {
        alpha: 0.1,
        surge_factor: 1.5,
        min_count: 2,
    };

    // Batch reference: one profiler over each materialized day.
    let mut collector = Collector::new(&study.world, &study.peers);
    let mut batch_profiler = OriginProfiler::new(profiler_config);
    let mut batch_surges: Vec<(usize, Anomaly)> = Vec::new();
    for i in 0..DAYS {
        let snap = collector.snapshot_at(START + i, BACKGROUND);
        let obs = detect(&snap);
        for a in batch_profiler.observe(&obs) {
            batch_surges.push((i, a));
        }
    }
    assert!(
        !batch_surges.is_empty(),
        "thresholds must trip in-window for the test to mean anything"
    );

    for shards in [1usize, 4, 8] {
        let config = MonitorConfig {
            profiler: profiler_config,
            ..MonitorConfig::with_shards(shards)
        };
        let (report, _) = run_monitor_with(&study, config);
        let monitor_surges: Vec<(usize, Anomaly)> = report
            .alarms
            .iter()
            .filter(|(_, a)| matches!(a, Anomaly::OriginSurge { .. }))
            .cloned()
            .collect();
        assert_eq!(
            monitor_surges, batch_surges,
            "surge alarms diverged at {shards} shards"
        );
    }
}

#[test]
fn monitor_emits_real_time_durations_and_metrics() {
    let study = study();
    let (report, _) = run_monitor(&study, 4);

    // The stream window must have produced lifecycle events, and every
    // close must postdate its open.
    assert!(!report.events.is_empty(), "no events over {DAYS} days");
    for e in &report.events {
        if let Some(d) = e.event.duration_secs() {
            assert!(d < (DAYS as u32 + 2) * 86_400);
        }
    }
    // The engine accounted for every routed update.
    assert_eq!(
        report.metrics.updates_routed,
        report.metrics.updates_applied
    );
    assert_eq!(report.metrics.day_marks, DAYS as u64);
    assert!(report.metrics.batches_sent > 0);
}

#[test]
fn epoch_snapshot_matches_day_state() {
    let study = study();
    let mut collector = Collector::new(&study.world, &study.peers);
    let mut engine = MonitorEngine::new(MonitorConfig::with_shards(4));

    let mut stream = WindowStream::new(&mut collector, START, START + 6, BACKGROUND);
    let mut last_date = None;
    for day in &mut stream {
        engine.ingest_all(&day.records);
        last_date = Some(day.snapshot.date);
    }
    // Query without stopping ingestion, then compare against batch
    // detection on the same day's table.
    let snap = engine.snapshot();
    let mut collector2 = Collector::new(&study.world, &study.peers);
    let table = collector2.snapshot_at(START + 5, BACKGROUND);
    assert_eq!(Some(table.date), last_date);
    let obs = detect(&table);
    let live: Vec<(Prefix, Vec<Asn>)> = snap
        .open_conflicts()
        .iter()
        .map(|c| (c.prefix, c.origins.clone()))
        .collect();
    let batch: Vec<(Prefix, Vec<Asn>)> = obs
        .conflicts
        .iter()
        .map(|c| (c.prefix, c.origins.clone()))
        .collect();
    assert_eq!(live, batch);
    // Epochs are monotone across consecutive snapshots of an idle
    // engine.
    let again = engine.snapshot();
    assert_eq!(snap.epochs(), again.epochs());
    let report = engine.finish();
    assert_eq!(report.metrics.queries_served, 8);
}
