//! The figures harness: regenerates every table and figure of the
//! paper from a full study run and prints paper-vs-measured rows.
//!
//! ```text
//! figures [--scale S] [--threads N] [--artifacts DIR] [EXPERIMENT...]
//! ```
//!
//! Experiments: `fig1 fig2 fig3 fig4 fig5 fig6 vantage xp asset faults
//! detector` (default: all). `--scale 1` (default) reproduces the
//! paper-scale world (~1–2 minutes); smaller scales shrink everything
//! proportionally for quick looks.

use moas_core::causes;
use moas_core::detector::{MoasMonitor, OriginProfiler, ProfilerConfig};
use moas_core::report::{ascii_chart, ascii_log_hist, csv, text_table, write_artifact};
use moas_core::stats;
use moas_core::timeline::Timeline;
use moas_lab::study::{Study, StudyConfig};
use moas_net::{Asn, Date};
use moas_routeviews::BackgroundMode;
use std::path::PathBuf;

struct Args {
    scale: f64,
    threads: usize,
    artifacts: PathBuf,
    experiments: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1.0,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2),
        artifacts: PathBuf::from("artifacts"),
        experiments: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
            }
            "--artifacts" => {
                args.artifacts = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| die("--artifacts needs a path"));
            }
            "--help" | "-h" => {
                println!(
                    "figures [--scale S] [--threads N] [--artifacts DIR] [EXPERIMENT...]\n\
                     experiments: fig1 fig2 fig3 fig4 fig5 fig6 vantage xp asset faults detector"
                );
                std::process::exit(0);
            }
            other => args.experiments.push(other.to_string()),
        }
    }
    if args.experiments.is_empty() {
        args.experiments = [
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "vantage", "xp", "asset", "faults",
            "detector", "submoas",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let scale = args.scale;
    let scaled = move |v: f64| v * scale;

    eprintln!("building world (scale {scale}) …");
    let config = if (scale - 1.0).abs() < f64::EPSILON {
        StudyConfig::paper()
    } else {
        StudyConfig::test(scale)
    };
    let t0 = std::time::Instant::now();
    let study = Study::build(config);
    eprintln!("world ready in {:?}; analyzing …", t0.elapsed());
    let t1 = std::time::Instant::now();
    let tl = study.analyze(args.threads);
    eprintln!("analysis done in {:?}\n", t1.elapsed());

    for exp in &args.experiments {
        match exp.as_str() {
            "fig1" => fig1(&tl, &args, scaled),
            "fig2" => fig2(&tl, &args),
            "fig3" => fig3(&tl, &args, scaled),
            "fig4" => fig4(&tl, &args),
            "fig5" => fig5(&tl, &args),
            "fig6" => fig6(&tl, &args),
            "vantage" => vantage(&study, scaled),
            "xp" => xp(&study, &tl, scaled),
            "asset" => asset(&study, &tl, scaled),
            "faults" => faults(&study, scaled),
            "detector" => detector(&study),
            "submoas" => submoas(&study),
            other => eprintln!("unknown experiment {other:?} (skipped)"),
        }
        println!();
    }
}

fn header(title: &str) {
    println!(
        "==== {title} {}",
        "=".repeat(72usize.saturating_sub(title.len()))
    );
}

fn fig1(tl: &Timeline, args: &Args, scaled: impl Fn(f64) -> f64) {
    header("Figure 1 — MOAS conflicts per day, 1997-11-08 → 2001-07-18");
    let series = stats::fig1_daily_counts(tl);
    let values: Vec<f64> = series.iter().map(|p| p.conflicts as f64).collect();
    println!("{}", ascii_chart(&values, 96, 14));
    let peaks = stats::fig1_peaks(tl, 3);
    println!("\nlargest daily counts (paper: 11 842 on 1998-04-07, 10 226 on 2001-04-06):");
    for p in &peaks {
        println!("  {}  {}", p.date, p.conflicts);
    }
    println!(
        "expected spike scale at this run's scale: {:.0} and {:.0}",
        scaled(11_842.0),
        scaled(10_226.0)
    );
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|p| vec![p.date.to_string(), p.conflicts.to_string()])
        .collect();
    let _ = write_artifact(
        &args.artifacts.join("fig1_daily_counts.csv"),
        &csv(&["date", "conflicts"], &rows),
    );
}

fn fig2(tl: &Timeline, args: &Args) {
    header("Figure 2 — median of MOAS conflicts per year");
    let rows = stats::fig2_yearly_medians(tl, &[1998, 1999, 2000, 2001]);
    let paper = [(1998, 683.0), (1999, 810.5), (2000, 951.0), (2001, 1294.0)];
    let paper_growth: [Option<f64>; 4] = [None, Some(18.7), Some(17.3), Some(36.1)];
    let table: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                r.year.to_string(),
                format!("{:.1}", r.median),
                paper
                    .iter()
                    .find(|(y, _)| *y == r.year)
                    .map(|(_, m)| format!("{m}"))
                    .unwrap_or_default(),
                r.growth_pct.map(|g| format!("{g:.1}%")).unwrap_or_default(),
                paper_growth
                    .get(i)
                    .copied()
                    .flatten()
                    .map(|g| format!("{g}%"))
                    .unwrap_or_default(),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "year",
                "median (measured)",
                "median (paper)",
                "growth",
                "growth (paper)"
            ],
            &table
        )
    );
    let _ = write_artifact(
        &args.artifacts.join("fig2_yearly_medians.csv"),
        &csv(
            &["year", "median", "growth_pct"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.year.to_string(),
                        format!("{:.1}", r.median),
                        r.growth_pct.map(|g| format!("{g:.2}")).unwrap_or_default(),
                    ]
                })
                .collect::<Vec<_>>(),
        ),
    );
}

fn fig3(tl: &Timeline, args: &Args, scaled: impl Fn(f64) -> f64) {
    header("Figure 3 — duration of MOAS conflicts (log count vs days)");
    let hist = stats::fig3_duration_histogram(tl);
    println!("{}", ascii_log_hist(&hist, 96, 14));
    let summary = stats::duration_summary(tl);
    println!(
        "\nconflicts: {} (paper 38 225 → scaled {:.0}); one-day: {} (paper 13 730 → {:.0});",
        summary.total,
        scaled(38_225.0),
        summary.one_timers,
        scaled(13_730.0)
    );
    println!(
        "over 300 days: {} (paper 1 002 → {:.0}); longest: {} (paper 1 246); ongoing: {} (paper 1 326 → {:.0})",
        summary.over_300,
        scaled(1_002.0),
        summary.longest,
        summary.ongoing,
        scaled(1_326.0)
    );
    let rows: Vec<Vec<String>> = hist
        .iter()
        .map(|(d, c)| vec![d.to_string(), c.to_string()])
        .collect();
    let _ = write_artifact(
        &args.artifacts.join("fig3_duration_histogram.csv"),
        &csv(&["duration_days", "conflicts"], &rows),
    );
}

fn fig4(tl: &Timeline, args: &Args) {
    header("Figure 4 — expectation of conflict duration by filter");
    let rows = stats::fig4_expectations(tl, &[0, 1, 9, 29, 89]);
    let paper = [30.9, 47.7, 107.5, 175.3, 281.8];
    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(paper.iter())
        .map(|(r, p)| {
            vec![
                format!("longer than {} days", r.longer_than),
                r.count.to_string(),
                format!("{:.1}", r.expectation),
                format!("{p}"),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "data set",
                "conflicts",
                "E[duration] measured",
                "E[duration] paper"
            ],
            &table
        )
    );
    println!("(paper also reports 10 177 conflicts longer than 9 days)");
    let _ = write_artifact(
        &args.artifacts.join("fig4_expectations.csv"),
        &csv(
            &["longer_than", "count", "expectation"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.longer_than.to_string(),
                        r.count.to_string(),
                        format!("{:.2}", r.expectation),
                    ]
                })
                .collect::<Vec<_>>(),
        ),
    );
}

fn fig5(tl: &Timeline, args: &Args) {
    header("Figure 5 — distribution of conflicts among prefix lengths");
    let years = [1998, 1999, 2000, 2001];
    let by_year = stats::fig5_masklen_by_year(tl, &years);
    let mut table: Vec<Vec<String>> = Vec::new();
    for len in 8..=32u8 {
        let mut row = vec![format!("/{len}")];
        let mut any = false;
        for y in &years {
            let v = by_year.get(y).map(|m| m[len as usize]).unwrap_or(0.0);
            if v > 0.0 {
                any = true;
            }
            row.push(if v > 0.0 {
                format!("{v:.0}")
            } else {
                String::new()
            });
        }
        if any {
            table.push(row);
        }
    }
    println!(
        "{}",
        text_table(&["prefix length", "1998", "1999", "2000", "2001"], &table)
    );
    println!("(paper: /24 attracts most conflicts in every year; 2001 peak ≈ 700–800)");
    let _ = write_artifact(
        &args.artifacts.join("fig5_masklen_by_year.csv"),
        &csv(
            &["masklen", "y1998", "y1999", "y2000", "y2001"],
            &table
                .iter()
                .map(|r| r.iter().map(|c| c.replace('/', "")).collect())
                .collect::<Vec<_>>(),
        ),
    );
}

fn fig6(tl: &Timeline, args: &Args) {
    header("Figure 6 — conflict classes, 2001-05-15 → 2001-08-15");
    let from = Date::ymd(2001, 5, 15);
    let to = Date::ymd(2001, 8, 15);
    let series = stats::fig6_class_series(tl, from, to);
    let shares = stats::fig6_shares(tl, from, to);
    println!(
        "mean daily counts: DistinctPaths {:.0}, SplitView {:.0}, OrigTranAS {:.0}",
        shares.distinct, shares.split_view, shares.orig_tran
    );
    println!("(paper: DistinctPaths dominant, the other classes well below it)\n");
    let sample: Vec<Vec<String>> = series
        .iter()
        .step_by(7)
        .map(|p| {
            vec![
                p.date.to_string(),
                p.orig_tran.to_string(),
                p.split_view.to_string(),
                p.distinct.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "date (weekly samples)",
                "OrigTranAS",
                "SplitView",
                "DistinctPaths"
            ],
            &sample
        )
    );
    let _ = write_artifact(
        &args.artifacts.join("fig6_classes.csv"),
        &csv(
            &["date", "orig_tran", "split_view", "distinct", "other"],
            &series
                .iter()
                .map(|p| {
                    vec![
                        p.date.to_string(),
                        p.orig_tran.to_string(),
                        p.split_view.to_string(),
                        p.distinct.to_string(),
                        p.other.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        ),
    );
}

fn vantage(study: &Study, scaled: impl Fn(f64) -> f64) {
    header("§III — vantage-point visibility (collector vs single ISPs)");
    // "At a randomly selected time": a mid-2001 snapshot day.
    let date = Date::ymd(2001, 6, 15);
    let Some((full, counts)) = study.vantage_experiment(date, &[2, 3, 6]) else {
        println!("{date} is not a snapshot day");
        return;
    };
    println!("date: {date}");
    println!(
        "collector ({} sessions): {} conflicts (paper: 1 364 → scaled {:.0})",
        study.peers.alive_at(date.day_index()).len(),
        full,
        scaled(1_364.0)
    );
    for (i, c) in counts.iter().enumerate() {
        println!(
            "ISP vantage {} ({} sessions): {} conflicts (paper observed 30 / 12 / 228)",
            i + 1,
            [2, 3, 6][i.min(2)],
            c
        );
    }
}

fn xp(study: &Study, tl: &Timeline, scaled: impl Fn(f64) -> f64) {
    header("§VI-A — exchange-point prefixes");
    let xp_prefixes = study.xp_prefixes();
    let report = causes::exchange_point_report(tl, &xp_prefixes);
    println!(
        "exchange-point prefixes in conflict: {} (paper: 30 → scaled {:.0})",
        report.conflicted,
        scaled(30.0)
    );
    println!(
        "long-lived (≥ 3/4 of window): {} of {} (paper: \"all … lasted for long periods\")",
        report.long_lived, report.conflicted
    );
    println!(
        "durations: min {} / max {} of {} possible days",
        report.min_duration,
        report.max_duration,
        tl.core_len()
    );
}

fn asset(study: &Study, tl: &Timeline, scaled: impl Fn(f64) -> f64) {
    header("§III / §VI-D — routes ending in AS sets (excluded)");
    println!(
        "AS-set routes planted: {} (paper: \"roughly 12\" → scaled {:.0})",
        study.world.as_set_routes.len(),
        scaled(12.0)
    );
    println!(
        "max prefixes excluded on any day by the detector: {}",
        tl.max_daily_as_set()
    );
    println!("(the paper observed the sets to be mutually consistent; ours are, by construction)");
}

fn faults(study: &Study, scaled: impl Fn(f64) -> f64) {
    header("§VI-E — mass-fault incidents");
    // 1998-04-07: AS 8584.
    if let Some(obs) = study.observe_date(Date::ymd(1998, 4, 7), BackgroundMode::None) {
        let total = obs.conflict_count();
        let inv = causes::involvement_by_origin(&obs);
        let c8584 = inv.get(&Asn::new(8584)).copied().unwrap_or(0);
        println!(
            "1998-04-07: {total} conflicts (paper 11 842 → scaled {:.0})",
            scaled(11_842.0)
        );
        println!(
            "  AS 8584 involved in {c8584} (paper 11 357 → scaled {:.0})",
            scaled(11_357.0)
        );
    }
    // 2001-04-10: (AS 3561, AS 15412).
    if let Some(obs) = study.observe_date(Date::ymd(2001, 4, 10), BackgroundMode::None) {
        let total = obs.conflict_count();
        let pairs = causes::involvement_by_tail_pair(&obs);
        let pair = pairs
            .get(&(Asn::new(3561), Asn::new(15412)))
            .copied()
            .unwrap_or(0);
        println!(
            "2001-04-10: {total} conflicts (paper 6 627 → scaled {:.0})",
            scaled(6_627.0)
        );
        println!(
            "  (AS 3561, AS 15412) involved in {pair} (paper 5 532 → scaled {:.0})",
            scaled(5_532.0)
        );
    }
    if let Some(obs) = study.observe_date(Date::ymd(2001, 4, 6), BackgroundMode::None) {
        println!(
            "2001-04-06: {} conflicts (paper 10 226 → scaled {:.0})",
            obs.conflict_count(),
            scaled(10_226.0)
        );
    }
}

fn submoas(study: &Study) {
    header("extension — subMOAS (faulty aggregation the exact-match scan misses)");
    // Faulty aggregates are short-lived; pick the first mid-window day
    // with at least one active (and at least one shadowed neighbor
    // alive in its block).
    let Some(idx) = (400..study.world.window.core_len()).find(|&idx| {
        study
            .world
            .conflicts
            .iter()
            .any(|c| c.aggregate.is_some() && c.active.is_active(idx as u32))
    }) else {
        println!("no active faulty aggregates in the window");
        return;
    };
    let date = study.world.window.day_at(idx).date();
    let mut collector = moas_routeviews::Collector::new(&study.world, &study.peers);
    let snap = collector.snapshot_at(idx, BackgroundMode::CoveredByAggregates);
    let report = moas_core::submoas::detect_submoas(&snap);
    let truth = study
        .world
        .conflicts
        .iter()
        .filter(|c| c.aggregate.is_some() && c.active.is_active(idx as u32))
        .count();
    println!("date: {date} ({} prefixes scanned)", report.prefixes);
    println!(
        "subMOAS pairs found: {} — innocent neighbors shadowed by {truth} active\n\
         faulty aggregates (the aggregates themselves never trip exact-prefix MOAS)",
        report.pairs.len()
    );
    println!(
        "benign covers (shared origin): {}",
        report.consistent_covers
    );
    for p in report.pairs.iter().take(5) {
        println!(
            "  {} (AS {}) shadowed by {} (AS {})",
            p.specific,
            p.specific_origins
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(","),
            p.covering,
            p.covering_origins
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    println!(
        "(the paper's §VI-E faulty-aggregation discussion, made detectable: exact-\n\
         prefix MOAS detection cannot see these — only the covering-prefix analysis can)"
    );
}

fn detector(study: &Study) {
    header("§VII extension — invalid-conflict identification");
    // Run the origin profiler over the weeks surrounding each incident.
    let windows = [
        (
            Date::ymd(1998, 3, 10),
            Date::ymd(1998, 4, 12),
            Asn::new(8584),
        ),
        (
            Date::ymd(2001, 3, 10),
            Date::ymd(2001, 4, 8),
            Asn::new(15412),
        ),
    ];
    for (from, to, culprit) in windows {
        let mut profiler = OriginProfiler::new(ProfilerConfig::default());
        let mut monitor = MoasMonitor::new(3);
        let mut caught: Option<Date> = None;
        let mut alarm_days = 0u32;
        let mut new_origin_alarms = 0usize;
        for date in from.iter_to(to) {
            let Some(obs) = study.observe_date(date, BackgroundMode::None) else {
                continue;
            };
            let anomalies = profiler.observe(&obs);
            if !anomalies.is_empty() {
                alarm_days += 1;
            }
            for a in &anomalies {
                if let moas_core::detector::Anomaly::OriginSurge { asn, date, .. } = a {
                    if *asn == culprit && caught.is_none() {
                        caught = Some(*date);
                    }
                }
            }
            new_origin_alarms += monitor.observe(&obs).len();
        }
        match caught {
            Some(d) => println!(
                "window {from} → {to}: origin-surge detector flagged AS {culprit} on {d} \
                 (surge-alarm days in window: {alarm_days})"
            ),
            None => println!(
                "window {from} → {to}: AS {culprit} NOT flagged (alarm days: {alarm_days})"
            ),
        }
        println!("  new-origin alarms raised in window: {new_origin_alarms}");
    }
    println!(
        "(the paper's §VII conclusion — duration alone cannot validate conflicts — is\n\
         quantified by the duration-heuristic scores moas-bench's full_probe example prints)"
    );
}
