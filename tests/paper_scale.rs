//! The paper-scale calibration test: the full 1279-day, 38 225-conflict
//! reproduction, checked against every headline number of the paper.
//!
//! Takes ~1–2 minutes in release mode; run with:
//!
//! ```sh
//! cargo test --release --test paper_scale -- --ignored
//! ```

use moas_core::stats;
use moas_lab::study::{Study, StudyConfig};
use moas_net::{Asn, Date};
use moas_routeviews::BackgroundMode;

fn within(measured: f64, paper: f64, tolerance: f64) -> bool {
    (measured - paper).abs() <= paper * tolerance
}

#[test]
#[ignore = "paper-scale run (~1-2 min in release); run with --ignored"]
fn full_scale_reproduction() {
    let study = Study::build(StudyConfig::paper());
    let tl = study.analyze(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2),
    );

    // §IV-A: totals.
    let summary = stats::duration_summary(&tl);
    assert!(
        within(summary.total as f64, 38_225.0, 0.02),
        "total conflicts {}",
        summary.total
    );
    assert!(
        within(summary.one_timers as f64, 13_730.0, 0.02),
        "one-timers {}",
        summary.one_timers
    );

    // Fig. 2: yearly medians.
    let medians = stats::fig2_yearly_medians(&tl, &[1998, 1999, 2000, 2001]);
    let paper_medians = [683.0, 810.5, 951.0, 1_294.0];
    for (row, paper) in medians.iter().zip(paper_medians) {
        assert!(
            within(row.median, paper, 0.05),
            "{}: median {} vs paper {paper}",
            row.year,
            row.median
        );
    }

    // Fig. 4: the expectation ladder.
    let ladder = stats::fig4_expectations(&tl, &[0, 1, 9, 29, 89]);
    let paper_ladder = [30.9, 47.7, 107.5, 175.3, 281.8];
    for (row, paper) in ladder.iter().zip(paper_ladder) {
        assert!(
            within(row.expectation, paper, 0.05),
            ">{}: E {} vs paper {paper}",
            row.longer_than,
            row.expectation
        );
    }
    assert!(
        within(ladder[2].count as f64, 10_177.0, 0.03),
        ">9 days count {}",
        ladder[2].count
    );

    // §IV-B extras.
    assert!(
        within(summary.over_300 as f64, 1_002.0, 0.05),
        ">300 days {}",
        summary.over_300
    );
    assert_eq!(summary.longest, 1_246, "longest duration");
    assert!(
        within(summary.ongoing as f64, 1_326.0, 0.10),
        "ongoing {}",
        summary.ongoing
    );

    // Fig. 1 peaks (the two incidents).
    let peaks = stats::fig1_peaks(&tl, 2);
    let peak_dates: Vec<Date> = peaks.iter().map(|p| p.date).collect();
    assert!(peak_dates.contains(&Date::ymd(1998, 4, 7)));
    let p98 = peaks
        .iter()
        .find(|p| p.date == Date::ymd(1998, 4, 7))
        .unwrap();
    assert!(
        within(p98.conflicts as f64, 11_842.0, 0.05),
        "1998 peak {}",
        p98.conflicts
    );

    // §VI-E involvement.
    let obs98 = study
        .observe_date(Date::ymd(1998, 4, 7), BackgroundMode::None)
        .unwrap();
    let inv = moas_core::causes::involvement_by_origin(&obs98);
    let c8584 = inv.get(&Asn::new(8584)).copied().unwrap_or(0);
    assert!(
        within(c8584 as f64, 11_357.0, 0.05),
        "AS 8584 involvement {c8584}"
    );

    let obs01 = study
        .observe_date(Date::ymd(2001, 4, 10), BackgroundMode::None)
        .unwrap();
    let pairs = moas_core::causes::involvement_by_tail_pair(&obs01);
    let pair = pairs
        .get(&(Asn::new(3561), Asn::new(15412)))
        .copied()
        .unwrap_or(0);
    assert!(
        within(pair as f64, 5_532.0, 0.08),
        "(3561,15412) involvement {pair}"
    );

    // Fig. 5: /24 dominance.
    let by_year = stats::fig5_masklen_by_year(&tl, &[2001]);
    let m2001 = &by_year[&2001];
    assert!(
        within(m2001[24], 750.0, 0.25),
        "/24 median in 2001: {} (paper figure ≈ 700–800)",
        m2001[24]
    );

    // Fig. 6: class dominance.
    let shares = stats::fig6_shares(&tl, Date::ymd(2001, 5, 15), Date::ymd(2001, 8, 15));
    assert!(shares.distinct > shares.split_view + shares.orig_tran);

    // §VI-A: exchange points.
    let xp = moas_core::causes::exchange_point_report(&tl, &study.xp_prefixes());
    assert_eq!(xp.conflicted, 30, "30 exchange-point prefixes");
    assert_eq!(xp.long_lived, 30, "all long-lived");
}
