//! Rediscovering the two mass-fault incidents from routing data alone.
//!
//! The paper attributes the 1998-04-07 spike to AS 8584 and the April
//! 2001 spike to AS 15412 (leaking via AS 3561) using NANOG postings
//! and RIPE RIS data. This example shows the same attribution falling
//! out of the BGP data itself: the origin-involvement analysis of §VI-E
//! plus the origin-profile anomaly detector (the paper's §VII future
//! work).
//!
//! ```sh
//! cargo run --release --example fault_detection
//! ```

use moas_core::causes::{involvement_by_origin, involvement_by_tail_pair, top_involved};
use moas_core::detector::{Anomaly, OriginProfiler, ProfilerConfig};
use moas_lab::study::{Study, StudyConfig};
use moas_net::{Asn, Date};
use moas_routeviews::BackgroundMode;

fn main() {
    // A 10% world keeps the incident structure but runs in seconds.
    eprintln!("building world …");
    let study = Study::build(StudyConfig::test(0.10));

    // ---- §VI-E involvement analysis on the incident days ----------
    println!("== 1998-04-07 (the AS 8584 incident) ==");
    let obs = study
        .observe_date(Date::ymd(1998, 4, 7), BackgroundMode::None)
        .expect("snapshot day");
    println!("conflicts that day: {}", obs.conflict_count());
    if let Some((asn, count)) = top_involved(&obs) {
        println!(
            "most involved AS: {asn} in {count}/{} conflicts (paper: AS 8584 in 11 357/11 842)",
            obs.conflict_count()
        );
    }
    let inv = involvement_by_origin(&obs);
    let mut top: Vec<(&Asn, &u32)> = inv.iter().collect();
    top.sort_by_key(|(a, c)| (std::cmp::Reverse(**c), a.value()));
    println!("top origins by involvement:");
    for (asn, count) in top.iter().take(4) {
        println!("  AS {asn}: {count}");
    }

    println!("\n== 2001-04-10 (the AS 15412 / AS 3561 incident) ==");
    let obs = study
        .observe_date(Date::ymd(2001, 4, 10), BackgroundMode::None)
        .expect("snapshot day");
    println!("conflicts that day: {}", obs.conflict_count());
    let pairs = involvement_by_tail_pair(&obs);
    let mut top: Vec<(&(Asn, Asn), &u32)> = pairs.iter().collect();
    top.sort_by_key(|(_, c)| std::cmp::Reverse(**c));
    println!("top (transit, origin) tails (paper: (3561, 15412) in 5 532/6 627):");
    for ((t, o), count) in top.iter().take(3) {
        println!("  (AS {t}, AS {o}): {count}");
    }

    // ---- §VII: the anomaly detector catches it online -------------
    println!("\n== origin-profile anomaly detection (replaying March–April 1998) ==");
    let mut profiler = OriginProfiler::new(ProfilerConfig::default());
    let mut flagged: Vec<(Date, Asn, u32, f64)> = Vec::new();
    for date in Date::ymd(1998, 3, 1).iter_to(Date::ymd(1998, 4, 12)) {
        let Some(obs) = study.observe_date(date, BackgroundMode::None) else {
            continue; // archive gap
        };
        for a in profiler.observe(&obs) {
            if let Anomaly::OriginSurge {
                asn,
                today,
                baseline,
                date,
            } = a
            {
                flagged.push((date, asn, today, baseline));
            }
        }
    }
    if flagged.is_empty() {
        println!("no surges flagged (unexpected at this scale)");
    }
    for (date, asn, today, baseline) in &flagged {
        println!(
            "  {date}: AS {asn} surged to {today} conflict involvements (baseline {baseline:.1})"
        );
    }
    let caught = flagged.iter().any(|(_, asn, _, _)| *asn == Asn::new(8584));
    println!(
        "\nAS 8584 {} by the detector, using routing data only.",
        if caught { "caught" } else { "NOT caught" }
    );
}
