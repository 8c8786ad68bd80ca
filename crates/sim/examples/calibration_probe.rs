//! Ground-truth calibration probe: prints the generator's numbers
//! *before* any collection or detection happens.
//!
//! This is the tool used to tune `Calibration::paper()` — it reports
//! what the world schedules, against which the *measured* numbers the
//! `figures` binary prints (which flow through the collector and
//! detector) can be compared. If the two diverge, the gap is in visibility/measurement,
//! not in scheduling.
//!
//! ```sh
//! cargo run --release -p moas-sim --example calibration_probe
//! ```

use moas_sim::{SimParams, World};

fn main() {
    let t = std::time::Instant::now();
    let w = World::generate(SimParams::paper());
    println!("generated in {:?}", t.elapsed());
    println!("conflicts scheduled:  {}", w.conflicts.len());
    println!("plan prefixes:        {}", w.plan.len());
    println!("topology ASes:        {}", w.topo.len());

    let idx98 = w
        .window
        .snapshot_index(moas_net::Date::ymd(1998, 4, 7).day_index())
        .expect("incident day");
    println!("1998-04-07 active:    {}", w.active_count(idx98));
    let idx01 = w
        .window
        .snapshot_index(moas_net::Date::ymd(2001, 4, 6).day_index())
        .expect("incident day");
    println!("2001-04-06 active:    {}", w.active_count(idx01));
    println!("ongoing at cutoff:    {}", w.ongoing_at_cutoff());

    let d = w.observed_durations();
    println!("with core presence:   {}", d.len());
    let one = d.iter().filter(|&&x| x == 1).count();
    println!("one-timers:           {one}");
    let sum: u64 = d.iter().map(|&x| x as u64).sum();
    println!("mean duration:        {:.1}", sum as f64 / d.len() as f64);
    let over9: Vec<u32> = d.iter().copied().filter(|&x| x > 9).collect();
    println!(
        "k>9:                  {} (mean {:.1})",
        over9.len(),
        over9.iter().map(|&x| x as u64).sum::<u64>() as f64 / over9.len().max(1) as f64
    );
    println!(
        "k>300:                {}",
        d.iter().filter(|&&x| x > 300).count()
    );

    println!(
        "background at start:  {}",
        w.background_alive(w.window.start().day_index())
    );
    println!(
        "background at end:    {}",
        w.background_alive(w.window.end().day_index())
    );

    println!("\nyearly medians of scheduled active conflicts:");
    for y in [1998, 1999, 2000, 2001] {
        let pos = w.window.core_positions_in_year(y);
        let mut counts: Vec<usize> = pos.iter().map(|&i| w.active_count(i)).collect();
        counts.sort_unstable();
        let m = if counts.len() % 2 == 1 {
            counts[counts.len() / 2] as f64
        } else {
            (counts[counts.len() / 2 - 1] + counts[counts.len() / 2]) as f64 / 2.0
        };
        println!("  {y}: {m}");
    }
}
