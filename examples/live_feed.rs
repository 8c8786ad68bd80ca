//! The live-feed subsystem end to end: a simulated collector appends
//! dated BGP4MP update files on a timer, a one-collector [`Federation`]
//! tails them into a [`HistoryService`] (epochs advancing live), and a
//! [`QueryServer`] answers `/v1/feed` — cursor, lag, gap count —
//! alongside the regular query API while ingestion runs. A gap day is
//! injected mid-window and comes back out of `/v1/feed`, and the
//! feed is stopped and reopened mid-window to show cursor resume.
//!
//! ```sh
//! cargo run --release --example live_feed
//! ```

use moas_feed::{Federation, FederationConfig};
use moas_history::{HistoryService, RetentionPolicy, ServiceConfig};
use moas_lab::study::{Study, StudyConfig};
use moas_monitor::MonitorConfig;
use moas_net::Date;
use moas_routeviews::{BackgroundMode, Collector, SimFeed};
use moas_serve::{QueryServer, QueryService, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    let days = 8usize;
    let study = Study::build(StudyConfig::test(0.004));
    let dates: Vec<Date> = study.world.window.all_days()[..days]
        .iter()
        .map(|d| d.date())
        .collect();

    let base = std::env::temp_dir().join("moas-live-feed");
    let archive_dir = base.join("collector");
    let store_dir = base.join("store");
    std::fs::remove_dir_all(&base).ok();

    println!("== simulated collector starts landing update files ==");
    let mut collector = Collector::new(&study.world, &study.peers);
    let mut sim = SimFeed::new(
        &mut collector,
        &archive_dir,
        0,
        days,
        BackgroundMode::Sample(15),
    )?;

    let service = Arc::new(HistoryService::open(
        &store_dir,
        ServiceConfig {
            start_date: dates[0],
            retention: RetentionPolicy::keep_everything(),
            watermark_segments: 2,
            poll_interval: Duration::from_millis(50),
            daemon: true,
        },
    )?);

    let feed_config = FederationConfig {
        monitor: MonitorConfig::with_shards(4),
        ..FederationConfig::new(dates[0])
    }
    .collector("route-views", &archive_dir);
    let mut feed = Federation::open(feed_config.clone(), Arc::clone(&service))?;

    println!("== query server up while the feed follows ==");
    let mut query = QueryService::new(
        service.reader(),
        ServerConfig {
            start_date: dates[0],
            ..ServerConfig::default()
        },
    )
    .with_feed_status(feed.status());
    if let Some(engine) = service.metrics_handle() {
        query = query.with_engine_metrics(engine);
    }
    let query = Arc::new(query);
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query))?;
    let addr = server.local_addr();
    println!("   listening on {addr}");

    // First half of the window lands (day 2 goes missing), the
    // feed catches up after each landing.
    let reader = service.reader();
    for day in 0..4 {
        if day == 2 {
            let skipped = sim.skip_day()?.expect("day in window");
            println!("   collector SKIPPED {skipped} (feed gap)");
            continue;
        }
        let landed = sim.append_day()?.expect("day in window");
        while !feed.poll_once()?.caught_up {}
        println!(
            "   landed {} ({} records) → epoch {}",
            landed.path.file_name().unwrap().to_string_lossy(),
            landed.records,
            reader.epoch(),
        );
    }
    let (status, feed_json) = get(addr, "/v1/feed")?;
    println!(
        "   GET /v1/feed\n      {status} {}",
        truncate(&feed_json, 220)
    );
    assert_eq!(status, 200);
    assert!(feed_json.contains("\"gap_count\":1"), "{feed_json}");

    println!("== stop the feed mid-window, reopen: cursor resume ==");
    let (cursors, _) = feed.shutdown()?;
    println!(
        "   stopped at cursor {}+{}",
        cursors[0].file, cursors[0].offset
    );
    let mut feed = Federation::open(feed_config, Arc::clone(&service))?;
    println!(
        "   reopened: resumes={} (rebuilt to the cursor, nothing re-appended)",
        feed.status().units()[0].snapshot().resumes
    );

    // The rest of the window lands on a timer while the feed
    // polls live.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|scope| -> std::io::Result<()> {
        let handle = scope.spawn(|| sim.run_timer(Duration::from_millis(20), &stop));
        while !sim_done(&handle) {
            feed.poll_once()?;
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.join().expect("sim thread")?;
        Ok(())
    })?;
    while !feed.poll_once()?.caught_up {}
    feed.finalize()?;

    println!("== after catch-up: live status and day-cut queries ==");
    // The old server still serves /v1/feed from the *first* feed's
    // (now stopped) status; bind the reopened feed's.
    let query2 = Arc::new(
        QueryService::new(
            service.reader(),
            ServerConfig {
                start_date: dates[0],
                ..ServerConfig::default()
            },
        )
        .with_feed_status(feed.status()),
    );
    let server2 = QueryServer::bind("127.0.0.1:0", Arc::clone(&query2))?;
    for target in [
        "/v1/feed".to_string(),
        "/v1/stats".to_string(),
        format!("/v1/timeline?days={days}"),
        format!("/v1/conflicts?date={}", dates[1]),
    ] {
        let (status, body) = get(server2.local_addr(), &target)?;
        println!("   GET {target}\n      {status} {}", truncate(&body, 200));
        assert_eq!(status, 200, "{target} must succeed");
    }

    let (final_cursors, report) = feed.shutdown()?;
    let final_cursor = &final_cursors[0];
    println!(
        "== done: {} files, {} records, {} gaps, cursor {}+{} ({} route updates applied) ==",
        final_cursor.files_done,
        final_cursor.records,
        final_cursor.gaps,
        final_cursor.file,
        final_cursor.offset,
        report.routes,
    );
    assert_eq!(final_cursor.next_day, days as u32);
    assert_eq!(final_cursor.gaps, 1);

    server.shutdown();
    server2.shutdown();
    drop(query);
    drop(query2);
    Arc::try_unwrap(service)
        .ok()
        .expect("sole service handle")
        .close()?;
    std::fs::remove_dir_all(&base).ok();
    println!("done.");
    Ok(())
}

/// Whether the simulated-collector thread has exhausted its window.
fn sim_done<T>(handle: &std::thread::ScopedJoinHandle<'_, T>) -> bool {
    handle.is_finished()
}

/// One GET over a fresh loopback connection.
fn get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    writer.write_all(
        format!("GET {target} HTTP/1.1\r\nhost: example\r\nconnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        return s.to_string();
    }
    let mut cut = n;
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &s[..cut])
}
