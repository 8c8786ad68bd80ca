//! The open-loop HTTP client: a fixed-rate request schedule over at
//! most two keep-alive loopback connections, every request timed from
//! the moment it was due.
//!
//! Each connection sends its share of the schedule in order. A request
//! whose predecessor is still outstanding is sent late, and its
//! latency still counts from its due time, so a stall shows up in
//! every request queued behind it.

use crate::gen::Rng;
use crate::run::{date_text, prefix_text};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `/v1/prefix/{p}` with Zipf-distributed keys.
    Prefix,
    /// `/v1/validity?limit=0`.
    Validity,
    /// Paged `/v1/conflicts?date=&limit=`.
    Conflicts,
    /// `If-None-Match` replay of the connection's last validity ETag.
    NotModified,
    /// `/v1/stats`.
    Stats,
}

impl Class {
    /// All classes, in reporting order.
    pub const ALL: [Class; 5] = [
        Class::Prefix,
        Class::Validity,
        Class::Conflicts,
        Class::NotModified,
        Class::Stats,
    ];
}

/// Shares of the mix, in [`Class::ALL`] order.
pub const MIX: [f64; 5] = [0.50, 0.20, 0.15, 0.10, 0.05];

/// Zipf exponent of the prefix keys.
pub const ZIPF_S: f64 = 1.0;

/// Rows per `/v1/conflicts` page.
pub const PAGE: usize = 50;

/// One planned request.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Its class.
    pub class: Class,
    /// Zipf rank of the prefix key (Prefix class).
    pub key: usize,
    /// Uniform draw in [0, 1) picking the conflicts date.
    pub frac: f64,
}

/// Draws `n` requests of the mix over `keys` Zipf-ranked prefixes.
pub fn plan(seed: u64, n: usize, keys: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ 0x00c1_1e47);
    let weights: Vec<f64> = (1..=keys.max(1))
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in weights {
        acc += w / total;
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let x = rng.unit();
            let mut class = Class::Stats;
            let mut acc = 0.0;
            for (c, share) in Class::ALL.iter().zip(MIX) {
                acc += share;
                if x < acc {
                    class = *c;
                    break;
                }
            }
            let u = rng.unit();
            let key = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
            Planned {
                class,
                key,
                frac: rng.unit(),
            }
        })
        .collect()
}

/// One finished request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was due, since the schedule's start.
    pub due: Duration,
    /// When it was written to the socket.
    pub sent: Duration,
    /// When its response was fully read.
    pub done: Duration,
    /// HTTP status; 0 for an I/O error or timeout.
    pub status: u16,
    /// The epoch the answer was computed at (from its ETag or body).
    pub epoch: Option<u64>,
}

impl Sample {
    /// Latency from the due time, in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e6
    }

    /// A 2xx or 304 answer.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status) || self.status == 304
    }
}

/// The open-loop core: calls `call(i)` for each due time in order,
/// never before it is due. Returns `(due, sent, done)` per request plus
/// what `call` returned. A call that overruns delays the calls queued
/// behind it, whose latencies still count from their own due times.
pub fn open_loop<T>(
    t0: Instant,
    dues: &[Duration],
    mut call: impl FnMut(usize) -> T,
) -> Vec<(Duration, Duration, Duration, T)> {
    let mut out = Vec::with_capacity(dues.len());
    for (i, &due) in dues.iter().enumerate() {
        wait_until(t0, due);
        let sent = t0.elapsed();
        let value = call(i);
        out.push((due, sent, t0.elapsed(), value));
    }
    out
}

/// Sleeps until shortly before `t0 + due`, then spins: a plain sleep
/// overshoots by the kernel's timer slack (about 50 µs), which would
/// count against every request's latency.
pub fn wait_until(t0: Instant, due: Duration) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = t0.elapsed();
        if now >= due {
            return;
        }
        if due - now > SPIN {
            std::thread::sleep(due - now - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// How late the generator itself ran: for each request, how long after
/// it could have been sent (its due time, or its predecessor's
/// completion if later) it actually was sent, in milliseconds.
pub fn generator_lateness_ms(samples: &[Sample]) -> Vec<f64> {
    let mut out = Vec::with_capacity(samples.len());
    let mut prev_done = Duration::ZERO;
    for s in samples {
        let ready = s.due.max(prev_done);
        out.push(s.sent.saturating_sub(ready).as_secs_f64() * 1e3);
        prev_done = s.done;
    }
    out
}

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
    /// The last ETag seen on `/v1/validity?limit=0`.
    etag: Option<String>,
}

/// What one exchange returned.
pub struct Answer {
    /// HTTP status (0: I/O error).
    pub status: u16,
    /// `ETag` header.
    pub etag: Option<String>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Conn {
    /// A connection to `addr` (opened lazily).
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            reader: None,
            etag: None,
        }
    }

    /// Sends one GET and reads the whole answer.
    pub fn get(&mut self, target: &str, if_none_match: Option<&str>) -> Answer {
        match self.try_get(target, if_none_match) {
            Ok(a) => a,
            Err(_) => {
                self.reader = None;
                Answer {
                    status: 0,
                    etag: None,
                    body: Vec::new(),
                }
            }
        }
    }

    fn try_get(&mut self, target: &str, if_none_match: Option<&str>) -> std::io::Result<Answer> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            self.reader = Some(BufReader::new(stream));
        }
        let reader = self.reader.as_mut().expect("connected above");
        let mut head = format!("GET {target} HTTP/1.1\r\nhost: bench\r\n");
        if let Some(tag) = if_none_match {
            head.push_str(&format!("if-none-match: {tag}\r\n"));
        }
        head.push_str("\r\n");
        reader.get_mut().write_all(head.as_bytes())?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        let mut etag = None;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(std::io::Error::other)?;
                } else if name.eq_ignore_ascii_case("etag") {
                    etag = Some(value.trim().to_string());
                }
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        Ok(Answer { status, etag, body })
    }

    /// Sends one planned request.
    pub fn send(&mut self, p: &Planned, targets: &Targets) -> (u16, Option<u64>) {
        let target = targets.target(p);
        let answer = match p.class {
            Class::Validity | Class::NotModified => {
                let tag = (p.class == Class::NotModified)
                    .then(|| self.etag.clone())
                    .flatten();
                let a = self.get(&target, tag.as_deref());
                if a.status == 200 {
                    self.etag = a.etag.clone();
                }
                a
            }
            _ => self.get(&target, None),
        };
        (answer.status, epoch_of(&answer))
    }
}

/// Renders planned requests: prefix keys by Zipf rank, conflicts dates
/// by a uniform draw over the days.
pub struct Targets<'a> {
    /// Prefix indexes, hottest first.
    pub keys: &'a [u32],
    /// Days a conflicts date is drawn from (`0..days`).
    pub days: u32,
}

impl Targets<'_> {
    /// The request target of `p`.
    pub fn target(&self, p: &Planned) -> String {
        match p.class {
            Class::Prefix => format!("/v1/prefix/{}", prefix_text(self.keys[p.key])),
            Class::Validity | Class::NotModified => "/v1/validity?limit=0".to_string(),
            Class::Conflicts => {
                let day = ((p.frac * self.days as f64) as u32).min(self.days - 1);
                format!("/v1/conflicts?date={}&limit={PAGE}", date_text(day))
            }
            Class::Stats => "/v1/stats".to_string(),
        }
    }
}

/// The epoch an answer was computed at: from the `"e{hex}-…"` ETag,
/// else from a top-level `"epoch":N` in the body.
pub fn epoch_of(a: &Answer) -> Option<u64> {
    if let Some(tag) = &a.etag {
        let hex = tag.trim_matches('"').strip_prefix('e')?.split('-').next()?;
        return u64::from_str_radix(hex, 16).ok();
    }
    let body = std::str::from_utf8(&a.body).ok()?;
    let rest = body.split_once("\"epoch\":")?.1;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Runs `plan` at `rate` requests/s from `t0 + offset`, alternating
/// requests over `conns` (one thread each; connections stay open
/// across calls).
pub fn run(
    conns: &mut [Conn],
    t0: Instant,
    offset: Duration,
    rate: f64,
    plan: &[Planned],
    targets: &Targets,
) -> Vec<Sample> {
    let n = conns.len();
    let mut all: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let idx: Vec<usize> = (c..plan.len()).step_by(n).collect();
                    let dues: Vec<Duration> = idx
                        .iter()
                        .map(|&k| offset + Duration::from_secs_f64(k as f64 / rate))
                        .collect();
                    open_loop(t0, &dues, |i| conn.send(&plan[idx[i]], targets))
                        .into_iter()
                        .map(|(due, sent, done, (status, epoch))| Sample {
                            due,
                            sent,
                            done,
                            status,
                            epoch,
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    all.sort_by_key(|s| s.due);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_responder_delays_the_requests_queued_behind_it() {
        let dues: Vec<Duration> = (0..20).map(|i| Duration::from_millis(i * 2)).collect();
        let t0 = Instant::now();
        let out = open_loop(t0, &dues, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        let lat: Vec<Duration> = out.iter().map(|(due, _, done, _)| *done - *due).collect();
        // Requests due during the stall wait for it: each one's latency
        // is at least the rest of the stall after its own due time.
        for (i, l) in lat.iter().enumerate().take(15) {
            let owed = Duration::from_millis(30).saturating_sub(dues[i]);
            assert!(*l >= owed, "request {i}: latency {l:?} < owed {owed:?}");
        }
        assert!(lat[1] >= Duration::from_millis(27));
        // Nothing is ever sent before it is due.
        for (due, sent, _, _) in &out {
            assert!(sent >= due);
        }
        // Once the queue drains, latency is back near zero.
        assert!(lat[19] < Duration::from_millis(5));
    }

    #[test]
    fn generator_lateness_excludes_queueing() {
        let s = |due: u64, sent: u64, done: u64| Sample {
            due: Duration::from_millis(due),
            sent: Duration::from_millis(sent),
            done: Duration::from_millis(done),
            status: 200,
            epoch: None,
        };
        // The second request waited for the first (queueing, not
        // generator lateness); the third was sent 3 ms after it could.
        let late = generator_lateness_ms(&[s(0, 0, 10), s(1, 10, 11), s(20, 23, 24)]);
        assert_eq!(late, vec![0.0, 0.0, 3.0]);
    }

    #[test]
    fn the_mix_follows_its_shares() {
        let p = plan(1, 20_000, 1_000);
        for (c, share) in Class::ALL.iter().zip(MIX) {
            let got = p.iter().filter(|x| x.class == *c).count() as f64 / p.len() as f64;
            assert!((got - share).abs() < 0.01, "{c:?}: {got} vs {share}");
        }
        // Zipf: the top key is drawn far more often than the median one.
        let top = p.iter().filter(|x| x.key == 0).count();
        let mid = p.iter().filter(|x| x.key == 500).count();
        assert!(top > 20 * mid.max(1));
    }

    #[test]
    fn epochs_come_from_etags_or_bodies() {
        let a = Answer {
            status: 200,
            etag: Some("\"e1f-00000000deadbeef\"".into()),
            body: Vec::new(),
        };
        assert_eq!(epoch_of(&a), Some(0x1f));
        let b = Answer {
            status: 200,
            etag: None,
            body: b"{\"epoch\":42,\"x\":1}".to_vec(),
        };
        assert_eq!(epoch_of(&b), Some(42));
    }
}
