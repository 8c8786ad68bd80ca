//! Seeded workload generator: a canonical BGP update stream plus its
//! per-collector BGP4MP archive files, written through the public
//! `moas_mrt` encoders.
//!
//! The model is deliberately small so the reference fold can follow
//! it exactly:
//!
//! * Prefixes are /24s grouped into *blocks* of consecutive prefixes
//!   that share one origin AS. An UPDATE touches a contiguous run of
//!   one block, so all its prefixes share one AS path.
//! * A *MOAS block* has a second origin: sessions with `(session +
//!   block)` even announce it from the first origin, the others from
//!   the second.
//! * A small share of announcements end in an AS_SET (aggregated
//!   routes, which the paper excludes from conflict analysis).
//! * Every UPDATE carries its canonical sequence number as MED, so no
//!   two canonical records have the same content; the copies that
//!   several collectors log of one update are byte-identical except
//!   for the header timestamp, which is what cross-collector dedup
//!   keys on.
//! * No record lies within [`DAY_MARGIN`] seconds of midnight, so a
//!   collector's clock skew never moves an update across a day cut.
//! * Partial visibility hides whole blocks from a collector (never
//!   from collector 0), so a collector's copy of a record is either
//!   byte-identical to the others or absent.

use moas_bgp::attrs::Attrs;
use moas_bgp::message::{BgpMessage, UpdateMsg};
use moas_mrt::bgp4mp::{Bgp4mpMessage, PeeringHeader};
use moas_mrt::record::{MrtBody, MrtRecord};
use moas_net::aspath::PathSegment;
use moas_net::{AsPath, Asn, Date, Ipv4Prefix};
use std::net::{IpAddr, Ipv4Addr};

/// Seconds kept free of updates on each side of every midnight.
pub const DAY_MARGIN: u32 = 300;

/// Every traffic dimension of one workload.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Distinct /24 prefixes.
    pub prefixes: u32,
    /// Prefixes per origin block: the most prefixes one UPDATE carries.
    pub block: u32,
    /// Peer sessions feeding the collectors.
    pub sessions: u32,
    /// Share of blocks announced from two origins.
    pub moas_share: f64,
    /// Share of UPDATEs that withdraw instead of announce.
    pub withdraw_share: f64,
    /// Share of announcements whose path ends in an AS_SET.
    pub as_set_share: f64,
    /// Per-collector clock skew in seconds (its length is the
    /// collector count; collector 0 should have skew 0).
    pub skew_secs: Vec<i32>,
    /// Share of blocks hidden from each collector other than 0.
    pub hidden_share: f64,
    /// Backlog (catch-up) files per collector, before skew.
    pub backlog_files: u32,
    /// Canonical records per backlog file.
    pub backlog_records_per_file: u32,
    /// Length of one backlog file's slot in seconds.
    pub backlog_file_secs: u32,
    /// Live-tail days landed after the catch-up.
    pub tail_days: u32,
    /// Files per collector per tail day.
    pub tail_files_per_day: u32,
    /// Canonical records per tail file.
    pub tail_records_per_file: u32,
}

impl Shape {
    /// Collector count.
    pub fn collectors(&self) -> usize {
        self.skew_secs.len()
    }

    fn blocks(&self) -> u32 {
        self.prefixes.div_ceil(self.block)
    }

    /// Whether `block` is announced from two origins.
    pub fn is_moas_block(&self, block: u32) -> bool {
        unit(mix(block as u64 ^ 0x6d6f_6173)) < self.moas_share
    }

    /// Whether `collector` does not see `block` at all.
    pub fn hidden(&self, collector: usize, block: u32) -> bool {
        collector != 0
            && unit(mix(((collector as u64) << 32) ^ block as u64 ^ 0x6869_6465))
                < self.hidden_share
    }

    /// The origin AS `session` announces `block` from.
    pub fn origin(&self, session: u16, block: u32) -> u32 {
        if self.is_moas_block(block) && (session as u32 + block) % 2 == 1 {
            200_000 + block
        } else {
            10_000 + block
        }
    }

    /// Prefix `index` as a /24 inside 32.0.0.0/5.
    pub fn prefix(index: u32) -> Ipv4Prefix {
        Ipv4Prefix::from_bits(0x2000_0000 | (index << 8), 24)
    }

    /// Dimensions as one line of `key=value` pairs.
    pub fn describe(&self) -> String {
        format!(
            "prefixes={} block={} sessions={} moas_share={} withdraw_share={} as_set_share={} \
             collectors={} skew_secs={:?} hidden_share={} backlog_files={} \
             backlog_records_per_file={} backlog_file_secs={} tail_days={} \
             tail_files_per_day={} tail_records_per_file={}",
            self.prefixes,
            self.block,
            self.sessions,
            self.moas_share,
            self.withdraw_share,
            self.as_set_share,
            self.collectors(),
            self.skew_secs,
            self.hidden_share,
            self.backlog_files,
            self.backlog_records_per_file,
            self.backlog_file_secs,
            self.tail_days,
            self.tail_files_per_day,
            self.tail_records_per_file
        )
    }
}

/// One canonical UPDATE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Update {
    /// Canonical timestamp (collector 0's clock).
    pub ts: u32,
    /// Peer session index.
    pub session: u16,
    /// Origin block the prefixes belong to.
    pub block: u32,
    /// First prefix, as an offset into the block.
    pub first: u32,
    /// Number of consecutive prefixes.
    pub count: u32,
    /// Withdraw (true) or announce (false).
    pub withdraw: bool,
    /// Announce with a trailing AS_SET.
    pub as_set: bool,
    /// Canonical sequence number, carried as MED.
    pub seq: u32,
}

impl Update {
    /// Indexes of the prefixes this update touches.
    pub fn prefixes(&self, shape: &Shape) -> impl Iterator<Item = u32> {
        let start = self.block * shape.block + self.first;
        let end = (start + self.count).min(shape.prefixes);
        start..end
    }
}

/// One archive file's name and bytes.
pub struct ArchiveFile {
    /// `updates.YYYYMMDD.HHMM.mrt`.
    pub name: String,
    /// Encoded BGP4MP records.
    pub bytes: Vec<u8>,
    /// Records in the file.
    pub records: u64,
    /// Index of the tail file slot (per collector) this file belongs
    /// to; `None` for backlog files.
    pub tail_slot: Option<u32>,
}

/// A generated workload: the canonical stream plus every collector's
/// files.
pub struct Archive {
    /// The canonical stream, in order.
    pub updates: Vec<Update>,
    /// Per collector: files in name order.
    pub files: Vec<Vec<ArchiveFile>>,
    /// Route-level updates (announced plus withdrawn prefixes) over all
    /// collectors' backlog files.
    pub backlog_route_updates: u64,
}

/// Date of day position 0.
pub fn start_date() -> Date {
    Date::ymd(2001, 1, 1)
}

/// Midnight (UTC) of day position `day`.
pub fn midnight(day: u32) -> u32 {
    moas_mrt::snapshot::midnight_timestamp(start_date()) + day * 86_400
}

/// SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to [0, 1).
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A small deterministic generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed ^ 0x5eed))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        unit(self.next())
    }
}

fn draw(shape: &Shape, rng: &mut Rng, ts: u32, seq: u32) -> Update {
    let block = rng.below(shape.blocks() as u64) as u32;
    let size = shape.block.min(shape.prefixes - block * shape.block);
    let first = rng.below(size as u64) as u32;
    let count = 1 + rng.below((size - first) as u64) as u32;
    let withdraw = rng.unit() < shape.withdraw_share;
    Update {
        ts,
        session: rng.below(shape.sessions as u64) as u16,
        block,
        first,
        count,
        withdraw,
        as_set: !withdraw && rng.unit() < shape.as_set_share,
        seq,
    }
}

/// Generates the canonical stream for `shape` and `seed`: the backlog
/// spread over day 0, then `tail_days` days of tail files.
pub fn canonical(shape: &Shape, seed: u64) -> (Vec<Update>, usize) {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let backlog = (shape.backlog_files * shape.backlog_records_per_file) as u64;
    let span = (shape.backlog_files * shape.backlog_file_secs) as u64;
    assert!(
        DAY_MARGIN as u64 + span <= 86_400 - DAY_MARGIN as u64,
        "the backlog must fit inside day 0"
    );
    for k in 0..backlog {
        let ts = midnight(0) + DAY_MARGIN + (k * span / backlog.max(1)) as u32;
        let seq = out.len() as u32;
        out.push(draw(shape, &mut rng, ts, seq));
    }
    let backlog_len = out.len();
    let slot = 86_400 / shape.tail_files_per_day.max(1);
    for day in 1..=shape.tail_days {
        for file in 0..shape.tail_files_per_day {
            // Keep each file's records inside its own slot and clear of
            // midnight, whatever the collector skew.
            let lo = midnight(day) + file * slot + DAY_MARGIN;
            let hi = midnight(day) + (file + 1) * slot - DAY_MARGIN;
            let n = shape.tail_records_per_file as u64;
            for k in 0..n {
                let ts = lo + (k * (hi - lo) as u64 / n.max(1)) as u32;
                let seq = out.len() as u32;
                out.push(draw(shape, &mut rng, ts, seq));
            }
        }
    }
    (out, backlog_len)
}

/// The MRT record a collector logs for `u`, at its own clock.
pub fn record(shape: &Shape, u: &Update, ts: u32) -> MrtRecord {
    let prefixes: Vec<Ipv4Prefix> = u.prefixes(shape).map(Shape::prefix).collect();
    let peer_as = 64_512 + u.session as u32;
    let (withdrawn, announced, attrs) = if u.withdraw {
        let attrs = Attrs {
            med: Some(u.seq),
            ..Attrs::default()
        };
        (prefixes, Vec::new(), attrs)
    } else {
        let origin = shape.origin(u.session, u.block);
        let transit = 3_000 + u.block % 97;
        let path = if u.as_set {
            AsPath::from_segments([
                PathSegment::Sequence(vec![Asn::new(peer_as), Asn::new(transit)]),
                PathSegment::Set(vec![Asn::new(origin), Asn::new(origin + 1)]),
            ])
        } else {
            AsPath::from_sequence([Asn::new(peer_as), Asn::new(transit), Asn::new(origin)])
        };
        let attrs = Attrs {
            med: Some(u.seq),
            ..Attrs::announcement(path, Ipv4Addr::new(192, 0, 2, 1))
        };
        (Vec::new(), prefixes, attrs)
    };
    MrtRecord {
        timestamp: ts,
        body: MrtBody::Bgp4mpMessage(Bgp4mpMessage {
            header: PeeringHeader {
                peer_as: Asn::new(peer_as),
                local_as: Asn::new(6_447),
                if_index: 0,
                peer_addr: IpAddr::V4(Ipv4Addr::from(0xc633_6400 + u.session as u32)),
                local_addr: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 254)),
            },
            message: BgpMessage::Update(UpdateMsg {
                withdrawn,
                attrs,
                announced,
            }),
            as4: true,
        }),
    }
}

/// `updates.YYYYMMDD.HHMM.mrt` for the slot starting at `ts`.
fn file_name(ts: u32) -> String {
    let base = moas_mrt::snapshot::midnight_timestamp(start_date());
    let day = (ts - base) / 86_400;
    let date = start_date().plus_days(day as i64);
    let secs = (ts - base) % 86_400;
    format!(
        "updates.{:04}{:02}{:02}.{:02}{:02}.mrt",
        date.year(),
        date.month(),
        date.day(),
        secs / 3_600,
        secs % 3_600 / 60
    )
}

/// Generates the whole workload: canonical stream and every
/// collector's encoded files. Same shape and seed, same bytes.
pub fn generate(shape: &Shape, seed: u64) -> Archive {
    let (updates, backlog_len) = canonical(shape, seed);
    let tail_slot = 86_400 / shape.tail_files_per_day.max(1);
    let mut files = Vec::with_capacity(shape.collectors());
    let mut backlog_route_updates = 0u64;
    for (c, &skew) in shape.skew_secs.iter().enumerate() {
        // (slot start, tail slot index) → (records, bytes); the stream
        // is in time order, so files come out in name order.
        let mut out: Vec<ArchiveFile> = Vec::new();
        let mut open: Option<u32> = None;
        for (i, u) in updates.iter().enumerate() {
            if shape.hidden(c, u.block) {
                continue;
            }
            let ts = (u.ts as i64 + skew as i64) as u32;
            let backlog = i < backlog_len;
            let (slot_start, tail) = if backlog {
                let off = ts - midnight(0);
                (
                    midnight(0) + off / shape.backlog_file_secs * shape.backlog_file_secs,
                    None,
                )
            } else {
                let day = (ts - midnight(0)) / 86_400;
                let within = (ts - midnight(day)) / tail_slot;
                (
                    midnight(day) + within * tail_slot,
                    Some((day - 1) * shape.tail_files_per_day + within),
                )
            };
            if open != Some(slot_start) {
                open = Some(slot_start);
                out.push(ArchiveFile {
                    name: file_name(slot_start),
                    bytes: Vec::new(),
                    records: 0,
                    tail_slot: tail,
                });
            }
            let file = out.last_mut().expect("file opened above");
            file.bytes.extend_from_slice(&record(shape, u, ts).encode());
            file.records += 1;
            if backlog {
                backlog_route_updates += u.prefixes(shape).count() as u64;
            }
        }
        files.push(out);
    }
    Archive {
        updates,
        files,
        backlog_route_updates,
    }
}

/// FNV-1a over every file of every collector, in order — the archive
/// fingerprint the determinism check compares.
pub fn fingerprint(archive: &Archive) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for collector in &archive.files {
        for f in collector {
            for &b in f.name.as_bytes().iter().chain(&f.bytes) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Shape {
        Shape {
            prefixes: 2_000,
            block: 4,
            sessions: 6,
            moas_share: 0.1,
            withdraw_share: 0.1,
            as_set_share: 0.01,
            skew_secs: vec![0, 25, -35],
            hidden_share: 0.05,
            backlog_files: 4,
            backlog_records_per_file: 500,
            backlog_file_secs: 300,
            tail_days: 3,
            tail_files_per_day: 2,
            tail_records_per_file: 50,
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_archives() {
        let a = generate(&small(), 7);
        let b = generate(&small(), 7);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        for (x, y) in a.files.iter().flatten().zip(b.files.iter().flatten()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.bytes, y.bytes);
        }
        let c = generate(&small(), 8);
        assert_ne!(fingerprint(&a), fingerprint(&c), "the seed must matter");
    }

    #[test]
    fn files_decode_and_stay_clear_of_midnight() {
        let shape = small();
        let a = generate(&shape, 3);
        let mut total = 0u64;
        for (c, files) in a.files.iter().enumerate() {
            for f in files {
                let mut reader = moas_mrt::MrtReader::new(&f.bytes[..]);
                let mut n = 0;
                for rec in reader.by_ref() {
                    let secs = rec.timestamp % 86_400;
                    assert!((DAY_MARGIN - 60..86_400 - DAY_MARGIN + 60).contains(&secs));
                    n += 1;
                }
                assert_eq!(reader.stats().records_skipped, 0);
                assert_eq!(n, f.records);
                total += n;
            }
            if c == 0 {
                assert_eq!(total as usize, a.updates.len(), "collector 0 sees all");
            }
        }
    }
}
