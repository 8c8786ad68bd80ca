//! Collector-layout discovery: finding dated update files in arrival
//! order.
//!
//! A Route Views / RIS collector lands BGP4MP update archives as
//! `updates.YYYYMMDD.HHMM.mrt` files in a flat directory. Discovery
//! sorts by the *encoded* timestamp, never by mtime or directory
//! order — a file that lands late (out of order within a polling
//! window) still slots into its timestamp position as long as the
//! feed has not advanced past it.

use moas_net::Date;
use std::io;
use std::path::{Path, PathBuf};

/// One discovered update-archive file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedFile {
    /// File name (the feed's cursor keys on this).
    pub name: String,
    /// Date encoded in the name.
    pub date: Date,
    /// `HHMM` encoded in the name (0000 for one-file-per-day feeds).
    pub hhmm: u16,
    /// Full path.
    pub path: PathBuf,
}

impl FeedFile {
    /// The timestamp-order sort key (name breaks ties), borrowed —
    /// comparisons allocate nothing.
    pub fn sort_key(&self) -> (Date, u16, &str) {
        (self.date, self.hhmm, self.name.as_str())
    }

    /// The unix timestamp at which the file's slot starts (UTC day +
    /// `HHMM`) — the clock MRT record timestamps use, so it compares
    /// directly against ingested records.
    pub fn slot_head_ts(&self) -> u32 {
        moas_mrt::snapshot::midnight_timestamp(self.date)
            .saturating_add((self.hhmm / 100) as u32 * 3_600 + (self.hhmm % 100) as u32 * 60)
    }
}

/// Parses `updates.YYYYMMDD.HHMM.mrt`; `None` for anything else
/// (temp files, table dumps, stray artifacts are simply not feed
/// input).
pub fn parse_update_name(name: &str) -> Option<(Date, u16)> {
    let rest = name.strip_prefix("updates.")?;
    let rest = rest.strip_suffix(".mrt")?;
    let (date8, time4) = rest.split_once('.')?;
    if date8.len() != 8 || time4.len() != 4 {
        return None;
    }
    if !date8.bytes().all(|b| b.is_ascii_digit()) || !time4.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let year: i32 = date8[..4].parse().ok()?;
    let month: u8 = date8[4..6].parse().ok()?;
    let day: u8 = date8[6..8].parse().ok()?;
    let date = Date::new(year, month, day).ok()?;
    let hh: u16 = time4[..2].parse().ok()?;
    let mm: u16 = time4[2..].parse().ok()?;
    if hh > 23 || mm > 59 {
        return None;
    }
    Some((date, hh * 100 + mm))
}

/// Scans a collector directory for update files, sorted by
/// `(date, hhmm, name)`.
pub fn scan_layout(dir: &Path) -> io::Result<Vec<FeedFile>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((date, hhmm)) = parse_update_name(name) else {
            continue;
        };
        files.push(FeedFile {
            name: name.to_string(),
            date,
            hhmm,
            path: entry.path(),
        });
    }
    files.sort_by(|a, b| (a.date, a.hhmm, a.name.as_str()).cmp(&(b.date, b.hhmm, b.name.as_str())));
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_collector_names_and_rejects_noise() {
        let (date, hhmm) = parse_update_name("updates.20010506.0915.mrt").unwrap();
        assert_eq!(date, Date::ymd(2001, 5, 6));
        assert_eq!(hhmm, 915);
        for bad in [
            "rib.20010506.mrt",
            "updates.20010506.0915.mrt.tmp",
            "updates.2001056.0915.mrt",
            "updates.20010506.2460.mrt",
            "updates.20011306.0000.mrt",
            "updates.20010506.mrt",
            "MANIFEST",
        ] {
            assert!(parse_update_name(bad).is_none(), "{bad} must not parse");
        }
    }

    #[test]
    fn scan_sorts_by_encoded_timestamp_not_directory_order() {
        let dir = std::env::temp_dir().join(format!("moas-feed-layout-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Created deliberately out of timestamp order.
        for name in [
            "updates.20010103.0000.mrt",
            "updates.20010101.1200.mrt",
            "updates.20010101.0000.mrt",
            "updates.20010102.0000.mrt",
            "notes.txt",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let files = scan_layout(&dir).unwrap();
        let names: Vec<&str> = files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "updates.20010101.0000.mrt",
                "updates.20010101.1200.mrt",
                "updates.20010102.0000.mrt",
                "updates.20010103.0000.mrt",
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
