//! Incremental tailing of one growing MRT file.
//!
//! A collector writes the current update file in place; the follower
//! must consume complete records as they land without ever treating
//! the in-flight tail as corruption. The tailer reads newly appended
//! bytes behind a pending buffer and frames only *complete* records
//! out of it: a partial header or body at the end of the buffer is
//! simply not there yet — the next poll retries. Only when the file
//! is declared final (a newer file exists) do leftover bytes become a
//! truncated tail, counted and skipped rather than poisoning the
//! feed.
//!
//! Framing is zero-copy: `FileTailer::frame` returns each complete
//! record as an undecoded [`Bytes`] view into the one buffer its pass
//! read, so the federation can key or drop a record before paying for
//! its decode. [`FileTailer::poll`] decodes every framed record.
//!
//! `consumed()` — the byte offset of the last complete record — is
//! what the durable cursor records, so a restarted follower can
//! reopen the file and seek straight back to a record boundary.

use bytes::Bytes;
use moas_mrt::record::{MrtRecord, MAX_RECORD_LEN};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// What one framing pass over the available bytes produced.
#[derive(Debug, Default)]
pub(crate) struct FramePass {
    /// Complete records — 12-byte MRT header plus body — in file
    /// order, undecoded. All are views into one buffer per pass.
    pub(crate) frames: Vec<Bytes>,
    /// Absolute file offset just past each frame (parallel to
    /// `frames`).
    pub(crate) ends: Vec<u64>,
    /// New bytes read from the file this pass.
    pub(crate) bytes_read: u64,
}

/// What one tailing pass over the available bytes produced.
#[derive(Debug, Default)]
pub struct TailPass {
    /// Complete records decoded this pass, in file order.
    pub records: Vec<MrtRecord>,
    /// Absolute file offset just past each decoded record (parallel
    /// to `records`; includes any skipped-record bytes in between) —
    /// what lets a rebuild replay exactly up to a cursor offset.
    pub ends: Vec<u64>,
    /// Records whose body failed to decode (length field still
    /// delimited them, so the scan resynchronized and continued).
    pub records_skipped: u64,
    /// New bytes read from the file this pass.
    pub bytes_read: u64,
    /// Microseconds spent in the MRT decode loop this pass — the
    /// follower feeds this into the `mrt_decode` stage histogram.
    pub decode_micros: u64,
}

/// An open position in one growing update file.
pub struct FileTailer {
    path: PathBuf,
    /// Bytes fully consumed as complete records (a record boundary).
    consumed: u64,
    /// Bytes read past `consumed` that do not yet form a record.
    pending: Vec<u8>,
    /// A length field exceeded [`MAX_RECORD_LEN`]: the remainder of
    /// the file cannot be resynchronized and is abandoned.
    poisoned: bool,
}

impl FileTailer {
    /// Opens a tailer at `offset` (must be a record boundary — the
    /// cursor's invariant).
    pub fn open(path: &Path, offset: u64) -> FileTailer {
        FileTailer {
            path: path.to_path_buf(),
            consumed: offset,
            pending: Vec::new(),
            poisoned: false,
        }
    }

    /// The record-boundary offset consumed so far — what the cursor
    /// persists.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Bytes sitting in the pending buffer (an in-flight record, or a
    /// truncated tail if the file is final).
    pub fn pending_bytes(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Whether an oversized length field made the rest of the file
    /// unscannable.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Reads newly appended bytes and frames every complete record
    /// without decoding it. Partial trailing bytes stay pending for
    /// the next pass. A file shorter than `consumed + pending` (a
    /// rewrite or truncation underfoot) is reported as `InvalidData` —
    /// the cursor cannot be trusted against a mutated file.
    pub(crate) fn frame(&mut self) -> io::Result<FramePass> {
        let mut pass = FramePass::default();
        if self.poisoned {
            return Ok(pass);
        }
        let mut f = File::open(&self.path)?;
        let len = f.metadata()?.len();
        let read_from = self.consumed + self.pending.len() as u64;
        if len < read_from {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} shrank under the feed: consumed {} pending {} but file is {} bytes",
                    self.path.display(),
                    self.consumed,
                    self.pending.len(),
                    len
                ),
            ));
        }
        if len == read_from {
            return Ok(pass);
        }
        let mut buf = std::mem::take(&mut self.pending);
        buf.reserve_exact(usize::try_from(len - read_from).unwrap_or(0));
        f.seek(SeekFrom::Start(read_from))?;
        pass.bytes_read = f.read_to_end(&mut buf)? as u64;

        // Split complete records off the front of the buffer.
        let mut rest = Bytes::from(buf);
        let mut at = 0u64;
        while rest.len() >= 12 {
            let body_len = u32::from_be_bytes([rest[8], rest[9], rest[10], rest[11]]);
            if body_len > MAX_RECORD_LEN {
                // Resynchronization is impossible without a trustable
                // length; abandon the rest of this file (counted, not
                // fatal to the feed).
                self.poisoned = true;
                break;
            }
            let total = 12 + body_len as usize;
            if rest.len() < total {
                break; // record still in flight
            }
            pass.frames.push(rest.split_to(total));
            at += total as u64;
            pass.ends.push(self.consumed + at);
        }
        self.consumed += at;
        self.pending = rest.to_vec();
        Ok(pass)
    }

    /// Reads newly appended bytes and decodes every complete record
    /// (`FileTailer::frame`, then a decode per frame).
    pub fn poll(&mut self) -> io::Result<TailPass> {
        let framed = self.frame()?;
        let decode_started = std::time::Instant::now();
        let mut pass = TailPass {
            bytes_read: framed.bytes_read,
            ..TailPass::default()
        };
        for (mut frame, end) in framed.frames.into_iter().zip(framed.ends) {
            match MrtRecord::decode(&mut frame) {
                Ok(rec) => {
                    pass.records.push(rec);
                    pass.ends.push(end);
                }
                Err(_) => pass.records_skipped += 1,
            }
        }
        pass.decode_micros = decode_started.elapsed().as_micros() as u64;
        Ok(pass)
    }

    /// Finalizes the file: any bytes still pending are a truncated
    /// tail (the collector abandoned the upload). Returns the bytes
    /// discarded.
    pub fn finalize(&mut self) -> u64 {
        let dropped = self.pending.len() as u64;
        self.pending.clear();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn record(ts: u32) -> MrtRecord {
        use moas_mrt::bgp4mp::{Bgp4mpMessage, PeeringHeader};
        use moas_mrt::record::MrtBody;
        MrtRecord {
            timestamp: ts,
            body: MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                header: PeeringHeader {
                    peer_as: moas_net::Asn::new(701),
                    local_as: moas_net::Asn::new(6447),
                    if_index: 0,
                    peer_addr: "10.0.0.1".parse().unwrap(),
                    local_addr: "10.0.0.2".parse().unwrap(),
                },
                message: moas_bgp::message::BgpMessage::Update(moas_bgp::message::UpdateMsg {
                    withdrawn: vec!["192.0.2.0/24".parse().unwrap()],
                    attrs: Default::default(),
                    announced: vec![],
                }),
                as4: false,
            }),
        }
    }

    #[test]
    fn decodes_incrementally_across_partial_writes() {
        let dir = std::env::temp_dir().join(format!("moas-feed-tail-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("updates.20010101.0000.mrt");

        let recs: Vec<MrtRecord> = (0..3).map(record).collect();
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&r.encode());
        }

        // Write one-and-a-half records; the tailer must yield exactly
        // one and keep the half pending.
        let one = recs[0].encode().len();
        let cut = one + 7;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let mut tailer = FileTailer::open(&path, 0);
        let pass = tailer.poll().unwrap();
        assert_eq!(pass.records, vec![recs[0].clone()]);
        assert_eq!(tailer.consumed(), one as u64);
        assert!(tailer.pending_bytes() > 0);

        // Nothing new: another poll yields nothing and stays put.
        let pass = tailer.poll().unwrap();
        assert!(pass.records.is_empty());
        assert_eq!(pass.bytes_read, 0);

        // Complete the file: the rest decodes.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&bytes[cut..]).unwrap();
        drop(f);
        let pass = tailer.poll().unwrap();
        assert_eq!(pass.records, recs[1..].to_vec());
        assert_eq!(tailer.consumed(), bytes.len() as u64);
        assert_eq!(tailer.pending_bytes(), 0);
        assert_eq!(tailer.finalize(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frames_are_undecoded_views_into_one_buffer() {
        let dir = std::env::temp_dir().join(format!("moas-feed-tail4-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("updates.20010101.0000.mrt");
        let encoded: Vec<_> = (0..3).map(|ts| record(ts).encode()).collect();
        let bytes: Vec<u8> = encoded.iter().flat_map(|e| e.to_vec()).collect();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let mut tailer = FileTailer::open(&path, 0);
        let pass = tailer.frame().unwrap();
        assert_eq!(pass.frames.len(), 2, "the cut third record stays pending");
        let one = encoded[0].len() as u64;
        assert_eq!(pass.ends, vec![one, 2 * one]);
        assert_eq!(&pass.frames[0][..], &encoded[0][..]);
        assert_eq!(&pass.frames[1][..], &encoded[1][..]);
        assert_eq!(
            pass.frames[0].as_ptr_range().end,
            pass.frames[1].as_ptr(),
            "adjacent frames view one buffer"
        );
        assert_eq!(tailer.consumed(), 2 * one);
        assert_eq!(tailer.pending_bytes(), one - 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopens_at_a_cursor_offset() {
        let dir = std::env::temp_dir().join(format!("moas-feed-tail2-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("updates.20010101.0000.mrt");
        let recs: Vec<MrtRecord> = (0..4).map(record).collect();
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&r.encode());
        }
        std::fs::write(&path, &bytes).unwrap();

        let offset = recs[0].encode().len() as u64 + recs[1].encode().len() as u64;
        let mut tailer = FileTailer::open(&path, offset);
        let pass = tailer.poll().unwrap();
        assert_eq!(
            pass.records,
            recs[2..].to_vec(),
            "resume skips consumed records"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shrinking_file_is_detected() {
        let dir = std::env::temp_dir().join(format!("moas-feed-tail3-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("updates.20010101.0000.mrt");
        let bytes = record(1).encode();
        std::fs::write(&path, &bytes[..]).unwrap();
        let mut tailer = FileTailer::open(&path, 0);
        tailer.poll().unwrap();
        std::fs::write(&path, b"tiny").unwrap();
        assert!(tailer.poll().is_err(), "a shrunk file must not be trusted");
        std::fs::remove_dir_all(&dir).ok();
    }
}
