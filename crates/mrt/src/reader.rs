//! Streaming MRT file reader and writer with fault tolerance.
//!
//! The reader mirrors the fault-injection ethos of the networking
//! guides: damaged records are *counted and skipped* (the MRT length
//! field delimits them even when the body is garbage), so a multi-year
//! archive scan degrades gracefully instead of aborting. [`ReadStats`]
//! reports exactly what was skipped and why.

use crate::error::MrtError;
use crate::record::{MrtRecord, MAX_RECORD_LEN};
use bytes::Bytes;
use std::io::{self, BufReader, BufWriter, Read, Write};

/// Counters describing one reading pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Records decoded successfully.
    pub records_ok: u64,
    /// Records whose body failed to parse and were skipped.
    pub records_skipped: u64,
    /// Records with an unimplemented (type, subtype) — also skipped.
    pub records_unsupported: u64,
    /// Bytes consumed from the underlying stream.
    pub bytes_read: u64,
    /// Whether the stream ended mid-record (truncated archive tail).
    pub truncated_tail: bool,
}

/// A streaming MRT reader over any `Read`.
///
/// Iterate it to receive decoded records; damaged or unsupported
/// records are skipped and tallied in [`MrtReader::stats`]. Only real
/// I/O errors end the iteration early.
pub struct MrtReader<R: Read> {
    inner: BufReader<R>,
    stats: ReadStats,
    /// Hard error encountered (I/O); ends iteration.
    fatal: Option<MrtError>,
}

impl<R: Read> MrtReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        MrtReader {
            inner: BufReader::new(inner),
            stats: ReadStats::default(),
            fatal: None,
        }
    }

    /// Counters for the pass so far.
    pub fn stats(&self) -> &ReadStats {
        &self.stats
    }

    /// The fatal error that ended iteration, if any.
    pub fn fatal_error(&self) -> Option<&MrtError> {
        self.fatal.as_ref()
    }

    /// Fills `buf`, or returns `Ok(false)` at end of stream; a
    /// partial fill is a truncated tail.
    fn read_exact_or_eof(&mut self, buf: &mut [u8]) -> Result<bool, io::Error> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) => {
                    if filled > 0 {
                        self.stats.truncated_tail = true;
                    }
                    return Ok(false);
                }
                Ok(k) => filled += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.stats.bytes_read += buf.len() as u64;
        Ok(true)
    }

    /// Reads the next well-formed record, skipping damaged ones.
    /// Returns `None` at end of stream or on a fatal I/O error
    /// (inspect [`MrtReader::fatal_error`] to distinguish).
    ///
    /// The header lands on the stack and the body straight behind a
    /// copy of it in the one buffer the decoder views.
    pub fn next_record(&mut self) -> Option<MrtRecord> {
        loop {
            let mut header = [0u8; 12];
            match self.read_exact_or_eof(&mut header) {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.fatal = Some(MrtError::Io(e));
                    return None;
                }
            }
            let len = u32::from_be_bytes([header[8], header[9], header[10], header[11]]);
            if len > MAX_RECORD_LEN {
                // Cannot trust the length field; resynchronization is
                // impossible without it, so treat as end of stream.
                self.fatal = Some(MrtError::OversizedRecord(len));
                return None;
            }
            let mut record_bytes = vec![0u8; 12 + len as usize];
            record_bytes[..12].copy_from_slice(&header);
            match self.read_exact_or_eof(&mut record_bytes[12..]) {
                Ok(true) => {}
                Ok(false) => {
                    self.stats.truncated_tail = true;
                    return None;
                }
                Err(e) => {
                    self.fatal = Some(MrtError::Io(e));
                    return None;
                }
            }
            let mut buf = Bytes::from(record_bytes);
            match MrtRecord::decode(&mut buf) {
                Ok(rec) => {
                    self.stats.records_ok += 1;
                    return Some(rec);
                }
                Err(MrtError::UnsupportedType { .. }) => {
                    self.stats.records_unsupported += 1;
                    continue;
                }
                Err(_) => {
                    self.stats.records_skipped += 1;
                    continue;
                }
            }
        }
    }
}

impl<R: Read> Iterator for MrtReader<R> {
    type Item = MrtRecord;

    fn next(&mut self) -> Option<MrtRecord> {
        self.next_record()
    }
}

/// A buffered MRT writer over any `Write`.
pub struct MrtWriter<W: Write> {
    inner: BufWriter<W>,
    records_written: u64,
    bytes_written: u64,
}

impl<W: Write> MrtWriter<W> {
    /// Wraps a byte sink.
    pub fn new(inner: W) -> Self {
        MrtWriter {
            inner: BufWriter::new(inner),
            records_written: 0,
            bytes_written: 0,
        }
    }

    /// Appends one record.
    pub fn write_record(&mut self, record: &MrtRecord) -> Result<(), MrtError> {
        let enc = record.encode();
        self.inner.write_all(&enc)?;
        self.records_written += 1;
        self.bytes_written += enc.len() as u64;
        Ok(())
    }

    /// Appends many records.
    pub fn write_all<'a, I: IntoIterator<Item = &'a MrtRecord>>(
        &mut self,
        records: I,
    ) -> Result<(), MrtError> {
        for r in records {
            self.write_record(r)?;
        }
        Ok(())
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> Result<W, MrtError> {
        self.inner.flush()?;
        self.inner
            .into_inner()
            .map_err(|e| MrtError::Io(io::Error::other(e.to_string())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MrtBody;
    use crate::table_dump::TableDumpEntry;
    use moas_bgp::attrs::Attrs;
    use moas_net::Asn;
    use std::net::{IpAddr, Ipv4Addr};

    fn rec(seq: u16) -> MrtRecord {
        MrtRecord {
            timestamp: 891907200 + seq as u32,
            body: MrtBody::TableDump(TableDumpEntry {
                view: 0,
                sequence: seq,
                prefix: "192.0.2.0/24".parse().unwrap(),
                status: 1,
                originated: 891900000,
                peer_addr: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
                peer_as: Asn::new(701),
                attrs: Attrs {
                    as_path: Some("701 8584".parse().unwrap()),
                    ..Attrs::default()
                },
            }),
        }
    }

    fn write_stream(records: &[MrtRecord]) -> Vec<u8> {
        let mut w = MrtWriter::new(Vec::new());
        w.write_all(records).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let records: Vec<MrtRecord> = (0..10).map(rec).collect();
        let bytes = write_stream(&records);
        let mut reader = MrtReader::new(&bytes[..]);
        let out: Vec<MrtRecord> = reader.by_ref().collect();
        assert_eq!(out, records);
        assert_eq!(reader.stats().records_ok, 10);
        assert_eq!(reader.stats().records_skipped, 0);
        assert!(!reader.stats().truncated_tail);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let mut reader = MrtReader::new(&[][..]);
        assert!(reader.next_record().is_none());
        assert_eq!(reader.stats(), &ReadStats::default());
    }

    #[test]
    fn corrupt_record_is_skipped_not_fatal() {
        let mut records: Vec<MrtRecord> = (0..3).map(rec).collect();
        let mut bytes = Vec::new();
        // Record 0 fine, record 1 corrupted in the body, record 2 fine.
        bytes.extend_from_slice(&records[0].encode());
        let mut bad = records[1].encode().to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF; // corrupt attribute bytes
        bad[20] = 77; // corrupt something structural too
        bytes.extend_from_slice(&bad);
        bytes.extend_from_slice(&records[2].encode());

        let mut reader = MrtReader::new(&bytes[..]);
        let out: Vec<MrtRecord> = reader.by_ref().collect();
        records.remove(1);
        // The corrupted record may still parse (corruption can land in
        // don't-care bytes); accept either 2 or 3 records but never an
        // abort before the last good record.
        assert!(out.len() >= 2);
        assert_eq!(out.last(), records.last());
        assert_eq!(
            reader.stats().records_ok + reader.stats().records_skipped,
            3
        );
    }

    #[test]
    fn unsupported_type_is_counted_separately() {
        let good = rec(0);
        let mut unknown = rec(1).encode().to_vec();
        unknown[4] = 0;
        unknown[5] = 42; // type 42 — not implemented
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&unknown);
        bytes.extend_from_slice(&good.encode());
        let mut reader = MrtReader::new(&bytes[..]);
        let out: Vec<MrtRecord> = reader.by_ref().collect();
        assert_eq!(out, vec![good]);
        assert_eq!(reader.stats().records_unsupported, 1);
        assert_eq!(reader.stats().records_ok, 1);
    }

    #[test]
    fn truncated_tail_is_flagged() {
        let records: Vec<MrtRecord> = (0..2).map(rec).collect();
        let bytes = write_stream(&records);
        let cut = bytes.len() - 5;
        let mut reader = MrtReader::new(&bytes[..cut]);
        let out: Vec<MrtRecord> = reader.by_ref().collect();
        assert_eq!(out.len(), 1);
        assert!(reader.stats().truncated_tail);
        assert!(reader.fatal_error().is_none());
    }

    #[test]
    fn insane_length_field_is_fatal() {
        let mut bytes = rec(0).encode().to_vec();
        bytes[8] = 0xFF; // length = huge
        let mut reader = MrtReader::new(&bytes[..]);
        assert!(reader.next_record().is_none());
        assert!(matches!(
            reader.fatal_error(),
            Some(MrtError::OversizedRecord(_))
        ));
    }

    #[test]
    fn writer_counters() {
        let records: Vec<MrtRecord> = (0..4).map(rec).collect();
        let mut w = MrtWriter::new(Vec::new());
        w.write_all(&records).unwrap();
        assert_eq!(w.records_written(), 4);
        let expected: usize = records.iter().map(|r| r.encode().len()).sum();
        assert_eq!(w.bytes_written(), expected as u64);
    }
}
