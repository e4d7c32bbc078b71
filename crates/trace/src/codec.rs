//! Compact binary trace codec: spill a request stream once, replay it
//! many times.
//!
//! The full experiment matrix simulates every trace under several power
//! policies. Materializing a `Scale::Full` trace (10⁷+ requests × 32-byte
//! [`IoRequest`]s) for that would defeat the streaming pipeline, and
//! regenerating it per policy would triple generation time — so the
//! pipeline generates once, spills through [`TraceWriter`], and replays
//! each policy run from a [`TraceReader`] (itself a
//! [`RequestStream`](dpm_disksim::RequestStream), so the simulator can't
//! tell it from a live generator).
//!
//! ## Record layout
//!
//! The file opens with the 8-byte magic [`TRACE_MAGIC`]; each request is
//! then
//!
//! | field   | encoding                                                    |
//! |---------|-------------------------------------------------------------|
//! | tag     | LEB128 varint of `proc_id << 1 \| kind` (kind: write = 1)   |
//! | arrival | zigzag varint of the *IEEE-754 bit-pattern* delta vs. the previous record |
//! | offset  | zigzag varint of the byte-offset delta vs. the previous record |
//! | len     | LEB128 varint                                               |
//!
//! Encoding the arrival delta on the `f64` bit pattern (rather than a
//! quantized time) keeps the round trip *exact* — replayed floats are the
//! very bits the generator produced, which is what lets spilled-and-
//! replayed runs stay bit-identical to live ones. Nearby arrivals share
//! high mantissa bits, so deltas still compress: typical traces land
//! around 10–16 bytes per request versus 29+ for the text format.

use dpm_disksim::{IoRequest, RequestKind, RequestStream};
use std::io::{self, Read, Write};

/// File magic opening every binary trace ("DPM trace, version 1").
pub const TRACE_MAGIC: &[u8; 8] = b"DPMTRC01";

/// Encoder half of the codec: writes a request stream to any
/// [`Write`] sink through an internal buffer (no `BufWriter` needed).
pub struct TraceWriter<W: Write> {
    sink: W,
    buf: Vec<u8>,
    prev_arrival_bits: u64,
    prev_offset: u64,
    requests: u64,
    bytes: u64,
}

const WRITER_FLUSH_BYTES: usize = 64 * 1024;

impl<W: Write> TraceWriter<W> {
    /// A writer over `sink`; the magic header is staged immediately.
    pub fn new(sink: W) -> TraceWriter<W> {
        let mut buf = Vec::with_capacity(WRITER_FLUSH_BYTES + 64);
        buf.extend_from_slice(TRACE_MAGIC);
        TraceWriter {
            sink,
            buf,
            prev_arrival_bits: 0,
            prev_offset: 0,
            requests: 0,
            bytes: TRACE_MAGIC.len() as u64,
        }
    }

    /// Appends one request.
    ///
    /// # Errors
    ///
    /// Propagates sink write errors.
    pub fn write(&mut self, r: &IoRequest) -> io::Result<()> {
        let kind = match r.kind {
            RequestKind::Read => 0u64,
            RequestKind::Write => 1u64,
        };
        let before = self.buf.len();
        put_varint(&mut self.buf, (u64::from(r.proc_id) << 1) | kind);
        let bits = r.arrival_ms.to_bits();
        put_varint(
            &mut self.buf,
            zigzag(bits.wrapping_sub(self.prev_arrival_bits) as i64),
        );
        self.prev_arrival_bits = bits;
        put_varint(
            &mut self.buf,
            zigzag((r.offset as i64).wrapping_sub(self.prev_offset as i64)),
        );
        self.prev_offset = r.offset;
        put_varint(&mut self.buf, r.len);
        self.requests += 1;
        self.bytes += (self.buf.len() - before) as u64;
        if self.buf.len() >= WRITER_FLUSH_BYTES {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Drains an entire stream into the writer.
    ///
    /// # Errors
    ///
    /// Propagates sink write errors.
    pub fn write_stream(&mut self, stream: &mut dyn RequestStream) -> io::Result<()> {
        while let Some(r) = stream.next_request() {
            self.write(&r)?;
        }
        Ok(())
    }

    /// Requests written so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total encoded bytes so far (header included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Flushes everything and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates sink write/flush errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.sink.write_all(&self.buf)?;
        self.buf.clear();
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Decoder half of the codec: replays a binary trace as a
/// [`RequestStream`]. Reads through an internal buffer, so handing it a
/// raw `File` is fine.
pub struct TraceReader<R: Read> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    prev_arrival_bits: u64,
    prev_offset: u64,
}

const READER_BUF_BYTES: usize = 64 * 1024;

impl<R: Read> TraceReader<R> {
    /// A reader over `src`.
    ///
    /// # Errors
    ///
    /// Fails if the source does not start with [`TRACE_MAGIC`].
    pub fn new(src: R) -> io::Result<TraceReader<R>> {
        let mut r = TraceReader {
            src,
            buf: vec![0; READER_BUF_BYTES],
            pos: 0,
            end: 0,
            prev_arrival_bits: 0,
            prev_offset: 0,
        };
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = r.next_byte()?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "truncated trace header")
            })?;
        }
        if &magic != TRACE_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a binary trace (bad magic)",
            ));
        }
        Ok(r)
    }

    fn next_byte(&mut self) -> io::Result<Option<u8>> {
        if self.pos == self.end {
            self.end = self.src.read(&mut self.buf)?;
            self.pos = 0;
            if self.end == 0 {
                return Ok(None);
            }
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(Some(b))
    }

    /// A varint whose first byte has already been read. A `u64` needs at
    /// most 10 bytes, the last carrying a single bit; anything longer or
    /// wider is corrupt.
    fn finish_varint(&mut self, first: u8) -> io::Result<u64> {
        let mut v = u64::from(first & 0x7f);
        let mut shift = 7;
        let mut byte = first;
        while byte & 0x80 != 0 {
            byte = self.next_byte()?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "truncated trace record")
            })?;
            if shift == 63 && byte > 1 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "varint overflows 64 bits in trace record",
                ));
            }
            v |= u64::from(byte & 0x7f) << shift;
            shift += 7;
        }
        Ok(v)
    }

    fn varint(&mut self) -> io::Result<u64> {
        let first = self.next_byte()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "truncated trace record")
        })?;
        self.finish_varint(first)
    }

    /// Decodes the next request; `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Fails on source read errors, a record truncated mid-field
    /// ([`io::ErrorKind::UnexpectedEof`]), and a field that cannot be a
    /// valid encoding ([`io::ErrorKind::InvalidData`]: a varint wider than
    /// 64 bits, a processor id beyond `u32`).
    pub fn read_request(&mut self) -> io::Result<Option<IoRequest>> {
        let Some(first) = self.next_byte()? else {
            return Ok(None);
        };
        let tag = self.finish_varint(first)?;
        let kind = if tag & 1 == 0 {
            RequestKind::Read
        } else {
            RequestKind::Write
        };
        let proc_id = u32::try_from(tag >> 1)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "processor id overflow"))?;
        let delta = unzigzag(self.varint()?);
        let bits = self.prev_arrival_bits.wrapping_add(delta as u64);
        self.prev_arrival_bits = bits;
        let doff = unzigzag(self.varint()?);
        let offset = (self.prev_offset as i64).wrapping_add(doff) as u64;
        self.prev_offset = offset;
        let len = self.varint()?;
        Ok(Some(IoRequest {
            arrival_ms: f64::from_bits(bits),
            offset,
            len,
            kind,
            proc_id,
        }))
    }
}

impl<R: Read> RequestStream for TraceReader<R> {
    /// # Panics
    ///
    /// Panics on a read error or corrupt record — replay sources are files
    /// this process just wrote, so corruption is a bug, not an input
    /// condition. Use [`read_request`](Self::read_request) to handle
    /// untrusted data.
    fn next_request(&mut self) -> Option<IoRequest> {
        self.read_request().expect("binary trace replay failed")
    }
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(reqs: &[IoRequest]) -> (Vec<IoRequest>, u64) {
        let mut w = TraceWriter::new(Vec::new());
        for r in reqs {
            w.write(r).unwrap();
        }
        assert_eq!(w.requests(), reqs.len() as u64);
        let bytes_written = w.bytes_written();
        let encoded = w.finish().unwrap();
        assert_eq!(encoded.len() as u64, bytes_written);
        let mut rd = TraceReader::new(&encoded[..]).unwrap();
        let mut out = Vec::new();
        while let Some(r) = rd.next_request() {
            out.push(r);
        }
        (out, bytes_written)
    }

    #[test]
    fn zigzag_inverts() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn roundtrip_is_exact_including_float_bits() {
        let reqs = vec![
            IoRequest {
                arrival_ms: 0.1 + 0.2, // not representable "nicely": bit-exactness matters
                offset: 4096,
                len: 65536,
                kind: RequestKind::Read,
                proc_id: 0,
            },
            IoRequest {
                arrival_ms: 0.30000000000000004,
                offset: 0,
                len: 512,
                kind: RequestKind::Write,
                proc_id: 7,
            },
            IoRequest {
                arrival_ms: 1.0e9,
                offset: u64::MAX / 2,
                len: 1,
                kind: RequestKind::Read,
                proc_id: u32::MAX,
            },
        ];
        let (out, _) = roundtrip(&reqs);
        assert_eq!(out.len(), reqs.len());
        for (a, b) in reqs.iter().zip(&out) {
            assert_eq!(a.arrival_ms.to_bits(), b.arrival_ms.to_bits());
            assert_eq!(
                (a.offset, a.len, a.kind, a.proc_id),
                (b.offset, b.len, b.kind, b.proc_id)
            );
        }
    }

    #[test]
    fn sequential_trace_compresses_well() {
        // A coalesced sequential sweep: near-constant inter-arrival,
        // strictly advancing offsets — the common case the delta encoding
        // targets.
        let mut reqs = Vec::new();
        let mut t = 0.0f64;
        for i in 0..10_000u64 {
            t += 3.7;
            reqs.push(IoRequest {
                arrival_ms: t,
                offset: i * 1_048_576,
                len: 1_048_576,
                kind: RequestKind::Read,
                proc_id: 0,
            });
        }
        let (out, bytes) = roundtrip(&reqs);
        assert_eq!(out, reqs);
        let per_request = bytes as f64 / reqs.len() as f64;
        assert!(per_request <= 16.0, "{per_request} bytes/request");
    }

    #[test]
    fn empty_stream_roundtrips() {
        let (out, bytes) = roundtrip(&[]);
        assert!(out.is_empty());
        assert_eq!(bytes, TRACE_MAGIC.len() as u64);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(TraceReader::new(&b"NOTATRACE"[..]).is_err());
        assert!(TraceReader::new(&b"DPM"[..]).is_err());
    }

    #[test]
    fn overlong_varint_is_invalid_data() {
        let mut bytes = TRACE_MAGIC.to_vec();
        // Eleven continuation-flagged bytes: past the 10 a u64 can need.
        bytes.extend_from_slice(&[0xff; 11]);
        bytes.push(0);
        let err = TraceReader::new(&bytes[..])
            .unwrap()
            .read_request()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A tenth byte may carry only bit 63.
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.extend_from_slice(&[0x80; 9]);
        bytes.push(0x02);
        let err = TraceReader::new(&bytes[..])
            .unwrap()
            .read_request()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // u64::MAX itself still round-trips.
        let (out, _) = roundtrip(&[IoRequest {
            arrival_ms: f64::from_bits(u64::MAX >> 1),
            offset: u64::MAX,
            len: u64::MAX,
            kind: RequestKind::Write,
            proc_id: u32::MAX,
        }]);
        assert_eq!(out[0].len, u64::MAX);
    }

    /// Malformed input ends in a typed error or a clean end of stream,
    /// never a panic: random bytes behind a valid header, seeded.
    #[test]
    fn random_bodies_never_panic() {
        let mut rng = dpm_obs::XorShift64Star::new(0x7ace_c0de);
        let (mut decoded, mut errors) = (0u64, 0u64);
        for _ in 0..10_000 {
            let mut bytes = TRACE_MAGIC.to_vec();
            let len = rng.next_u64() % 64;
            for _ in 0..len {
                // Bias toward continuation bytes so long varints occur.
                let b = rng.next_u64() as u8;
                bytes.push(if rng.next_u64().is_multiple_of(4) {
                    b
                } else {
                    b | 0x80
                });
            }
            let mut rd = TraceReader::new(&bytes[..]).unwrap();
            loop {
                match rd.read_request() {
                    Ok(Some(_)) => decoded += 1,
                    Ok(None) => break,
                    Err(e) => {
                        assert!(matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ));
                        errors += 1;
                        break;
                    }
                }
            }
        }
        assert!(
            decoded > 0 && errors > 0,
            "{decoded} decoded, {errors} errors"
        );
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut w = TraceWriter::new(Vec::new());
        w.write(&IoRequest {
            arrival_ms: 1.5,
            offset: 9999,
            len: 4096,
            kind: RequestKind::Write,
            proc_id: 3,
        })
        .unwrap();
        let encoded = w.finish().unwrap();
        let cut = &encoded[..encoded.len() - 1];
        let mut rd = TraceReader::new(cut).unwrap();
        assert!(rd.read_request().is_err());
    }
}
