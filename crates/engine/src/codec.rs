//! A tiny, dependency-free binary codec for simulation snapshots.
//!
//! The snapshot subsystem (df-sim's `snapshot` module and the sweep
//! runner's journal) needs to persist exact simulator state — RNG words,
//! event queues, packet buffers — and read it back **bit-identically**.
//! The workspace has no serialisation framework, so the encoding is
//! hand-rolled here: little-endian fixed-width integers, `f64` via its IEEE
//! bit pattern (exact round-trip, NaN included), length-prefixed sequences.
//! No varints, no alignment tricks — the format is meant to be obvious and
//! stable, not compact.
//!
//! Framing (magic, version, checksum) is layered on top by
//! [`Encoder::finish_frame`] / [`Decoder::open_frame`]: a frame is
//! `magic(8) | version(u32) | payload_len(u64) | payload | fnv1a64(payload)`.
//! Readers reject wrong magic, unknown versions and checksum mismatches
//! *before* interpreting a single payload byte, so a truncated or corrupted
//! snapshot fails loudly instead of restoring garbage state. A file of
//! concatenated frames (the sweep journal) is walked with
//! [`Decoder::split_frame`], the only other place that knows the layout.

/// Errors produced when decoding a snapshot buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the requested value was complete.
    Truncated {
        /// Read position at which the shortfall was detected.
        at: usize,
        /// Bytes requested past that position.
        wanted: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The frame does not start with the expected magic bytes.
    BadMagic {
        /// The magic the reader expected.
        expected: [u8; 8],
        /// The bytes actually found.
        found: [u8; 8],
    },
    /// The frame's format version is not one the reader understands.
    UnsupportedVersion {
        /// The version the reader supports.
        supported: u32,
        /// The version found in the frame.
        found: u32,
    },
    /// The payload checksum does not match — the frame was corrupted or
    /// truncated in a way that preserved the length field.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// A decoded discriminant or length was outside its legal range.
    Invalid(
        /// Human-readable description of the violated constraint.
        String,
    ),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated {
                at,
                wanted,
                available,
            } => write!(
                f,
                "snapshot truncated at byte {at}: wanted {wanted} more bytes, {available} available"
            ),
            CodecError::BadMagic { expected, found } => write!(
                f,
                "bad snapshot magic: expected {expected:02x?}, found {found:02x?}"
            ),
            CodecError::UnsupportedVersion { supported, found } => write!(
                f,
                "unsupported format version {found} (this build reads version {supported})"
            ),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CodecError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bytes of a frame before its payload: `magic(8) | version(u32) |
/// payload_len(u64)`.
const FRAME_HEADER: usize = 8 + 4 + 8;
/// Bytes of a frame after its payload: the `fnv1a64` checksum.
const FRAME_TRAILER: usize = 8;

/// FNV-1a 64-bit hash — the frame checksum. Not cryptographic; it guards
/// against corruption and truncation, not tampering.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Append-only binary writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `bool` as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64` (portable across word sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f64` via its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write raw bytes with a `u64` length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Write a UTF-8 string with a `u64` length prefix.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write a sequence length prefix (callers then write the elements).
    pub fn seq(&mut self, len: usize) {
        self.usize(len);
    }

    /// Write an optional value: a presence `bool`, then the value through
    /// `write` when there is one.
    pub fn option<T>(&mut self, v: Option<T>, write: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            write(self, v);
        }
    }

    /// Consume the encoder, returning the raw (unframed) bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consume the encoder, wrapping the written payload in a checksummed
    /// frame: `magic | version | payload_len | payload | fnv1a64(payload)`.
    pub fn finish_frame(self, magic: [u8; 8], version: u32) -> Vec<u8> {
        let payload = self.buf;
        let mut out = Vec::with_capacity(FRAME_HEADER + payload.len() + FRAME_TRAILER);
        out.extend_from_slice(&magic);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let checksum = fnv1a64(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }
}

/// Sequential binary reader over a borrowed buffer.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Read from the start of `buf` (no frame expected).
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Validate a frame produced by [`Encoder::finish_frame`] — magic,
    /// version, length and checksum — and return a decoder positioned over
    /// the payload.
    pub fn open_frame(
        buf: &'a [u8],
        magic: [u8; 8],
        version: u32,
    ) -> Result<Decoder<'a>, CodecError> {
        let mut header = Decoder::new(buf);
        let found_magic: [u8; 8] = header.take(8)?.try_into().expect("take(8) returns 8 bytes");
        if found_magic != magic {
            return Err(CodecError::BadMagic {
                expected: magic,
                found: found_magic,
            });
        }
        let found_version = header.u32()?;
        if found_version != version {
            return Err(CodecError::UnsupportedVersion {
                supported: version,
                found: found_version,
            });
        }
        let payload_len = header.u64()? as usize;
        let payload = header.take(payload_len)?;
        let stored = header.u64()?;
        let computed = fnv1a64(payload);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        Ok(Decoder::new(payload))
    }

    /// Split the first frame off `buf`, a run of concatenated frames:
    /// `Ok(Some((payload, rest)))`, or `Ok(None)` at a **torn tail** — `buf`
    /// is empty, ends before the frame its length field announces, or holds
    /// a frame whose checksum does not match (what a crash mid-append leaves
    /// behind). Wrong magic or version on a complete frame is an error. The
    /// length field lies outside the checksum, so it is only ever compared
    /// with the bytes present, never added to an offset.
    pub fn split_frame(
        buf: &'a [u8],
        magic: [u8; 8],
        version: u32,
    ) -> Result<Option<(Decoder<'a>, &'a [u8])>, CodecError> {
        // the largest payload `buf` has room for
        let Some(room) = buf.len().checked_sub(FRAME_HEADER + FRAME_TRAILER) else {
            return Ok(None);
        };
        let len_field = buf[FRAME_HEADER - 8..FRAME_HEADER].try_into().unwrap();
        let payload_len = u64::from_le_bytes(len_field);
        if payload_len > room as u64 {
            return Ok(None);
        }
        let (frame, rest) = buf.split_at(FRAME_HEADER + payload_len as usize + FRAME_TRAILER);
        match Decoder::open_frame(frame, magic, version) {
            Ok(payload) => Ok(Some((payload, rest))),
            Err(CodecError::ChecksumMismatch { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Current read position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the buffer is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                at: self.pos,
                wanted: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `bool`, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Invalid(format!("bool byte {other}"))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize` (stored as `u64`), rejecting values that do not fit
    /// the platform word.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid(format!("usize value {v}")))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| CodecError::Invalid(format!("non-UTF-8 string: {e}")))
    }

    /// Read what [`Encoder::option`] wrote: a presence `bool`, then the
    /// value through `read` when there is one.
    pub fn option<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        self.bool()?.then(|| read(self)).transpose()
    }

    /// Read a sequence length prefix, bounds-checked against the remaining
    /// buffer assuming at least `min_elem_bytes` per element — so a corrupt
    /// length cannot trigger an absurd allocation.
    pub fn seq(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let len = self.usize()?;
        let floor = len.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(CodecError::Invalid(format!(
                "sequence of {len} elements cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"DFTEST01";

    #[test]
    fn scalar_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.bool(true);
        e.bool(false);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.usize(12345);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.f64(1.5e-300);
        e.str("hello ✓");
        e.option(Some(9u32), Encoder::u32);
        e.option(None, Encoder::u32);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.usize().unwrap(), 12345);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.f64().unwrap(), 1.5e-300);
        assert_eq!(d.str().unwrap(), "hello ✓");
        assert_eq!(d.option(Decoder::u32).unwrap(), Some(9));
        assert_eq!(d.option(Decoder::u32).unwrap(), None);
        assert!(d.is_exhausted());
    }

    #[test]
    fn truncated_reads_fail() {
        let mut e = Encoder::new();
        e.u32(1);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.u64().is_err());
        assert_eq!(d.position(), 0, "failed reads do not advance");
        assert!(d.u32().is_ok());
    }

    #[test]
    fn frame_round_trip_and_rejections() {
        let mut e = Encoder::new();
        e.u64(99);
        e.str("payload");
        let frame = e.finish_frame(MAGIC, 3);

        let mut d = Decoder::open_frame(&frame, MAGIC, 3).unwrap();
        assert_eq!(d.u64().unwrap(), 99);
        assert_eq!(d.str().unwrap(), "payload");
        assert!(d.is_exhausted());

        // wrong magic
        let err = Decoder::open_frame(&frame, *b"OTHERMAG", 3).unwrap_err();
        assert!(matches!(err, CodecError::BadMagic { .. }));

        // wrong version
        let err = Decoder::open_frame(&frame, MAGIC, 4).unwrap_err();
        assert!(matches!(
            err,
            CodecError::UnsupportedVersion {
                supported: 4,
                found: 3
            }
        ));

        // flipped payload byte → checksum mismatch
        let mut corrupt = frame.clone();
        corrupt[8 + 4 + 8] ^= 0x01;
        let err = Decoder::open_frame(&corrupt, MAGIC, 3).unwrap_err();
        assert!(matches!(err, CodecError::ChecksumMismatch { .. }));

        // truncation inside the payload
        let err = Decoder::open_frame(&frame[..frame.len() - 12], MAGIC, 3).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }));
    }

    #[test]
    fn split_frame_walks_frames_and_stops_at_a_torn_tail() {
        let frame_of = |v: u64| {
            let mut e = Encoder::new();
            e.u64(v);
            e.finish_frame(MAGIC, 3)
        };
        let journal = [frame_of(1), frame_of(2)].concat();
        let (mut first, rest) = Decoder::split_frame(&journal, MAGIC, 3).unwrap().unwrap();
        assert_eq!(first.u64().unwrap(), 1);
        let (mut second, rest) = Decoder::split_frame(rest, MAGIC, 3).unwrap().unwrap();
        assert_eq!(second.u64().unwrap(), 2);
        assert!(rest.is_empty());
        // every proper prefix of a frame is a torn tail, the empty one too
        let frame = frame_of(7);
        for cut in 0..frame.len() {
            assert!(matches!(
                Decoder::split_frame(&frame[..cut], MAGIC, 3),
                Ok(None)
            ));
        }
        // so is a length field no buffer can honour: it is compared, never
        // added (u64::MAX and usize::MAX - 27 overflow header + len + trailer)
        for len in [u64::MAX, (usize::MAX - 27) as u64, 9, u64::MAX / 2] {
            let mut torn = frame.clone();
            torn[FRAME_HEADER - 8..FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
            assert!(matches!(Decoder::split_frame(&torn, MAGIC, 3), Ok(None)));
        }
        // and a complete frame that fails its checksum
        let mut flipped = frame.clone();
        flipped[FRAME_HEADER] ^= 1;
        assert!(matches!(Decoder::split_frame(&flipped, MAGIC, 3), Ok(None)));
        // a complete frame of another format is not a tear
        assert!(matches!(
            Decoder::split_frame(&frame, *b"OTHERMAG", 3),
            Err(CodecError::BadMagic { .. })
        ));
        assert!(matches!(
            Decoder::split_frame(&frame, MAGIC, 4),
            Err(CodecError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn seq_guards_absurd_lengths() {
        let mut e = Encoder::new();
        e.u64(u64::MAX); // a "length" no buffer can hold
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.seq(8), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
