//! Length-prefixed little-endian binary encoding, shared by every layer
//! that persists an artifact.
//!
//! The store itself frames entries with this codec (magic, version, kind,
//! key, checksum, payload), and the run memo reuses it for its run
//! summaries. It is
//! deliberately tiny: fixed-width integers, `u64`-length-prefixed byte
//! strings, and nothing self-describing — the entry key already names the
//! payload's type and version, so the bytes can stay minimal.
//!
//! Decoding is total: every read returns `Option`, `None` meaning the
//! input is torn or foreign. Callers treat `None` as a cache miss (and
//! usually quarantine the entry), never as an error.

/// Builds a byte buffer out of fixed-width little-endian fields.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends raw bytes with no length prefix (fixed-width fields like
    /// the entry magic).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64` (portable across
    /// pointer widths).
    pub fn put_usize(&mut self, value: usize) {
        self.put_u64(value as u64);
    }

    /// Appends a bool as one byte (`0` or `1`).
    pub fn put_bool(&mut self, value: bool) {
        self.put_u8(value as u8);
    }

    /// Appends a `u64`-length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, text: &str) {
        self.put_bytes(text.as_bytes());
    }

    /// The finished buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads the fields a [`ByteWriter`] wrote, returning `None` on any
/// truncation or malformed field instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> ByteReader<'a> {
        ByteReader { data, pos: 0 }
    }

    /// The next `n` raw bytes, if that many remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.data.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// The next `u64`, narrowed to `usize` (fails on overflow rather
    /// than truncating).
    pub fn usize(&mut self) -> Option<usize> {
        self.u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The next bool; bytes other than `0`/`1` are malformed.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// The next `u64`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.usize()?;
        self.take(len)
    }

    /// The next `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<&'a str> {
        self.bytes().and_then(|b| std::str::from_utf8(b).ok())
    }

    /// True when every byte has been consumed — decoders check this so
    /// trailing garbage counts as corruption, not as a valid entry.
    pub fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_kind() {
        let mut w = ByteWriter::new();
        w.put_raw(b"HDR!");
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_usize(42);
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(b"payload");
        w.put_str("text");
        let buf = w.finish();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.take(4), Some(&b"HDR!"[..]));
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xdead_beef));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.usize(), Some(42));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.bool(), Some(false));
        assert_eq!(r.bytes(), Some(&b"payload"[..]));
        assert_eq!(r.str(), Some("text"));
        assert!(r.done());
    }

    #[test]
    fn truncation_reads_none_not_panic() {
        let mut w = ByteWriter::new();
        w.put_bytes(b"0123456789");
        let buf = w.finish();
        // Cut inside the byte string: the length prefix promises more
        // bytes than remain.
        let mut r = ByteReader::new(&buf[..buf.len() - 3]);
        assert_eq!(r.bytes(), None);
        // Cut inside the length prefix itself.
        let mut r = ByteReader::new(&buf[..4]);
        assert_eq!(r.bytes(), None);
    }

    #[test]
    fn malformed_bools_and_utf8_are_rejected() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(r.bool(), None);
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xff, 0xfe]);
        let buf = w.finish();
        assert_eq!(ByteReader::new(&buf).str(), None);
    }

    #[test]
    fn done_flags_trailing_garbage() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        let mut buf = w.finish();
        buf.push(9);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8(), Some(1));
        assert!(!r.done(), "a decoder must notice leftover bytes");
    }
}
