//! The bounded little-endian byte codec of persisted state.
//!
//! [`CircuitSat::snapshot`](crate::CircuitSat::snapshot) writes the solver's
//! state with a [`Writer`], and
//! [`CircuitSat::from_snapshot`](crate::CircuitSat::from_snapshot) reads it
//! back with a [`Reader`]; the sweeping engine's checkpoints frame their own
//! fields with the same pair.  Every read is bounds-checked, so truncated or
//! corrupt bytes yield a [`DecodeError`], never a panic, and a corrupt length
//! field cannot trigger an allocation larger than the stream itself.
//!
//! ```
//! use satsolver::codec::{DecodeError, Reader, Writer};
//!
//! let mut w = Writer::default();
//! w.u32(7);
//! w.blob(b"state");
//! let bytes = w.into_bytes();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(r.u32(), Ok(7));
//! assert_eq!(r.blob(), Ok(&b"state"[..]));
//! assert!(r.is_empty());
//! assert_eq!(Reader::new(&bytes[..6]).u64(), Err(DecodeError::Truncated));
//! ```

use std::fmt;
use std::time::Duration;

/// Why a byte stream could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before the value was complete.
    Truncated,
    /// A value is out of range or inconsistent (the message names it).
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "the bytes are truncated"),
            DecodeError::Corrupt(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends little-endian values to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, without a length prefix.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Four bytes.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Eight bytes.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize`, as eight bytes on every platform.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// One byte, `0` or `1`.
    pub fn boolean(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A bit-exact float (restored activities must match exactly: they
    /// steer VSIDS tie-breaking).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A duration in nanoseconds, saturating at `u64::MAX`.
    pub fn duration(&mut self, d: Duration) {
        self.u64(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// A length-prefixed byte string.
    pub fn blob(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.bytes(bytes);
    }

    /// A length-prefixed sequence, each item written by `write`.
    pub fn vec<T>(&mut self, items: &[T], mut write: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            write(self, item);
        }
    }
}

/// Reads little-endian values from a byte slice, checking every bound.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The number of bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// Four bytes.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Eight bytes.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A `usize` written by [`Writer::usize`].
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Corrupt("value out of range"))
    }

    /// A boolean; any byte other than `0` or `1` is corrupt.
    pub fn boolean(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Corrupt("invalid boolean")),
        }
    }

    /// A bit-exact float.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A duration written by [`Writer::duration`].
    pub fn duration(&mut self) -> Result<Duration, DecodeError> {
        Ok(Duration::from_nanos(self.u64()?))
    }

    /// Reads a vector length and bounds it by the bytes actually left in
    /// the stream (`min_elem_bytes` per element), so a corrupt length field
    /// cannot trigger a pathological allocation.
    pub fn vec_len(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let len = self.usize()?;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        Ok(len)
    }

    /// `len` items, each read by `read`.
    pub fn seq<T>(
        &mut self,
        len: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        (0..len).map(|_| read(self)).collect()
    }

    /// A sequence written by [`Writer::vec`], its length bounded as by
    /// [`Reader::vec_len`].
    pub fn vec<T>(
        &mut self,
        min_elem_bytes: usize,
        read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let len = self.vec_len(min_elem_bytes)?;
        self.seq(len, read)
    }

    /// A byte string written by [`Writer::blob`].
    pub fn blob(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.vec_len(1)?;
        self.bytes(len)
    }
}
