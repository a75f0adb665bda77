//! Byte-level encoding helpers of the TCP transport framing and the model
//! event codecs: little-endian fixed-width integers, a bounds-checked
//! cursor and the digest behind shard fingerprints. Kept deliberately tiny — the framing must be
//! decodable by a different build of the same binary, so nothing here
//! depends on layout, endianness of the host, or the serde shims.

use super::ShardError;

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u32` (little-endian).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte slice (`u32` length).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// A bounds-checked read cursor over a byte slice. Every accessor
/// returns [`ShardError::Format`] instead of panicking on truncated
/// input — network frames are untrusted.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ShardError> {
        if self.buf.len() - self.pos < n {
            return Err(ShardError::Format(format!(
                "truncated input: wanted {n} bytes for {what}, {} left",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, ShardError> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn u32(&mut self) -> Result<u32, ShardError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, ShardError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Read a length-prefixed byte slice written by [`put_bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], ShardError> {
        let n = self.u32()? as usize;
        self.take(n, "length-prefixed bytes")
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// FNV-1a over a byte stream — the per-LP digest that shard fingerprints
/// sum. Not cryptographic; a fingerprint only has to tell diverged runs
/// apart.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_bytes() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_bytes(&mut buf, b"payload");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 100); // length prefix promising 100 bytes
        buf.extend_from_slice(&[1, 2, 3]);
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.bytes(), Err(ShardError::Format(_))));
        let mut r2 = ByteReader::new(&[1, 2]);
        assert!(r2.u64().is_err());
    }

    #[test]
    fn fnv_is_stable() {
        // Reference value for the empty string per FNV-1a spec.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
