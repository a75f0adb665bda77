//! The digest behind model state fingerprints: each LP's observable state
//! is written as little-endian `u64`s ([`put_u64`]) and hashed with
//! [`fnv1a`]; a model's fingerprint sums (`wrapping_add`) the per-LP
//! digests, so it does not depend on the order LPs are visited in.

/// Append a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// FNV-1a over a byte stream. Not cryptographic; a fingerprint only has
/// to tell diverged runs apart.
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

    /// Pinned values: every committed fingerprint depends on this layout.
    #[test]
    fn fnv1a_and_the_byte_layout_are_pinned() {
        // The FNV-1a offset basis for the empty input, and the published
        // test vector for "a".
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        let mut buf = Vec::new();
        put_u64(&mut buf, 0x0102_0304_0506_0708);
        assert_eq!(buf, [8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(fnv1a(&buf), 0x0c6d_4496_e178_59d5);
    }
}
