//! FNV-1a-64: the workspace's one content digest (checkpoint integrity
//! sections, kernel and training-run output digests, serving response
//! digests).
//!
//! Two folds share the offset basis and prime. [`Fnv1a::write`] is the
//! standard byte-at-a-time FNV-1a. [`Fnv1a::write_word`] xors a whole
//! `u64` in before a single multiply: the form every committed float
//! digest (`perf_gate` checksums, `mem_sweep`, `serve_drill`) was
//! recorded with, so its definition is frozen.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a-64 state.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Fnv1a {
    /// Fold bytes in, one at a time (standard FNV-1a).
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_word(b as u64);
        }
    }

    /// Fold one whole 64-bit word in with a single xor-multiply step.
    #[inline]
    pub fn write_word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(PRIME);
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Standard FNV-1a-64 of a byte string.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Order-sensitive bitwise digest of a float sequence: each value's bit
/// pattern is folded in as one word.
pub fn hash_f32_bits(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h = Fnv1a::default();
    for v in values {
        h.write_word(v.to_bits() as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_fnv1a_64_vectors() {
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn word_fold_is_pinned() {
        // Each f32 bit pattern is one xor-multiply step, not four.
        assert_eq!(hash_f32_bits([1.0, -2.5, 0.0]), 0x1a5b_33cc_23af_2fb7);
        assert_ne!(hash_f32_bits([1.0, 2.0]), hash_f32_bits([2.0, 1.0]));
    }
}
