//! The pinned one-bit-per-call `BitString` implementation.
//!
//! This is the bit-loop encoder/decoder that [`crate::BitString`] replaced
//! with word-batched internals. It is kept verbatim (modulo the struct
//! names and the removal of two decoder bugs noted below) for
//! differential testing: `tests/bitstring_differential.rs` runs random
//! operation sequences through both implementations and asserts equal
//! bits, bytes, and reader output. A behavioural change in the batched
//! code cannot hide: the reference is the executable spec of the stream
//! layout.
//!
//! Two places intentionally *differ* from the batched implementation,
//! both in the fallible decoders' handling of corrupt input (the
//! shift-overflow bugfix sweep): the old `try_read_elias_gamma` wrapped
//! zero runs ≥ 64 into bogus small values via `(v << 1) | bit`, and the
//! old `read_elias_delta` truncated its length field with `as u32`.
//! The differential tests therefore only feed the decoders streams
//! produced by the encoders, where the two implementations agree
//! exactly; the corrupt-input divergence is covered by dedicated unit
//! tests in `crate::bits`.
//!
//! Not deprecated, but not for production paths either — everything
//! outside tests should use [`crate::BitString`].

/// The pre-batching `BitString`: a `Vec<u64>` word buffer written and
/// read one bit per call. Bit `i` of the stream is bit `i % 64` of word
/// `i / 64` — the identical layout the batched implementation serializes,
/// which is why `to_bytes` output must match bit for bit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RefBitString {
    words: Vec<u64>,
    len: usize,
}

impl RefBitString {
    /// An empty bit string.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bits have been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let offset = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << offset;
        }
        self.len += 1;
    }

    /// Reads the bit at `index`.
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index out of range");
        self.words[index / 64] >> (index % 64) & 1 == 1
    }

    /// Appends the lowest `width` bits of `value`, most significant
    /// first, one push per bit.
    pub fn push_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width exceeds 64");
        assert!(
            width == 64 || value < 1u64 << width,
            "value {value} does not fit in {width} bits"
        );
        for i in (0..width).rev() {
            self.push(value >> i & 1 == 1);
        }
    }

    /// Appends the Elias gamma code of `value >= 1`.
    pub fn push_elias_gamma(&mut self, value: u64) {
        assert!(value >= 1, "Elias gamma encodes positive integers");
        let bits = 64 - value.leading_zeros();
        for _ in 0..bits - 1 {
            self.push(false);
        }
        self.push_bits(value, bits);
    }

    /// Appends the Elias delta code of `value >= 1`.
    pub fn push_elias_delta(&mut self, value: u64) {
        assert!(value >= 1, "Elias delta encodes positive integers");
        let bits = 64 - value.leading_zeros();
        self.push_elias_gamma(u64::from(bits));
        if bits > 1 {
            self.push_bits(value & ((1u64 << (bits - 1)) - 1), bits - 1);
        }
    }

    /// Appends all bits of another bit string, one at a time.
    pub fn extend_from(&mut self, other: &RefBitString) {
        for i in 0..other.len() {
            self.push(other.get(i));
        }
    }

    /// A cursor for reading this bit string from the start.
    pub fn reader(&self) -> RefBitReader<'_> {
        RefBitReader { bits: self, pos: 0 }
    }

    /// Packs the bits into bytes, one bit per loop iteration.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len.div_ceil(8)];
        for i in 0..self.len {
            if self.get(i) {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    /// Rebuilds a bit string of exactly `len` bits, bit by bit.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Option<Self> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        let mut out = RefBitString::new();
        for i in 0..len {
            out.push(bytes[i / 8] >> (i % 8) & 1 == 1);
        }
        if !len.is_multiple_of(8) && bytes[len / 8] >> (len % 8) != 0 {
            return None;
        }
        Some(out)
    }
}

/// The pre-batching sequential reader: every accessor loops over
/// [`RefBitString::get`].
#[derive(Debug, Clone)]
pub struct RefBitReader<'a> {
    bits: &'a RefBitString,
    pos: usize,
}

impl RefBitReader<'_> {
    /// Current read position in bits.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> bool {
        let b = self.bits.get(self.pos);
        self.pos += 1;
        b
    }

    /// Reads `width` bits, MSB first, one bit per iteration.
    pub fn read_bits(&mut self, width: u32) -> u64 {
        assert!(width <= 64, "width exceeds 64");
        let mut v = 0u64;
        for _ in 0..width {
            v = (v << 1) | u64::from(self.read_bit());
        }
        v
    }

    /// Reads an Elias gamma code bit by bit.
    pub fn read_elias_gamma(&mut self) -> u64 {
        let mut zeros = 0u32;
        while !self.read_bit() {
            zeros += 1;
        }
        let mut v = 1u64;
        for _ in 0..zeros {
            v = (v << 1) | u64::from(self.read_bit());
        }
        v
    }

    /// Reads one bit, or `None` at end of stream.
    pub fn try_read_bit(&mut self) -> Option<bool> {
        (self.remaining() >= 1).then(|| self.read_bit())
    }

    /// Reads `width` bits MSB first, or `None` if fewer remain.
    pub fn try_read_bits(&mut self, width: u32) -> Option<u64> {
        (self.remaining() >= width as usize).then(|| self.read_bits(width))
    }

    /// Reads an Elias gamma code, or `None` on a truncated stream.
    /// On well-formed encoder output this agrees with the batched
    /// decoder; its zero-run-≥-64 wraparound bug is documented at the
    /// module level and is deliberately *not* replicated by callers.
    pub fn try_read_elias_gamma(&mut self) -> Option<u64> {
        let mut zeros = 0u32;
        while !self.try_read_bit()? {
            zeros += 1;
        }
        let mut v = 1u64;
        for _ in 0..zeros {
            v = (v << 1) | u64::from(self.try_read_bit()?);
        }
        Some(v)
    }

    /// Reads an Elias delta code bit by bit.
    pub fn read_elias_delta(&mut self) -> u64 {
        let bits = self.read_elias_gamma() as u32;
        let mut v = 1u64;
        for _ in 0..bits - 1 {
            v = (v << 1) | u64::from(self.read_bit());
        }
        v
    }
}
