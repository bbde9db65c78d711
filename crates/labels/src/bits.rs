//! Bit-exact label serialization.
//!
//! Every labeling scheme in this workspace reports sizes in *bits*, not
//! estimated from struct layouts: labels serialize into [`BitString`]s via
//! self-delimiting codes, and the experiments measure the maximum encoded
//! length — the exact quantity the paper's bounds speak about.
//!
//! The stream layout is fixed and shared by every reader in the
//! workspace: bit `i` of the stream lives in byte `i / 8` at bit
//! position `i % 8` (LSB-first within each byte). [`BitString`] owns
//! such a byte buffer; [`BitSlice`] borrows a window of one — any byte
//! buffer, including a memory-mapped snapshot section — at an arbitrary
//! bit offset, which is what makes zero-copy label serving possible.
//! Both hand out the same [`BitReader`], whose word-batched accessors
//! move whole 64-bit chunks per call instead of one bit per call.
//!
//! The one-bit-per-call implementation this module replaced is pinned in
//! [`crate::reference`] and differential tests assert the two produce
//! identical bits, bytes, and decoded values on random op sequences.

use std::fmt;

/// The largest payload a `u32`-length-prefixed byte frame can carry,
/// as a bit count.
///
/// Every framed byte format in this workspace (the `mstv-net` wire
/// frames, the `mstv-store` query protocol) stores payload lengths in a
/// `u32` field; this constant is the shared guard that keeps an
/// oversized payload a typed error instead of a silently truncated
/// length. `MAX_FRAME_BYTES` is the same bound for byte-counted frames.
pub const MAX_FRAME_BITS: usize = u32::MAX as usize;

/// [`MAX_FRAME_BITS`] for frames whose length field counts whole bytes.
pub const MAX_FRAME_BYTES: usize = MAX_FRAME_BITS / 8;

/// Reorders the low `width` bits of `value` into stream order: stream
/// bit `j` (written first) is `value`'s bit `width - 1 - j`, so a
/// MSB-first push lands MSB at the lowest in-buffer bit position.
/// Involutive within a width, so the same permutation decodes.
#[inline]
fn stream_chunk(value: u64, width: u32) -> u64 {
    if width == 0 {
        0
    } else {
        value.reverse_bits() >> (64 - width)
    }
}

/// Loads up to 64 stream-order bits starting at absolute bit `pos` of
/// `bytes`. Bits past the end of `bytes` read as zero; callers bound
/// `width` by the stream length themselves.
///
/// One unaligned little-endian load (≤ 9 bytes into a `u128`), one
/// shift, one mask — the batched core every reader shares.
#[inline]
fn load_chunk(bytes: &[u8], pos: usize, width: u32) -> u64 {
    debug_assert!(width <= 64);
    if width == 0 {
        return 0;
    }
    let base = pos / 8;
    let off = pos % 8;
    // Fast path: the whole window fits in one unaligned 8-byte load
    // (fixed-size copy, compiled to a single load — no memcpy call).
    // Covers every width ≤ 56 and aligned wider reads; label fields are
    // far below that.
    if off + width as usize <= 64 {
        if let Some(window) = bytes.get(base..base + 8) {
            let chunk = u64::from_le_bytes(window.try_into().expect("8-byte window")) >> off;
            return if width == 64 {
                chunk
            } else {
                chunk & ((1u64 << width) - 1)
            };
        }
    }
    let span = (off + width as usize).div_ceil(8);
    let mut buf = [0u8; 16];
    let end = (base + span).min(bytes.len());
    if base < end {
        buf[..end - base].copy_from_slice(&bytes[base..end]);
    }
    let chunk = (u128::from_le_bytes(buf) >> off) as u64;
    if width == 64 {
        chunk
    } else {
        chunk & ((1u64 << width) - 1)
    }
}

/// A growable bit string (MSB-first within the logical stream).
/// # Example
///
/// ```
/// use mstv_labels::BitString;
///
/// let mut bits = BitString::new();
/// bits.push_bits(0b101, 3);
/// bits.push_elias_gamma(9);
/// let mut r = bits.reader();
/// assert_eq!(r.read_bits(3), 0b101);
/// assert_eq!(r.read_elias_gamma(), 9);
/// ```
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct BitString {
    /// Invariant: `bytes.len() == len.div_ceil(8)` and every bit at
    /// position `>= len` in the final byte is zero, so the derived
    /// `Eq`/`Hash` see canonical buffers and `to_bytes` is a plain copy.
    bytes: Vec<u8>,
    len: usize,
}

impl Clone for BitString {
    fn clone(&self) -> Self {
        BitString {
            bytes: self.bytes.clone(),
            len: self.len,
        }
    }

    /// Copies `source` into `self`'s buffer, which allocates only when
    /// that buffer is too small.
    fn clone_from(&mut self, source: &Self) {
        self.bytes.clone_from(&source.bytes);
        self.len = source.len;
    }
}

impl BitString {
    /// An empty bit string.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty bit string with room for `bits` bits before reallocating.
    pub fn with_capacity(bits: usize) -> Self {
        BitString {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            len: 0,
        }
    }

    /// Empties the string, keeping its allocation — the scratch-buffer
    /// reset for encode-into loops that re-encode many labels through
    /// one buffer.
    #[inline]
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.len = 0;
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bits have been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[self.len / 8] |= 1 << (self.len % 8);
        }
        self.len += 1;
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index out of range");
        self.bytes[index / 8] >> (index % 8) & 1 == 1
    }

    /// Appends `width` bits already in stream order (bit `j` of `chunk`
    /// is written `j`-th): one buffer extension and at most nine byte
    /// ORs, the batched primitive behind every multi-bit push.
    #[inline]
    fn push_chunk(&mut self, chunk: u64, width: u32) {
        debug_assert!(width <= 64);
        debug_assert!(width == 64 || chunk & !((1u64 << width) - 1) == 0);
        if width == 0 {
            return;
        }
        let off = self.len % 8;
        let base = self.len / 8;
        self.bytes
            .resize((self.len + width as usize).div_ceil(8), 0);
        let spread = (u128::from(chunk) << off).to_le_bytes();
        let span = (off + width as usize).div_ceil(8);
        for (dst, src) in self.bytes[base..base + span].iter_mut().zip(spread) {
            *dst |= src;
        }
        self.len += width as usize;
    }

    /// Appends the lowest `width` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn push_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width exceeds 64");
        assert!(
            width == 64 || value < 1u64 << width,
            "value {value} does not fit in {width} bits"
        );
        self.push_chunk(stream_chunk(value, width), width);
    }

    /// Appends every value at `width` bits, exactly as one
    /// [`BitString::push_bits`] per value would, with as many values per
    /// 64-bit chunk as fit.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or a value does not fit in `width` bits.
    pub fn push_fields(&mut self, values: impl IntoIterator<Item = u64>, width: u32) {
        assert!(width <= 64, "width exceeds 64");
        let (mut chunk, mut filled) = (0u64, 0u32);
        for value in values {
            assert!(
                width == 64 || value < 1u64 << width,
                "value {value} does not fit in {width} bits"
            );
            if filled + width > 64 {
                self.push_chunk(chunk, filled);
                (chunk, filled) = (0, 0);
            }
            // `filled + width <= 64` here, so a nonzero width keeps the
            // shift below 64 (and a zero-width value adds nothing).
            chunk |= stream_chunk(value, width).checked_shl(filled).unwrap_or(0);
            filled += width;
        }
        self.push_chunk(chunk, filled);
    }

    /// Appends the Elias gamma code of `value` (requires `value >= 1`):
    /// `⌊log₂ v⌋` zeros, then the binary expansion of `v`. Costs
    /// `2⌊log₂ v⌋ + 1` bits.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0`.
    pub fn push_elias_gamma(&mut self, value: u64) {
        assert!(value >= 1, "Elias gamma encodes positive integers");
        let bits = 64 - value.leading_zeros();
        if bits <= 32 {
            // Zeros and value in one chunk: the zeros are its low bits.
            self.push_chunk(stream_chunk(value, bits) << (bits - 1), 2 * bits - 1);
        } else {
            self.push_chunk(0, bits - 1);
            self.push_bits(value, bits);
        }
    }

    /// Appends the Elias delta code of `value >= 1`: the gamma code of the
    /// bit length, then the value without its leading 1. Costs
    /// `⌊log₂ v⌋ + 2⌊log₂(⌊log₂ v⌋ + 1)⌋ + 1` bits.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0`.
    pub fn push_elias_delta(&mut self, value: u64) {
        assert!(value >= 1, "Elias delta encodes positive integers");
        let bits = 64 - value.leading_zeros();
        self.push_elias_gamma(u64::from(bits));
        if bits > 1 {
            self.push_bits(value & ((1u64 << (bits - 1)) - 1), bits - 1);
        }
    }

    /// Appends all bits of another bit string.
    pub fn extend_from(&mut self, other: &BitString) {
        self.extend_from_bits(other.as_slice());
    }

    /// Appends all bits of a borrowed slice, 64 at a time.
    pub fn extend_from_bits(&mut self, other: BitSlice<'_>) {
        let mut pos = 0;
        while pos < other.len {
            let width = (other.len - pos).min(64) as u32;
            let chunk = load_chunk(other.bytes, other.start + pos, width);
            self.push_chunk(chunk, width);
            pos += width as usize;
        }
    }

    /// A borrowed view of the whole bit string.
    pub fn as_slice(&self) -> BitSlice<'_> {
        BitSlice {
            bytes: &self.bytes,
            start: 0,
            len: self.len,
        }
    }

    /// A cursor for reading this bit string from the start.
    pub fn reader(&self) -> BitReader<'_> {
        self.as_slice().reader()
    }

    /// Packs the bits into bytes (LSB-first within each byte; the last
    /// byte is zero-padded). Pair with [`BitString::len`] and
    /// [`BitString::from_bytes`] to ship labels over a byte-oriented
    /// wire without losing the exact bit count.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// The packed byte buffer backing this bit string — the same bytes
    /// [`BitString::to_bytes`] copies out, without the copy. The final
    /// byte's padding bits (positions `len()..`) are always zero.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rebuilds a bit string of exactly `len` bits from
    /// [`BitString::to_bytes`] output. Returns `None` if `bytes` is too
    /// short for `len` bits or padding bits are non-zero (a framing
    /// error on the wire).
    ///
    /// The padding check covers *every* bit of the final byte at
    /// position `len` or beyond — a frame whose tail smuggles set bits
    /// past the declared length is rejected, not silently truncated.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Option<Self> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        if !len.is_multiple_of(8) && bytes[len / 8] >> (len % 8) != 0 {
            return None;
        }
        Some(BitString {
            bytes: bytes.to_vec(),
            len,
        })
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.as_slice(), f)
    }
}

/// A borrowed window of a packed bit stream: `len` bits starting at bit
/// offset `start` of a byte buffer — a label inside a columnar snapshot
/// section, a field inside a wire frame, or a whole [`BitString`].
///
/// The buffer needs no alignment (reads are byte-assembled), so a slice
/// can point straight into a memory-mapped file. A `BitSlice` is `Copy`;
/// it borrows, never owns — the zero-copy half of the label hot path.
#[derive(Debug, Clone, Copy)]
pub struct BitSlice<'a> {
    bytes: &'a [u8],
    start: usize,
    len: usize,
}

impl<'a> BitSlice<'a> {
    /// `len` bits starting at bit `start` of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the window runs past the end of `bytes`.
    pub fn new(bytes: &'a [u8], start: usize, len: usize) -> Self {
        assert!(
            start
                .checked_add(len)
                .is_some_and(|end| end <= bytes.len() * 8),
            "bit window {start}+{len} exceeds {} bits",
            bytes.len() * 8
        );
        BitSlice { bytes, start, len }
    }

    /// Number of bits in the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at `index` (relative to the window).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index out of range");
        let i = self.start + index;
        self.bytes[i / 8] >> (i % 8) & 1 == 1
    }

    /// A cursor for reading this window from its start.
    pub fn reader(&self) -> BitReader<'a> {
        BitReader {
            bytes: self.bytes,
            start: self.start,
            len: self.len,
            pos: 0,
        }
    }

    /// Copies the window into an owned [`BitString`].
    pub fn to_bitstring(&self) -> BitString {
        let mut out = BitString::with_capacity(self.len);
        out.extend_from_bits(*self);
        out
    }
}

impl PartialEq for BitSlice<'_> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let mut pos = 0;
        while pos < self.len {
            let width = (self.len - pos).min(64) as u32;
            if load_chunk(self.bytes, self.start + pos, width)
                != load_chunk(other.bytes, other.start + pos, width)
            {
                return false;
            }
            pos += width as usize;
        }
        true
    }
}

impl Eq for BitSlice<'_> {}

impl fmt::Display for BitSlice<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len == 0 {
            write!(f, "ε")?;
        }
        Ok(())
    }
}

/// A sequential reader over a packed bit stream — the decode side of
/// [`BitString`] and [`BitSlice`]. All multi-bit accessors are
/// word-batched: `read_bits` is one unaligned load, and the Elias
/// decoders scan zeros with `trailing_zeros` on 64-bit windows instead
/// of a bit-at-a-time loop.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    start: usize,
    len: usize,
    pos: usize,
}

impl BitReader<'_> {
    /// Current read position in bits (relative to the stream start).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics at end of stream.
    #[inline]
    pub fn read_bit(&mut self) -> bool {
        assert!(self.pos < self.len, "bit index out of range");
        let i = self.start + self.pos;
        self.pos += 1;
        self.bytes[i / 8] >> (i % 8) & 1 == 1
    }

    /// Reads `width` bits, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `width` bits remain or `width > 64`.
    #[inline]
    pub fn read_bits(&mut self, width: u32) -> u64 {
        assert!(width <= 64, "width exceeds 64");
        assert!(self.remaining() >= width as usize, "bit index out of range");
        let chunk = load_chunk(self.bytes, self.start + self.pos, width);
        self.pos += width as usize;
        stream_chunk(chunk, width)
    }

    /// The number of zero bits at the cursor before the next one bit, or
    /// `None` if the rest of the stream is all zeros (for `try_` callers;
    /// panicking callers turn that into an end-of-stream panic). Scans 64
    /// bits per step via `trailing_zeros`. Does not advance the cursor.
    #[inline]
    fn peek_zero_run(&self) -> Option<usize> {
        let mut scanned = 0;
        while scanned < self.remaining() {
            let width = (self.remaining() - scanned).min(64) as u32;
            let mut chunk = load_chunk(self.bytes, self.start + self.pos + scanned, width);
            if width < 64 {
                // Pad past-the-end bits with ones so trailing_zeros
                // cannot run beyond the stream.
                chunk |= !0u64 << width;
            }
            let tz = chunk.trailing_zeros() as usize;
            if tz < width as usize {
                return Some(scanned + tz);
            }
            scanned += width as usize;
        }
        None
    }

    /// Reads an Elias gamma code.
    ///
    /// # Panics
    ///
    /// Panics on a truncated stream, or on a malformed code whose zero
    /// run claims a value wider than 64 bits (which no
    /// [`BitString::push_elias_gamma`] output contains).
    pub fn read_elias_gamma(&mut self) -> u64 {
        let zeros = self
            .peek_zero_run()
            .unwrap_or_else(|| panic!("bit index out of range"));
        assert!(
            zeros < 64,
            "Elias gamma zero run of {zeros} exceeds a u64 value"
        );
        self.pos += zeros;
        self.read_bits(zeros as u32 + 1)
    }

    /// Advances the cursor `bits` bits without decoding them, or `None`
    /// (cursor unmoved) if fewer remain. Fixed-width fields make whole
    /// blocks skippable in O(1) — how the pairwise decoders jump
    /// straight to the one value field an answer needs.
    pub fn try_skip_bits(&mut self, bits: usize) -> Option<()> {
        if self.remaining() < bits {
            return None;
        }
        self.pos += bits;
        Some(())
    }

    /// Reads one bit, or `None` at end of stream.
    pub fn try_read_bit(&mut self) -> Option<bool> {
        (self.remaining() >= 1).then(|| self.read_bit())
    }

    /// Reads `width` bits MSB first, or `None` if fewer remain.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn try_read_bits(&mut self, width: u32) -> Option<u64> {
        assert!(width <= 64, "width exceeds 64");
        (self.remaining() >= width as usize).then(|| self.read_bits(width))
    }

    /// Reads an Elias gamma codeword as an opaque *token* instead of a
    /// value: gamma is prefix-free, so two tokens are equal exactly
    /// when the encoded values are. Comparing tokens skips the bit
    /// reversal a numeric decode pays — the equality-only fast path of
    /// the pairwise label decoders, which compare separator fields but
    /// never use their values.
    ///
    /// The token is `(tag, bits)`: for codewords up to 63 bits the raw
    /// stream-order bits under their length, for wider (rarer) ones a
    /// disjoint tag derived from the zero run plus the decoded value.
    /// Which form a value takes depends only on the value itself, so
    /// the two forms never collide. Rejects the same malformed streams
    /// as [`BitReader::try_read_elias_gamma`].
    #[inline]
    pub fn try_read_elias_gamma_token(&mut self) -> Option<(u32, u64)> {
        let rem = self.remaining();
        if rem > 0 {
            let width = rem.min(64) as u32;
            let mut chunk = load_chunk(self.bytes, self.start + self.pos, width);
            if width < 64 {
                chunk |= !0u64 << width;
            }
            let tz = chunk.trailing_zeros();
            let len = 2 * tz + 1;
            if tz < width && len <= width {
                self.pos += len as usize;
                return Some((len, chunk & (!0u64 >> (64 - len))));
            }
        }
        // A codeword wider than 64 bits (zero run of 32..64): decode
        // numerically. Tag 128 + zero-run cannot equal any raw-form
        // length (those are at most 63), and the zero run is a
        // function of the value, so equal values still tokenize
        // equally through either arm.
        let v = self.try_read_elias_gamma()?;
        Some((128 + (64 - v.leading_zeros()), v))
    }

    /// Reads an Elias gamma code, or `None` on a truncated stream or a
    /// malformed code.
    ///
    /// A zero run of 64 or more is rejected: it claims a value wider
    /// than 64 bits, and the old bit-loop decoder's `(v << 1) | bit`
    /// accumulation would silently wrap such a code into a bogus small
    /// value — exactly the kind of crafted frame a wire-facing decoder
    /// must refuse, not misread.
    #[inline]
    pub fn try_read_elias_gamma(&mut self) -> Option<u64> {
        // Fast path: one window load covers the whole codeword — zero
        // run and value bits together. Label fields are tiny (the
        // size-ordered ranks of `γ_small` mostly fit a handful of
        // bits), so this is the overwhelmingly common case; anything
        // wider falls through to the general scan below.
        let rem = self.remaining();
        if rem > 0 {
            let width = rem.min(64) as u32;
            let mut chunk = load_chunk(self.bytes, self.start + self.pos, width);
            if width < 64 {
                // Pad past-the-end bits with ones so trailing_zeros
                // cannot run beyond the stream.
                chunk |= !0u64 << width;
            }
            let tz = chunk.trailing_zeros() as usize;
            if tz < width as usize && 2 * tz < width as usize {
                self.pos += 2 * tz + 1;
                return Some(stream_chunk(chunk >> tz, tz as u32 + 1));
            }
        }
        let zeros = self.peek_zero_run()?;
        if zeros >= 64 || self.remaining() - zeros < zeros + 1 {
            return None;
        }
        self.pos += zeros;
        Some(self.read_bits(zeros as u32 + 1))
    }

    /// Reads an Elias delta code.
    ///
    /// # Panics
    ///
    /// Panics on a truncated stream, or on a malformed code claiming a
    /// value wider than 64 bits (the old decoder silently wrapped the
    /// mantissa instead).
    pub fn read_elias_delta(&mut self) -> u64 {
        let bits = self.read_elias_gamma();
        assert!(
            (1..=64).contains(&bits),
            "Elias delta length {bits} exceeds a u64 value"
        );
        let bits = bits as u32;
        if bits == 1 {
            1
        } else {
            (1u64 << (bits - 1)) | self.read_bits(bits - 1)
        }
    }

    /// Reads an Elias delta code, or `None` on a truncated stream or a
    /// malformed code (length field outside `1..=64`).
    pub fn try_read_elias_delta(&mut self) -> Option<u64> {
        let bits = self.try_read_elias_gamma()?;
        if !(1..=64).contains(&bits) {
            return None;
        }
        let bits = bits as u32;
        if bits == 1 {
            Some(1)
        } else {
            Some((1u64 << (bits - 1)) | self.try_read_bits(bits - 1)?)
        }
    }
}

/// Length in bits of the Elias gamma code of `value >= 1`.
pub fn elias_gamma_len(value: u64) -> usize {
    debug_assert!(value >= 1);
    let bits = (64 - value.leading_zeros()) as usize;
    2 * bits - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut b = BitString::new();
        b.push(true);
        b.push(false);
        b.push(true);
        assert_eq!(b.len(), 3);
        assert!(b.get(0));
        assert!(!b.get(1));
        assert!(b.get(2));
        assert_eq!(b.to_string(), "101");
        assert_eq!(BitString::new().to_string(), "ε");
    }

    #[test]
    fn fixed_width_roundtrip() {
        let mut b = BitString::new();
        b.push_bits(0b1011, 4);
        b.push_bits(7, 10);
        b.push_bits(u64::MAX, 64);
        let mut r = b.reader();
        assert_eq!(r.read_bits(4), 0b1011);
        assert_eq!(r.read_bits(10), 7);
        assert_eq!(r.read_bits(64), u64::MAX);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn boundary_widths_roundtrip_at_every_offset() {
        // The shift-overflow sweep: widths 0, 1, 63, and 64 with extreme
        // values, written at every bit offset a preceding prefix can
        // produce, read back through both the panicking and the
        // fallible reader. `1u64 << 64` and `c >> 64` are the classic
        // wrap/panic sites; none of these may panic or misread.
        for prefix in 0..65usize {
            for &(value, width) in &[
                (0u64, 0u32),
                (0, 1),
                (1, 1),
                (0, 63),
                (u64::MAX >> 1, 63),
                (0, 64),
                (1, 64),
                (u64::MAX, 64),
                (u64::MAX - 1, 64),
                (1u64 << 62, 63),
                (1u64 << 63, 64),
            ] {
                let mut b = BitString::new();
                for i in 0..prefix {
                    b.push(i % 3 == 0);
                }
                b.push_bits(value, width);
                assert_eq!(b.len(), prefix + width as usize);
                let mut r = b.reader();
                for i in 0..prefix {
                    assert_eq!(r.read_bit(), i % 3 == 0);
                }
                assert_eq!(r.read_bits(width), value, "prefix={prefix} width={width}");
                assert_eq!(r.remaining(), 0);
                let mut r = b.reader();
                for _ in 0..prefix {
                    r.try_read_bit().unwrap();
                }
                assert_eq!(r.try_read_bits(width), Some(value));
                assert_eq!(r.try_read_bits(1), None);
            }
        }
    }

    #[test]
    fn width_zero_reads_nothing_and_returns_zero() {
        let mut b = BitString::new();
        b.push_bits(0, 0);
        assert!(b.is_empty());
        let mut r = b.reader();
        assert_eq!(r.read_bits(0), 0);
        assert_eq!(r.try_read_bits(0), Some(0));
        assert_eq!(r.position(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_rejected() {
        let mut b = BitString::new();
        b.push_bits(16, 4);
    }

    #[test]
    #[should_panic(expected = "width exceeds 64")]
    fn width_over_64_rejected_on_write() {
        let mut b = BitString::new();
        b.push_bits(0, 65);
    }

    #[test]
    #[should_panic(expected = "width exceeds 64")]
    fn width_over_64_rejected_on_read() {
        let mut b = BitString::new();
        b.push_bits(0, 64);
        b.push_bits(0, 64);
        let _ = b.reader().read_bits(65);
    }

    #[test]
    fn elias_gamma_roundtrip() {
        let mut b = BitString::new();
        let values = [1u64, 2, 3, 4, 5, 17, 100, 1_000_000, u64::MAX];
        for &v in &values {
            b.push_elias_gamma(v);
        }
        let mut r = b.reader();
        for &v in &values {
            assert_eq!(r.read_elias_gamma(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn elias_extremes_roundtrip() {
        // u64::MAX exercises the 63-zero gamma prefix and the 64-bit
        // delta mantissa; 1 << 63 exercises the exact power-of-two
        // boundary. Both codecs, both reader flavors.
        for &v in &[1u64, (1 << 63) - 1, 1 << 63, u64::MAX] {
            let mut g = BitString::new();
            g.push_elias_gamma(v);
            assert_eq!(g.reader().read_elias_gamma(), v);
            assert_eq!(g.reader().try_read_elias_gamma(), Some(v));
            let mut d = BitString::new();
            d.push_elias_delta(v);
            assert_eq!(d.reader().read_elias_delta(), v);
            assert_eq!(d.reader().try_read_elias_delta(), Some(v));
        }
    }

    #[test]
    fn try_gamma_rejects_overlong_zero_runs_instead_of_wrapping() {
        // 64 zeros then a one: claims a 65-bit value. The old bit-loop
        // decoder wrapped this into a small bogus value; the fallible
        // reader must refuse it, and the panicking reader must panic
        // rather than misread.
        let mut b = BitString::new();
        b.push_bits(0, 64);
        b.push(true);
        b.push_bits(u64::MAX, 64);
        assert_eq!(b.reader().try_read_elias_gamma(), None);
        let panicked = std::panic::catch_unwind(|| b.reader().read_elias_gamma());
        assert!(panicked.is_err(), "overlong gamma must not decode");
    }

    #[test]
    fn try_delta_rejects_length_over_64() {
        // Gamma header decodes to 65: a 65-bit mantissa cannot be a u64.
        let mut b = BitString::new();
        b.push_elias_gamma(65);
        b.push_bits(u64::MAX, 64);
        assert_eq!(b.reader().try_read_elias_delta(), None);
        let panicked = std::panic::catch_unwind(|| b.reader().read_elias_delta());
        assert!(panicked.is_err(), "overlong delta must not decode");
    }

    #[test]
    fn truncated_streams_are_none_never_garbage() {
        let mut b = BitString::new();
        b.push_bits(0, 5); // five zeros: a gamma prefix with no terminator
        assert_eq!(b.reader().try_read_elias_gamma(), None);
        let mut b = BitString::new();
        b.push_bits(0b001, 3); // two zeros, a one, then a truncated mantissa
        assert_eq!(b.reader().try_read_elias_gamma(), None);
        assert_eq!(BitString::new().reader().try_read_elias_delta(), None);
        let empty = BitString::new();
        let mut r = empty.reader();
        assert_eq!(r.try_read_bits(1), None);
        assert_eq!(r.try_read_bit(), None);
    }

    #[test]
    fn elias_gamma_known_codes() {
        let mut b = BitString::new();
        b.push_elias_gamma(1);
        assert_eq!(b.to_string(), "1");
        let mut b = BitString::new();
        b.push_elias_gamma(5);
        assert_eq!(b.to_string(), "00101");
        assert_eq!(elias_gamma_len(1), 1);
        assert_eq!(elias_gamma_len(5), 5);
        assert_eq!(elias_gamma_len(8), 7);
    }

    #[test]
    fn elias_delta_roundtrip() {
        let mut b = BitString::new();
        let values = [1u64, 2, 3, 10, 31, 32, 12345, u64::MAX];
        for &v in &values {
            b.push_elias_delta(v);
        }
        let mut r = b.reader();
        for &v in &values {
            assert_eq!(r.read_elias_delta(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn delta_shorter_than_gamma_for_large_values() {
        let mut g = BitString::new();
        g.push_elias_gamma(1_000_000);
        let mut d = BitString::new();
        d.push_elias_delta(1_000_000);
        assert!(d.len() < g.len());
    }

    #[test]
    fn extend_and_cross_word_boundaries() {
        let mut a = BitString::new();
        for i in 0..130 {
            a.push(i % 3 == 0);
        }
        let mut b = BitString::new();
        b.push(true);
        b.extend_from(&a);
        assert_eq!(b.len(), 131);
        assert!(b.get(0));
        for i in 0..130 {
            assert_eq!(b.get(i + 1), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range() {
        let b = BitString::new();
        let _ = b.get(0);
    }

    #[test]
    fn byte_roundtrip() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
            let mut a = BitString::new();
            for i in 0..len {
                a.push(i % 3 == 0 || i % 7 == 2);
            }
            let bytes = a.to_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8));
            assert_eq!(bytes, a.as_bytes());
            let back = BitString::from_bytes(&bytes, len).expect("roundtrip");
            assert_eq!(back, a, "len={len}");
        }
    }

    #[test]
    fn from_bytes_rejects_framing_errors() {
        let mut a = BitString::new();
        a.push_bits(0b1011, 4);
        let bytes = a.to_bytes();
        // Wrong byte count for the claimed bit length.
        assert!(BitString::from_bytes(&bytes, 20).is_none());
        // Dirty padding bits beyond the bit length.
        assert!(BitString::from_bytes(&[0xF0], 4).is_none());
    }

    #[test]
    fn from_bytes_rejects_every_dirty_padding_position() {
        // For every non-byte-aligned length, each individual padding bit
        // of the final byte must cause rejection — the documented
        // contract, now verified bit by bit.
        for len in [1usize, 3, 4, 7, 9, 12, 15, 17] {
            let mut a = BitString::new();
            for i in 0..len {
                a.push(i % 2 == 0);
            }
            let clean = a.to_bytes();
            assert!(BitString::from_bytes(&clean, len).is_some());
            for pad_bit in (len % 8)..8 {
                if len % 8 == 0 {
                    continue;
                }
                let mut dirty = clean.clone();
                *dirty.last_mut().unwrap() |= 1 << pad_bit;
                assert!(
                    BitString::from_bytes(&dirty, len).is_none(),
                    "len={len}: set padding bit {pad_bit} must be rejected"
                );
            }
        }
        // Byte-aligned lengths have no padding to dirty; the exact
        // buffer must still round-trip.
        let mut a = BitString::new();
        a.push_bits(0xAB, 8);
        assert!(BitString::from_bytes(&a.to_bytes(), 8).is_some());
    }

    #[test]
    fn slices_window_into_arbitrary_offsets() {
        let mut a = BitString::new();
        for i in 0..200 {
            a.push(i % 5 < 2);
        }
        let bytes = a.to_bytes();
        for start in [0usize, 1, 7, 8, 63, 64, 65, 100] {
            for len in [0usize, 1, 13, 64, 99] {
                if start + len > 200 {
                    continue;
                }
                let s = BitSlice::new(&bytes, start, len);
                assert_eq!(s.len(), len);
                for i in 0..len {
                    assert_eq!(s.get(i), a.get(start + i), "start={start} i={i}");
                }
                let owned = s.to_bitstring();
                assert_eq!(owned.len(), len);
                assert_eq!(owned.as_slice(), s);
            }
        }
    }

    #[test]
    fn slice_reader_equals_bitstring_reader() {
        let mut a = BitString::new();
        a.push_bits(0b110, 3);
        a.push_elias_gamma(1_000_000);
        a.push_elias_delta(u64::MAX);
        a.push_bits(u64::MAX, 64);
        // Re-window the same stream at a nonzero offset inside a larger
        // buffer and read the identical values back.
        let mut host = BitString::new();
        host.push_bits(0b10101, 5);
        host.extend_from(&a);
        let bytes = host.to_bytes();
        let s = BitSlice::new(&bytes, 5, a.len());
        let mut r = s.reader();
        assert_eq!(r.read_bits(3), 0b110);
        assert_eq!(r.read_elias_gamma(), 1_000_000);
        assert_eq!(r.read_elias_delta(), u64::MAX);
        assert_eq!(r.read_bits(64), u64::MAX);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn slice_window_out_of_range_panics() {
        let bytes = [0u8; 2];
        let _ = BitSlice::new(&bytes, 10, 7);
    }
}
