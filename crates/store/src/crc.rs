//! CRC-32 (IEEE 802.3) over byte slices.
//!
//! The snapshot container checksums every section payload so bit flips
//! are caught at load time instead of surfacing as wrong query answers.
//! The polynomial is the ubiquitous reflected `0xEDB88320`; the tables
//! are built at compile time, so there is no runtime initialisation and
//! no external dependency.
//!
//! The loop is slicing-by-8: eight table lookups fold eight input bytes
//! into the register at once, about four times the speed of the bytewise
//! loop, with identical values.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][i]: the register after byte `i` and then `k` zero bytes.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_loop() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let data: Vec<u8> = (0..4200).map(|_| rng.gen_range(0..=255u8)).collect();
        // Every length up to two chunks and around larger multiples of 8,
        // at every alignment of the start.
        let mut lengths: Vec<usize> = (0..=17).collect();
        for _ in 0..64 {
            let base: usize = 8 * rng.gen_range(2..500usize);
            lengths.push(base - 1 + rng.gen_range(0..3usize));
        }
        lengths.push(4096);
        for offset in 0..8 {
            for &len in &lengths {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"some snapshot payload");
        let mut tampered = b"some snapshot payload".to_vec();
        for byte in 0..tampered.len() {
            for bit in 0..8 {
                tampered[byte] ^= 1 << bit;
                assert_ne!(crc32(&tampered), base, "flip at {byte}.{bit} undetected");
                tampered[byte] ^= 1 << bit;
            }
        }
    }
}
