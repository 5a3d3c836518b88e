//! CRC-64 checksums for stored blocks (CRC-64/XZ parameters).
//!
//! Every sealed block gets a checksum at write time and is verified on
//! every read, closing the silent-corruption gap: replication protects
//! against *losing* bytes, a checksum protects against *trusting changed*
//! bytes. CRC-64/XZ (reflected ECMA-182 polynomial, `!0` init and final
//! xor) is the variant production storage stacks use for exactly this —
//! strong enough to detect any single bit flip, any burst shorter than
//! 64 bits, and truncation, while staying a table lookup per byte with no
//! external dependencies.

/// Reflected form of the ECMA-182 polynomial `0x42F0E1EBA9EA3693`.
const POLY: u64 = 0xC96C_5795_D787_0F42;

const fn build_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u64; 256] = build_table();

/// CRC-64/XZ checksum of a byte slice.
pub fn crc64(data: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in data {
        crc = TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_value() {
        // The standard CRC-64/XZ check vector.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn detects_single_bit_flips_and_truncation() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let base = crc64(&data);
        for i in [0, 1, 511, 1023] {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[i] ^= 1 << bit;
                assert_ne!(crc64(&bad), base, "flip at byte {i} bit {bit} missed");
            }
        }
        for cut in [0, 1, 512, 1023] {
            assert_ne!(crc64(&data[..cut]), base, "truncation to {cut} missed");
        }
    }
}
