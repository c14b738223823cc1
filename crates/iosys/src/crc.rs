//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for checkpoint
//! and output-frame integrity, and for the quiescent-buffer checksums in
//! `core::sdc`.
//!
//! [`Crc32::update`] is slicing-by-16: sixteen lookups fold sixteen input
//! bytes per step, and a bytewise loop takes the remainder. The restart
//! path hashes every checkpoint byte once on write and twice on read, so
//! this kernel, not the file system, sets most of the codec's cost.
//! [`Crc32::combine`] joins the CRCs of two adjacent byte ranges without
//! touching the bytes, which lets the writer derive a file CRC from its
//! record CRCs.
//!
//! The `.esmr` v2 format stores one CRC per variable record (over the
//! encoded record bytes) and one trailer CRC per file (over every byte
//! that precedes the trailer), so corruption is localised to a variable
//! when possible and always detected at file granularity.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Lookup table for the reflected IEEE polynomial, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slicing tables: `SLICES[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes, so `SLICES[0] == TABLE`.
const SLICES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    t[0] = TABLE;
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// `X2N[n]` is x^(2^n) modulo the polynomial (reflected), built by
/// repeated squaring; [`Crc32::combine`] shifts a CRC by `8 * len` bits
/// with one multiplication per set bit of `len` (bits 3..67 of `8 * len`).
const X2N: [u32; 67] = {
    let mut t = [0u32; 67];
    let mut p = 1u32 << 30; // x^1
    t[0] = p;
    let mut n = 1;
    while n < 67 {
        p = multmodp(p, p);
        t[n] = p;
        n += 1;
    }
    t
};

/// Product of two polynomials modulo the CRC polynomial, both reflected
/// (bit 31 is x^0). `a` must be nonzero, or the loop does not end; every
/// caller passes a power of x, which never is zero modulo the polynomial.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                break;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    p
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let t = &SLICES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let a = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(a & 0xFF) as usize]
                ^ t[14][((a >> 8) & 0xFF) as usize]
                ^ t[13][((a >> 16) & 0xFF) as usize]
                ^ t[12][(a >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// CRC of `a ‖ b` from `crc_a = crc32(a)`, `crc_b = crc32(b)` and
    /// `len_b = b.len()` (zlib's `crc32_combine`).
    pub fn combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
        // Multiply crc_a by x^(8 * len_b): len_b's bits select x^(2^(n+3)).
        let mut p = crc_a;
        let mut len = len_b;
        let mut n = 3;
        while len != 0 {
            if len & 1 != 0 {
                p = multmodp(X2N[n], p);
            }
            len >>= 1;
            n += 1;
        }
        p ^ crc_b
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32 straight from the polynomial: no tables, so
    /// it checks the slicing tables as well as the loop.
    fn reference(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(n: usize, mut s: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"incremental hashing must match one-shot hashing";
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn sliced_kernel_matches_bitwise_reference_at_every_length() {
        let data = noise(256, 0x9E37_79B9_7F4A_7C15);
        for n in 0..=256 {
            assert_eq!(crc32(&data[..n]), reference(&data[..n]), "length {n}");
        }
    }

    #[test]
    fn every_two_call_split_matches_reference() {
        let data = noise(300, 42);
        let want = reference(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn combine_equals_hash_of_concatenation() {
        let data = noise(5000, 7);
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut splits = vec![0, data.len()];
        for _ in 0..64 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            splits.push((s % (data.len() as u64 + 1)) as usize);
        }
        for split in splits {
            let (a, b) = data.split_at(split);
            assert_eq!(
                Crc32::combine(crc32(a), crc32(b), b.len() as u64),
                crc32(&data),
                "split at {split}"
            );
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0u8; 4096];
        data[17] = 0x5A;
        let base = crc32(&data);
        for bit in [0usize, 100 * 8 + 3, 4095 * 8 + 7] {
            let mut corrupted = data.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&corrupted), base, "bit {bit} undetected");
        }
    }
}
