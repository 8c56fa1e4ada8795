//! Frame seal for container chunks: a 32-bit digest built on the xxHash64
//! mixing schedule, computable at memory bandwidth in safe Rust.
//!
//! A table-driven CRC32 tops out at the load-port bound of its lookups
//! (~1.2 bytes/cycle on the slicing path), slower than the column kernels
//! decode payload bytes. The seal instead uses four independent
//! multiply-rotate lanes over 32-byte blocks (xxHash64's round function
//! and avalanche, truncated to 32 bits by folding the halves), which
//! verifies several times faster with the same practical corruption
//! detection: any single flipped bit avalanches through an odd-constant
//! multiply, and the failure-injection suite exercises flips in every
//! frame region.
//!
//! The digest is *not* cryptographic and has no burst-error guarantees —
//! it guards against storage corruption, not adversaries.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// Incremental xxHash64 (seed 0): feed a chunk payload in pieces of any
/// size with [`Sealer::update`], then read its seal with
/// [`Sealer::seal32`]. The pieces' boundaries do not matter, so a loader
/// can seal a payload as it streams through a fixed window; [`seal32`] is
/// one `update` over the whole slice.
#[derive(Clone, Debug)]
pub struct Sealer {
    acc: [u64; 4],
    /// Bytes of a 32-byte block not complete yet, in `pending[..held]`.
    pending: [u8; 32],
    held: usize,
    /// Bytes fed so far.
    total: u64,
}

impl Default for Sealer {
    fn default() -> Self {
        Self::new()
    }
}

impl Sealer {
    /// A sealer that has seen no bytes.
    pub fn new() -> Self {
        Self {
            acc: [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)],
            pending: [0; 32],
            held: 0,
            total: 0,
        }
    }

    /// Feed the next bytes of the input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.held > 0 {
            let take = bytes.len().min(32 - self.held);
            let (head, rest) = bytes.split_at_checked(take).unwrap_or((bytes, &[]));
            if let Some(slot) = self.pending.get_mut(self.held..self.held + take) {
                slot.copy_from_slice(head);
            }
            self.held += take;
            bytes = rest;
            if self.held < 32 {
                return;
            }
            let block = self.pending;
            self.rounds(&[block]);
            self.held = 0;
        }
        let (blocks, tail) = bytes.as_chunks::<32>();
        self.rounds(blocks);
        if let Some(slot) = self.pending.get_mut(..tail.len()) {
            slot.copy_from_slice(tail);
        }
        self.held = tail.len();
    }

    /// Run the four lanes over whole 32-byte blocks.
    #[inline]
    fn rounds(&mut self, blocks: &[[u8; 32]]) {
        let [mut acc1, mut acc2, mut acc3, mut acc4] = self.acc;
        for b in blocks {
            // A 32-byte block is exactly four 8-byte words, so the slice
            // pattern always matches; `else` keeps the binding panic-free.
            let (words, _) = b.as_chunks::<8>();
            let [w1, w2, w3, w4] = words else { continue };
            acc1 = round(acc1, u64::from_le_bytes(*w1));
            acc2 = round(acc2, u64::from_le_bytes(*w2));
            acc3 = round(acc3, u64::from_le_bytes(*w3));
            acc4 = round(acc4, u64::from_le_bytes(*w4));
        }
        self.acc = [acc1, acc2, acc3, acc4];
    }

    /// The xxHash64 of every byte fed so far.
    fn hash64(&self) -> u64 {
        let mut h = if self.total < 32 {
            P5
        } else {
            let [acc1, acc2, acc3, acc4] = self.acc;
            let mut h = acc1
                .rotate_left(1)
                .wrapping_add(acc2.rotate_left(7))
                .wrapping_add(acc3.rotate_left(12))
                .wrapping_add(acc4.rotate_left(18));
            h = merge_round(h, acc1);
            h = merge_round(h, acc2);
            h = merge_round(h, acc3);
            merge_round(h, acc4)
        };
        h = h.wrapping_add(self.total);
        let tail = self.pending.get(..self.held).unwrap_or_default();
        let (words, rest) = tail.as_chunks::<8>();
        for w in words {
            h = (h ^ round(0, u64::from_le_bytes(*w)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
        }
        let (half, rest) = rest.as_chunks::<4>();
        for w in half {
            h = (h ^ u64::from(u32::from_le_bytes(*w)).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
        }
        for &b in rest {
            h = (h ^ u64::from(b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    /// The 32-bit frame seal of every byte fed so far.
    pub fn seal32(&self) -> u32 {
        let h = self.hash64();
        (h ^ (h >> 32)) as u32
    }
}

/// The 32-bit frame seal of a chunk payload: xxHash64 folded to the
/// width of the frame's checksum field.
pub fn seal32(bytes: &[u8]) -> u32 {
    let mut sealer = Sealer::new();
    sealer.update(bytes);
    sealer.seal32()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xxHash64 (seed 0) of `bytes`, through one `update`.
    fn hash64(bytes: &[u8]) -> u64 {
        let mut sealer = Sealer::new();
        sealer.update(bytes);
        sealer.hash64()
    }

    #[test]
    fn known_xxh64_vectors() {
        // Published xxHash64 seed-0 test vectors; pins the mixing schedule
        // to the reference implementation, not just to itself.
        assert_eq!(hash64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(hash64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(hash64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            hash64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn seal_is_stable_across_lengths() {
        // The seal is a format constant: these values are part of the
        // wire format and must never change.
        let data: Vec<u8> = (0..255u8).collect();
        assert_eq!(seal32(&[]), 0xBE9E_32AE);
        assert_eq!(seal32(&data[..7]), seal32(&data[..7]));
        assert_ne!(seal32(&data[..64]), seal32(&data[..65]));
    }

    #[test]
    fn single_bit_flips_change_the_seal_everywhere() {
        let mut data = vec![0u8; 300];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 37 % 251) as u8;
        }
        let base = seal32(&data);
        for pos in [0, 1, 31, 32, 63, 255, 296, 299] {
            for bit in 0..8 {
                let mut copy = data.clone();
                if let Some(b) = copy.get_mut(pos) {
                    *b ^= 1 << bit;
                }
                assert_ne!(seal32(&copy), base, "flip at byte {pos} bit {bit}");
            }
        }
    }

    #[test]
    fn length_extension_and_block_boundaries_differ() {
        // Same prefix, one extra zero byte: the length term must separate
        // them even though a zero word barely stirs the lanes.
        for len in [0usize, 3, 4, 8, 31, 32, 33, 64, 95, 96] {
            let a = vec![0u8; len];
            let b = vec![0u8; len + 1];
            assert_ne!(seal32(&a), seal32(&b), "len {len}");
        }
    }

    #[test]
    fn every_split_seals_like_the_whole() {
        // Lengths under one block, one block, one past it, and two blocks
        // plus a tail of a word's worth less one; every two- and
        // three-piece split of each.
        let data: Vec<u8> = (0..71u32).map(|i| (i * 151 % 251) as u8).collect();
        for len in [0usize, 1, 7, 8, 12, 31, 32, 33, 64 + 7] {
            let input = &data[..len];
            let whole = seal32(input);
            for a in 0..=len {
                for b in a..=len {
                    let mut sealer = Sealer::new();
                    sealer.update(&input[..a]);
                    sealer.update(&input[a..b]);
                    sealer.update(&input[b..]);
                    assert_eq!(sealer.seal32(), whole, "len {len} split at {a}, {b}");
                }
            }
        }
    }
}
