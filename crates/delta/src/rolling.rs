//! Rolling (weak) checksum, in the style of rsync's Adler-32 variant.
//!
//! The weak hash lets the encoder slide a window over the target one byte at
//! a time in O(1) per step; candidate matches are confirmed with the strong
//! hash ([`crate::strong`]) plus a byte comparison, so weak collisions cost
//! time but never correctness.

/// Modulus for the two 16-bit halves. rsync uses 1 << 16; we keep that.
const MOD: u32 = 1 << 16;

/// rsync-style rolling checksum over a fixed-length window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollingHash {
    a: u32,
    b: u32,
    len: u32,
}

impl RollingHash {
    /// Compute the checksum of `window` from scratch.
    pub fn new(window: &[u8]) -> Self {
        let mut a: u32 = 0;
        let mut b: u32 = 0;
        let len = window.len() as u32;
        for (i, &x) in window.iter().enumerate() {
            a = (a + x as u32) % MOD;
            b = (b + (len - i as u32) * x as u32) % MOD;
        }
        RollingHash { a, b, len }
    }

    /// The 32-bit digest: `(b << 16) | a`.
    #[inline]
    pub fn digest(&self) -> u32 {
        (self.b << 16) | self.a
    }

    /// Slide the window one byte: remove `out` (the byte leaving on the
    /// left) and append `inc` (the byte entering on the right).
    ///
    /// With window `[x_k .. x_{k+n-1}]`, `a = Σ x_i` and
    /// `b = Σ (k+n-i)·x_i` (weights n..1). Sliding to `[x_{k+1} .. x_{k+n}]`
    /// gives `a' = a − x_k + x_{k+n}` and `b' = b − n·x_k + a'` (the new
    /// byte's weight-1 contribution arrives via `a'`).
    #[inline]
    pub fn roll(&mut self, out: u8, inc: u8) {
        let out = out as u64;
        let inc = inc as u64;
        let n = self.len as u64;
        let m = MOD as u64;
        let a_new = (self.a as u64 + m + inc - out) % m;
        let b_new = (self.b as u64 + n * m - n * out + a_new) % m;
        self.a = a_new as u32;
        self.b = b_new as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_window_digest_is_zero() {
        let h = RollingHash::new(&[]);
        assert_eq!(h.digest(), 0);
    }

    #[test]
    fn roll_matches_recompute() {
        let mut rng = StdRng::seed_from_u64(42);
        let data: Vec<u8> = (0..4096).map(|_| rng.gen()).collect();
        for &w in &[4usize, 16, 64, 256] {
            let mut h = RollingHash::new(&data[0..w]);
            for i in 1..data.len() - w {
                h.roll(data[i - 1], data[i + w - 1]);
                let fresh = RollingHash::new(&data[i..i + w]);
                assert_eq!(h.digest(), fresh.digest(), "window {w} at offset {i}");
            }
        }
    }

    #[test]
    fn identical_windows_hash_equal() {
        let a = RollingHash::new(b"hello world ....");
        let b = RollingHash::new(b"hello world ....");
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_windows_usually_differ() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut collisions = 0;
        for _ in 0..1000 {
            let x: [u8; 16] = rng.gen();
            let y: [u8; 16] = rng.gen();
            if x != y && RollingHash::new(&x).digest() == RollingHash::new(&y).digest() {
                collisions += 1;
            }
        }
        // 32-bit digest over random inputs: collisions should be rare.
        assert!(collisions < 5, "collisions={collisions}");
    }
}
