//! Helpers shared by the golden-value test files.

// Each test file is its own crate and uses only some of these helpers.
#![allow(dead_code)]

/// FNV-1a over 64-bit words: the digest every golden pin folds its
/// values into.
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    pub fn list<T: Copy + Into<u64>>(&mut self, xs: &[T]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x.into());
        }
    }
}
