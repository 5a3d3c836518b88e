//! The workspace's one random generator, and the seeded-case helper the
//! property tests run on.
//!
//! `sh-workload` draws the paper's SYNTH suite from [`Rng`], so its
//! streams are part of every dataset's definition: a changed mapping
//! here moves every figure. The golden tests below pin them.

#![forbid(unsafe_code)]

use std::io::Write;
use std::ops::Range;

/// xoshiro256**, seeded through SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Expands a 64-bit seed into the full state with SplitMix64.
    pub fn seed(seed: u64) -> Rng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`: the top 53 bits over 2⁵³.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `range`: `start + unit · (end − start)`.
    pub fn uniform(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "uniform: empty range");
        range.start + self.unit() * (range.end - range.start)
    }

    /// Uniform in `0..n`, as `next_u64() mod n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates: position `i` swaps with `below(i + 1)`, last first.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A property case's inputs were unusable; [`check`] draws another in
/// its place.
#[derive(Debug)]
pub struct Reject;

/// `Ok` when `cond` holds, else [`Reject`]: `assume(cond)?` in a case.
pub fn assume(cond: bool) -> Result<(), Reject> {
    if cond {
        Ok(())
    } else {
        Err(Reject)
    }
}

/// Runs `case` on fresh draws until `cases` of them pass. The stream is
/// seeded from `name` (FNV-1a), so each test draws the same cases every
/// run. A case asserts with `assert!`; a failing one is reported with
/// the test's name and its case number. Gives up after
/// `max(20 · cases, 100)` attempts, rejected ones included.
pub fn check(name: &str, cases: u32, mut case: impl FnMut(&mut Rng) -> Result<(), Reject>) {
    let seed = name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    });
    let mut rng = Rng::seed(seed);
    let cap = cases.saturating_mul(20).max(100);
    let (mut passed, mut attempts) = (0, 0);
    while passed < cases {
        attempts += 1;
        assert!(attempts <= cap, "{name}: too many cases rejected");
        let naming = NameOnPanic(name, passed + 1, cases);
        if case(&mut rng).is_ok() {
            passed += 1;
        }
        drop(naming);
    }
}

/// Declares property tests. Each `fn name(rng, cases) { body }` becomes
/// a `#[test]` that runs `body` as [`check`] cases named `name`, with
/// `rng: &mut Rng` drawing its inputs; `assume(cond)?` rejects one.
#[macro_export]
macro_rules! properties {
    ($($(#[$meta:meta])* fn $name:ident($rng:ident, $cases:expr) $body:block)*) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::check(stringify!($name), $cases, |$rng| {
                $body
                Ok(())
            });
        }
    )*};
}

/// Names the test and case on stderr when a case panics.
struct NameOnPanic<'a>(&'a str, u32, u32);

impl Drop for NameOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A second panic while unwinding would abort: ignore the error.
            let (name, case, cases) = (self.0, self.1, self.2);
            let _ = writeln!(std::io::stderr(), "{name}: case {case} of {cases} failed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Streams captured from the generator every dataset was drawn from
    /// before this crate existed. A changed mapping fails here.
    #[test]
    fn golden_streams() {
        #[rustfmt::skip]
        let golden = [
            (0, [0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c,
                 0xbba5ad4a1f842e59, 0xffef8375d9ebcaca, 0x6c160deed2f54c98, 0x8920ad648fc30a3f]),
            (42, [0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1,
                  0xfde6dc7fe2ec5e64, 0xc50da53101795238, 0xb82154855a65ddb2, 0xd99a2743ebe60087]),
        ];
        for (seed, want) in golden {
            let mut rng = Rng::seed(seed);
            assert_eq!([(); 8].map(|_| rng.next_u64()), want, "seed {seed}");
        }
        let mut rng = Rng::seed(7);
        assert_eq!(rng.unit().to_bits(), 0x3fe66b1f5ee9df2e);
        assert_eq!(rng.uniform(-0.3..0.3).to_bits(), 0xbfc0fded861b6a5a);
        assert_eq!(rng.below(10), 8);
        // The inclusive range `0..=5`.
        assert_eq!(rng.below(6), 4);
        let mut v: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut v);
        assert_eq!(v, [0, 6, 1, 3, 5, 7, 8, 9, 2, 4]);
    }

    #[test]
    fn check_replaces_rejected_cases_and_caps_them() {
        let (mut calls, mut passed) = (0, 0);
        check("check_replaces_rejected_cases", 10, |rng| {
            calls += 1;
            assume(rng.below(2) == 0)?;
            passed += 1;
            Ok(())
        });
        assert_eq!((passed, calls > 10), (10, true));
        let gave_up = std::panic::catch_unwind(|| check("never", 3, |_| assume(false)));
        assert!(gave_up.is_err(), "an always-rejecting case must give up");
    }
}
