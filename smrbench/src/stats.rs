//! Order statistics and failure accounting shared by every workload.

/// Nearest-rank percentile of an ascending slice: the value at one-based
/// rank `ceil(q * n)`, clamped to `[1, n]`. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `values` and returns its nearest-rank percentile.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, q)
}

/// The middle value (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Operations attempted and failed. A failure never aborts a run: it is
/// counted, reported on stderr, and turns the run's `correct` flag off.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt that succeeded when `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("smrbench: FAILED: {}", what());
        }
        ok
    }

    /// Folds another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Whether every attempt succeeded (and at least one was made).
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// FNV-1a over bytes, widened to 128 bits by running two offset bases: a
/// stable digest for report bytes that repeats across processes and
/// toolchains (unlike `DefaultHasher`).
pub fn digest(bytes: &[u8]) -> u128 {
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0x8422_2325_cbf2_9ce4;
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        b = (b ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (u128::from(a) << 64) | u128::from(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        // Rank ceil(0.0 * n) = 0 clamps to the first element.
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        // n = 5: p50 is rank 3, p99 is rank 5.
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&five, 0.5), Some(30.0));
        assert_eq!(nearest_rank(&five, 0.99), Some(50.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn percentile_sorts_first() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        // 1000 samples: p99 is rank 990, so ten samples lie beyond it.
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(989.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tally_counts_failures_without_stopping() {
        let mut t = Tally::default();
        assert!(!t.correct(), "no attempts is not a pass");
        assert!(t.check(true, String::new));
        assert!(!t.check(false, || "digest mismatch".into()));
        assert!(t.check(true, String::new));
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        assert!(!t.correct());
        let mut total = Tally::default();
        total.add(t);
        total.add(Tally {
            attempted: 2,
            failed: 0,
        });
        assert_eq!(total.attempted, 5);
        assert_eq!(total.failed, 1);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest(b"report"), digest(b"report"));
        assert_ne!(digest(b"report"), digest(b"reporu"));
        assert_ne!(digest(b""), 0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
