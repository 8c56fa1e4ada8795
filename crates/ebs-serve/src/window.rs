//! Sliding windows over per-epoch observations, plus the pure fold
//! arithmetic the rolling SLO metrics are computed with.
//!
//! A [`SlidingWindow`] keeps the most recent `len` epochs' stats; the
//! fold helpers reduce windowed numerators/denominators into rates and
//! ratios. Everything here is plain arithmetic over caller-supplied
//! values: no clocks, no RNG, no I/O — and, as a member of the `ebs-lint`
//! D3 *total* set, no panics on any input.

/// A bounded FIFO of the most recent observations, oldest first.
#[derive(Clone, Debug)]
pub struct SlidingWindow<T> {
    len: usize,
    items: Vec<T>,
}

impl<T> SlidingWindow<T> {
    /// A window holding at most `len` observations (`len` is clamped to
    /// at least 1: a zero-length window could never observe anything).
    pub fn new(len: usize) -> Self {
        Self {
            len: len.max(1),
            items: Vec::new(),
        }
    }

    /// Capacity of the window.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Whether the window holds nothing yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Push the newest observation, evicting the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.items.len() >= self.len && !self.items.is_empty() {
            self.items.remove(0);
        }
        self.items.push(item);
    }

    /// The window's contents, oldest first.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// The most recent observation, if any.
    pub fn newest(&self) -> Option<&T> {
        self.items.last()
    }
}

/// `num / den` as a ratio, `0.0` when the denominator is zero — the
/// convention for windowed rates (throttle waste, hit ratios) so an idle
/// window reads as a clean zero rather than a NaN.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sum of a `u64` projection over the window, saturating (a window of
/// epoch counters cannot meaningfully exceed `u64::MAX`).
pub fn fold_sum<T>(items: &[T], f: impl Fn(&T) -> u64) -> u64 {
    items.iter().fold(0u64, |acc, it| acc.saturating_add(f(it)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_evicts_oldest_first() {
        let mut w = SlidingWindow::new(3);
        assert!(w.is_empty());
        for k in 0..5u64 {
            w.push(k);
        }
        assert_eq!(w.as_slice(), &[2, 3, 4]);
        assert_eq!(w.capacity(), 3);
        assert_eq!(w.newest(), Some(&4));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut w = SlidingWindow::new(0);
        w.push(7u32);
        w.push(8u32);
        assert_eq!(w.as_slice(), &[8]);
    }

    #[test]
    fn ratio_of_idle_window_is_zero() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }

    #[test]
    fn folds_project_and_sum() {
        let xs = [1u64, 2, 3];
        assert_eq!(fold_sum(&xs, |&x| x), 6);
        assert_eq!(fold_sum(&xs, |_| u64::MAX), u64::MAX);
    }
}
