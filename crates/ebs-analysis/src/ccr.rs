//! Cumulative Contribution Rate (CCR), the paper's spatial-skewness metric.
//!
//! "1 %-CCR" at, say, the VM level is the fraction of total traffic
//! contributed by the top 1 % of VMs when VMs are ranked by their traffic
//! (§3.1, following Lee et al.).

/// CCR of `contributions` at top-fraction `frac` (e.g. `0.01` for the
/// paper's "1 %-CCR"). Returns a fraction in `[0, 1]`.
///
/// For positive fractions the number of top entities is `ceil(frac · n)`,
/// clamped to at least one, so tiny fleets still have a well-defined
/// "top 1 %". The top-0 % of a fleet contributes nothing, so `frac = 0.0`
/// is `0.0` — not the top-1 share the old floor-at-one clamp produced.
/// Returns `None` if the slice is empty or total contribution is not
/// positive.
pub fn ccr(contributions: &[f64], frac: f64) -> Option<f64> {
    if contributions.is_empty() || !(0.0..=1.0).contains(&frac) {
        return None;
    }
    let total: f64 = contributions.iter().sum();
    if total <= 0.0 {
        return None;
    }
    if frac == 0.0 {
        return Some(0.0);
    }
    let mut sorted: Vec<f64> = contributions.to_vec();
    // `total_cmp` gives the same descending order as `partial_cmp` for
    // NaN-free data while keeping the sort — and thus every caller in the
    // total set — panic-free (NaNs sink to the end and total > 0 already
    // rejects NaN-poisoned sums).
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = ((frac * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let top: f64 = sorted.iter().take(k).sum();
    Some(top / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_contributions_give_proportional_ccr() {
        let v = vec![1.0; 100];
        let c = ccr(&v, 0.2).unwrap();
        assert!((c - 0.2).abs() < 1e-12);
    }

    #[test]
    fn skewed_contributions_concentrate() {
        let mut v = vec![1.0; 99];
        v.push(901.0); // one hot entity: 90.1% of 1000 total
        let c = ccr(&v, 0.01).unwrap();
        assert!((c - 0.901).abs() < 1e-12);
    }

    #[test]
    fn top_count_rounds_up_and_floors_at_one() {
        // 10 entities, 1% → still 1 entity.
        let mut v = vec![0.0; 9];
        v.push(10.0);
        assert_eq!(ccr(&v, 0.01), Some(1.0));
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert_eq!(ccr(&[], 0.01), None);
        assert_eq!(ccr(&[0.0, 0.0], 0.2), None);
        assert_eq!(ccr(&[1.0], -0.1), None);
        assert_eq!(ccr(&[1.0], 1.5), None);
    }

    #[test]
    fn full_fraction_is_total() {
        let v = [2.0, 3.0, 5.0];
        assert!((ccr(&v, 1.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_fraction_contributes_nothing() {
        // The top 0% of any fleet carries 0% of the traffic — previously
        // this returned the top-1 contributor's share (0.9 here).
        let mut v = vec![1.0; 9];
        v.push(81.0);
        assert_eq!(ccr(&v, 0.0), Some(0.0));
    }

    #[test]
    fn boundary_fractions_cover_the_clamp_edges() {
        let n = 10;
        let mut v = vec![1.0; n - 1];
        v.push(81.0); // top entity: 90% of 90 total
                      // frac = 1/n selects exactly the top entity…
        let one_of_n = ccr(&v, 1.0 / n as f64).unwrap();
        assert!((one_of_n - 0.9).abs() < 1e-12);
        // …any smaller positive fraction still floors at one entity…
        let tiny = ccr(&v, 1e-6).unwrap();
        assert!((tiny - 0.9).abs() < 1e-12);
        // …frac = 1.0 takes everything, and frac = 0.0 takes nothing.
        assert!((ccr(&v, 1.0).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(ccr(&v, 0.0), Some(0.0));
    }
}
