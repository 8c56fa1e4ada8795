//! Theoretical reduction rate of limited lending (Equation 3, Figure 3(d/e)).

use crate::scenario::ThrottleGroup;

/// Reduction-rate samples of a group at lending rate `p`: for every
/// `(member, tick)` where the member is throttled,
/// `RR = VD(t) / (VD(t) + p·AR(t))` with `AR(t)` the group's available
/// resource at that tick. Lower is better (shorter throttle after lending).
pub fn reduction_rates(group: &ThrottleGroup, p: f64) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&p), "lending rate must be in [0, 1]");
    let cap = group.total_cap();
    let mut out = Vec::new();
    for t in 0..group.ticks {
        let delivered: f64 = group.members.iter().map(|m| m.demand(t).min(m.cap)).sum();
        let ar = (cap - delivered).max(0.0);
        for m in &group.members {
            if m.throttled(t) {
                let vd = m.demand(t).min(m.cap);
                if vd > 0.0 {
                    out.push(vd / (vd + p * ar));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::fixture::{group, vd};

    #[test]
    fn rr_shrinks_with_available_resource() {
        // Throttled member delivers 100; sibling idle with cap 300 → AR = 300.
        let g = group(vec![vd(vec![100.0], 100.0), vd(vec![0.0], 300.0)]);
        let rr_08 = reduction_rates(&g, 0.8);
        // RR = 100 / (100 + 0.8·300) = 100/340.
        assert!((rr_08[0] - 100.0 / 340.0).abs() < 1e-12);
        let rr_04 = reduction_rates(&g, 0.4);
        assert!(rr_04[0] > rr_08[0], "higher p must reduce more");
    }

    #[test]
    fn no_available_resource_means_no_reduction() {
        // Both members saturated: AR = 0 → RR = 1.
        let g = group(vec![vd(vec![100.0], 100.0), vd(vec![100.0], 100.0)]);
        let rr = reduction_rates(&g, 0.8);
        assert_eq!(rr.len(), 2);
        for r in rr {
            assert!((r - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rr_is_in_unit_interval() {
        let g = group(vec![
            vd(vec![100.0, 50.0, 100.0], 100.0),
            vd(vec![5.0, 0.0, 80.0], 200.0),
        ]);
        for p in [0.2, 0.5, 0.9] {
            for r in reduction_rates(&g, p) {
                assert!(r > 0.0 && r <= 1.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "lending rate")]
    fn invalid_p_rejected() {
        let g = group(vec![vd(vec![1.0], 1.0), vd(vec![0.0], 1.0)]);
        let _ = reduction_rates(&g, 1.5);
    }
}
