//! Resource Available Rate (Equation 1) and throttle attribution (§5.1–5.2).

use crate::scenario::ThrottleGroup;

/// RAR samples of a group: for every tick where at least one member is
/// throttled, `RAR(t) = (Cap − min(VM(t), Cap)) / Cap`, where `Cap` is the
/// summed member caps and `VM(t)` the summed *delivered* traffic (each
/// member clamped to its own cap — the paper measures post-throttle
/// traffic).
pub fn rar_samples(group: &ThrottleGroup) -> Vec<f64> {
    let cap = group.total_cap();
    if cap <= 0.0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for t in 0..group.ticks {
        if !group.any_throttled(t) {
            continue;
        }
        let delivered: f64 = group.members.iter().map(|m| m.demand(t).min(m.cap)).sum();
        out.push(((cap - delivered) / cap).clamp(0.0, 1.0));
    }
    ebs_obs::observe_many("throttle.rar", &out);
    ebs_obs::counter_add("throttle.rar.samples", out.len() as u64);
    out
}

/// Normalized write-to-read ratio of the *throttled member* at each
/// throttled tick (Figure 3(c)): positive = writes drove the throttle.
pub fn throttled_wr_ratios(group: &ThrottleGroup) -> Vec<f64> {
    let mut out = Vec::new();
    for t in 0..group.ticks {
        for m in &group.members {
            if m.throttled(t) {
                if let Some(r) = ebs_analysis::wr_ratio(m.write[t], m.read[t]) {
                    out.push(r);
                }
            }
        }
    }
    out
}

/// Count of throttled (member, tick) pairs — used to compare how often the
/// throughput cap fires versus the IOPS cap.
pub fn throttle_event_count(group: &ThrottleGroup) -> usize {
    (0..group.ticks)
        .map(|t| group.members.iter().filter(|m| m.throttled(t)).count())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::fixture::{group, rw as vd};

    #[test]
    fn rar_reflects_headroom() {
        // Member 0 throttled at tick 0 (demand 100 ≥ cap 100); member 1
        // idle with cap 300 → delivered = 100, cap = 400, RAR = 0.75.
        let g = group(vec![
            vd(vec![0.0], vec![100.0], 100.0),
            vd(vec![0.0], vec![0.0], 300.0),
        ]);
        let rar = rar_samples(&g);
        assert_eq!(rar.len(), 1);
        assert!((rar[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn no_throttle_no_samples() {
        let g = group(vec![
            vd(vec![1.0, 2.0], vec![1.0, 2.0], 100.0),
            vd(vec![0.0, 0.0], vec![1.0, 1.0], 100.0),
        ]);
        assert!(rar_samples(&g).is_empty());
        assert_eq!(throttle_event_count(&g), 0);
    }

    #[test]
    fn demand_over_cap_is_clamped_in_rar() {
        // Demand 500 against cap 100: delivered clamps to 100.
        let g = group(vec![
            vd(vec![0.0], vec![500.0], 100.0),
            vd(vec![0.0], vec![0.0], 100.0),
        ]);
        let rar = rar_samples(&g);
        assert!((rar[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wr_ratio_identifies_write_driven_throttles() {
        let g = group(vec![
            vd(vec![10.0], vec![90.0], 100.0), // throttled, write-heavy
            vd(vec![0.0], vec![0.0], 100.0),
        ]);
        let ratios = throttled_wr_ratios(&g);
        assert_eq!(ratios.len(), 1);
        assert!((ratios[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn event_count_counts_member_ticks() {
        let g = group(vec![
            vd(vec![100.0, 100.0], vec![0.0, 0.0], 100.0), // throttled both ticks
            vd(vec![0.0, 200.0], vec![0.0, 0.0], 100.0),   // throttled tick 1
        ]);
        assert_eq!(throttle_event_count(&g), 3);
    }
}
