//! Runtime limited lending — Algorithm 2 and the lending-gain simulation
//! (§5.3, Figure 3(f/g)).
//!
//! Lending operates in periods. Caps start at their subscribed values each
//! period; when a member first hits its cap, it borrows `p × AR(t)` of the
//! group's available resource, and the unthrottled members' caps shrink by
//! the lent amount (proportionally to their headroom). Because the lent
//! cap is only granted *after* the throttle and the lenders may burst later
//! in the period, lending can backfire — the negative-gain tail of
//! Figure 3(f).

use crate::scenario::ThrottleGroup;

/// Lending-simulation configuration.
#[derive(Clone, Copy, Debug)]
pub struct LendingConfig {
    /// Lending rate `p ∈ (0, 1)`.
    pub p: f64,
    /// Period length in ticks (caps reset at period boundaries).
    pub period_ticks: usize,
}

impl Default for LendingConfig {
    fn default() -> Self {
        Self {
            p: 0.8,
            period_ticks: 6,
        }
    }
}

/// Outcome for one group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LendingOutcome {
    /// Throttled member-ticks without lending.
    pub throttled_without: usize,
    /// Throttled member-ticks with lending.
    pub throttled_with: usize,
    /// `(t_w/o − t_w) / (t_w/o + t_w)` in `(-1, 1)`; positive = lending
    /// shortened the throttle. `None` when the group never throttles.
    pub gain: Option<f64>,
}

/// Algorithm 2's grant at a group's first throttle in a period.
///
/// `demand` holds each member's demand and `caps` the caps in force; a
/// member is throttled when its demand reaches its cap. The borrower is
/// the throttled member with the highest demand (ties go to the last, as
/// `max_by` does). The group lends `p × AR`, where AR = Σcap −
/// Σmin(demand, cap) is what its caps leave undelivered, but at most the
/// lenders' total headroom. A lender's headroom is its cap minus
/// `reserved(i)`, what it keeps for itself, and it gives up a share of
/// the grant in proportion to that headroom. `reserved` is called only
/// when there is something to lend, once per lender in member order.
///
/// On a grant `caps` hold the new caps and the borrower is returned;
/// otherwise `caps` are untouched.
pub fn lend_step(
    demand: &[f64],
    caps: &mut [f64],
    p: f64,
    mut reserved: impl FnMut(usize) -> f64,
) -> Option<usize> {
    let borrower = demand
        .iter()
        .zip(caps.iter())
        .enumerate()
        .filter(|(_, (d, c))| d >= c)
        .max_by(|(_, (a, _)), (_, (b, _))| a.total_cmp(b))
        .map(|(i, _)| i)?;
    let delivered: f64 = demand.iter().zip(caps.iter()).map(|(d, &c)| d.min(c)).sum();
    let cap_total: f64 = caps.iter().sum();
    let lent = p * (cap_total - delivered).max(0.0);
    if lent <= 0.0 {
        return None;
    }
    let headroom: Vec<f64> = caps
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            if i == borrower {
                0.0
            } else {
                (c - reserved(i)).max(0.0)
            }
        })
        .collect();
    let total_headroom: f64 = headroom.iter().sum();
    if total_headroom <= 0.0 {
        return None;
    }
    let lent = lent.min(total_headroom);
    for (i, (cap, h)) in caps.iter_mut().zip(&headroom).enumerate() {
        if i == borrower {
            *cap += lent;
        }
        *cap -= lent * h / total_headroom;
    }
    Some(borrower)
}

/// Simulate Algorithm 2 over one group: lenders keep their demand.
pub fn simulate_lending(group: &ThrottleGroup, config: &LendingConfig) -> LendingOutcome {
    let (out, grants) = lend_ticks(group, config, |i, t| {
        group.members.get(i).map_or(0.0, |m| m.demand(t))
    });
    if ebs_obs::enabled() {
        let mut reg = ebs_obs::Registry::new();
        reg.counter_add("throttle.lending.grants", grants);
        // A grant lives until the next period boundary or the end of the
        // run, so every grant is reclaimed once.
        reg.counter_add("throttle.lending.reclaims", grants);
        reg.counter_add(
            "throttle.lending.throttled_ticks_without",
            out.throttled_without as u64,
        );
        reg.counter_add(
            "throttle.lending.throttled_ticks_with",
            out.throttled_with as u64,
        );
        ebs_obs::merge(&reg);
    }
    out
}

/// The tick loop of Algorithm 2 over one group, lender `i` keeping
/// `reserved(i, t)` at tick `t`: caps reset at each period boundary and
/// [`lend_step`] runs at the period's first throttle. Returns the outcome
/// and the number of grants.
pub(crate) fn lend_ticks(
    group: &ThrottleGroup,
    config: &LendingConfig,
    mut reserved: impl FnMut(usize, usize) -> f64,
) -> (LendingOutcome, u64) {
    assert!(config.p > 0.0 && config.p < 1.0, "p must be in (0, 1)");
    assert!(config.period_ticks >= 1);
    let base_caps: Vec<f64> = group.members.iter().map(|m| m.cap).collect();
    let mut caps = base_caps.clone();
    let mut demand = Vec::with_capacity(base_caps.len());
    let mut throttled_without = 0usize;
    let mut throttled_with = 0usize;
    let mut lent_this_period = false;
    let mut grants = 0u64;
    for t in 0..group.ticks {
        if t % config.period_ticks == 0 {
            caps.copy_from_slice(&base_caps);
            lent_this_period = false;
        }
        demand.clear();
        demand.extend(group.members.iter().map(|m| m.demand(t)));
        // Baseline: fixed caps. With lending: the caps in force.
        throttled_without += group.members.iter().filter(|m| m.throttled(t)).count();
        throttled_with += demand.iter().zip(&caps).filter(|(d, c)| d >= c).count();
        if !lent_this_period
            && lend_step(&demand, &mut caps, config.p, |i| reserved(i, t)).is_some()
        {
            lent_this_period = true;
            grants += 1;
        }
    }
    let (without, with) = (throttled_without as f64, throttled_with as f64);
    let gain =
        (throttled_without + throttled_with > 0).then(|| (without - with) / (without + with));
    let out = LendingOutcome {
        throttled_without,
        throttled_with,
        gain,
    };
    (out, grants)
}

/// Run the lending simulation over many groups, returning the gains of
/// groups that throttle at all.
pub fn lending_gains(groups: &[ThrottleGroup], config: &LendingConfig) -> Vec<f64> {
    groups
        .iter()
        .filter_map(|g| simulate_lending(g, config).gain)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::fixture::{group, vd};

    fn config(p: f64, period_ticks: usize) -> LendingConfig {
        LendingConfig { p, period_ticks }
    }

    // Equal top demands pick the later borrower (`max_by`), in the
    // figures' sweep and in serve's lender alike: serve's old lender took
    // the earlier one, and the serve gold master was re-recorded when it
    // moved onto this kernel.
    #[test]
    fn equal_top_demands_pick_the_later_borrower() {
        let demand = [150.0, 20.0, 150.0];
        let mut caps = [100.0; 3];
        assert_eq!(lend_step(&demand, &mut caps, 0.5, |i| demand[i]), Some(2));
        // AR = 300 − 220 = 80, so 40 is lent, all by the one lender with
        // headroom.
        assert_eq!(caps, [100.0, 60.0, 140.0]);
        // Nothing throttled, nothing lent.
        let mut caps = [200.0; 3];
        assert_eq!(lend_step(&demand, &mut caps, 0.5, |i| demand[i]), None);
        assert_eq!(caps, [200.0; 3]);
    }

    #[test]
    fn lending_relieves_a_sustained_throttle() {
        // Member 0 demands 150 against cap 100 for the whole period;
        // member 1 idles with cap 300. Lending p = 0.8 raises member 0's
        // cap above demand after the first tick.
        let g = group(vec![vd(vec![150.0; 6], 100.0), vd(vec![0.0; 6], 300.0)]);
        let out = simulate_lending(&g, &config(0.8, 6));
        assert_eq!(out.throttled_without, 6);
        assert!(out.throttled_with < 6, "lending should clear later ticks");
        assert!(out.gain.unwrap() > 0.0);
    }

    #[test]
    fn lender_burst_can_backfire() {
        // Member 0 throttles at tick 0; member 1 lends, then bursts to just
        // under its original cap — now above its reduced cap → re-throttle.
        let g = group(vec![
            vd(vec![150.0, 0.0, 0.0], 100.0),
            vd(vec![0.0, 95.0, 95.0], 100.0),
        ]);
        let out = simulate_lending(&g, &config(0.8, 3));
        // Without lending member 1 never throttles (95 < 100): baseline 1.
        assert_eq!(out.throttled_without, 1);
        assert!(
            out.throttled_with > out.throttled_without,
            "the lender must get burned: {out:?}"
        );
        assert!(out.gain.unwrap() < 0.0);
    }

    #[test]
    fn quiet_group_has_no_gain_sample() {
        let g = group(vec![vd(vec![1.0; 4], 100.0), vd(vec![2.0; 4], 100.0)]);
        let out = simulate_lending(&g, &LendingConfig::default());
        assert_eq!(out.gain, None);
    }

    #[test]
    fn caps_reset_each_period() {
        // Throttle in period 0 triggers lending; in period 1 the caps are
        // back, so the lender's 95-demand does not throttle.
        let g = group(vec![
            vd(vec![150.0, 0.0, 0.0, 0.0], 100.0),
            vd(vec![0.0, 0.0, 95.0, 95.0], 100.0),
        ]);
        let out = simulate_lending(&g, &config(0.8, 2));
        assert_eq!(out.throttled_with, out.throttled_without);
    }

    #[test]
    fn conservation_total_caps_unchanged_by_lending() {
        // Internal property: after lending, Σcaps must equal Σbase caps.
        // We check via a scenario where everything is observable: if caps
        // leaked, member 1 with demand just over half its cap would change
        // throttle state.
        let g = group(vec![
            vd(vec![150.0; 4], 100.0),
            vd(vec![40.0; 4], 100.0),
            vd(vec![40.0; 4], 100.0),
        ]);
        let out = simulate_lending(&g, &config(0.5, 4));
        // Baseline: member 0 throttled all 4 ticks.
        assert_eq!(out.throttled_without, 4);
        // Lending: AR = 300 − (100+40+40) = 120, lent = 60 → borrower cap
        // 160 ≥ 150 clears ticks 1–3; each lender keeps cap 70 > 40 and
        // never throttles. Only the triggering tick 0 counts.
        assert_eq!(out.throttled_with, 1);
    }

    #[test]
    fn gains_collect_over_groups() {
        let g1 = group(vec![vd(vec![150.0; 6], 100.0), vd(vec![0.0; 6], 300.0)]);
        let g2 = group(vec![vd(vec![1.0; 6], 100.0), vd(vec![1.0; 6], 100.0)]);
        let gains = lending_gains(&[g1, g2], &LendingConfig::default());
        assert_eq!(gains.len(), 1); // quiet group contributes nothing
    }
}
