//! Importer-selection strategies S1–S5 for the inter-BS balancer (§6.1.2).
//!
//! When a hot BlockServer exports segments, the balancer must pick the
//! importer. The paper compares five policies: random, minimum current
//! traffic (production default), minimum traffic variance, Lunule's
//! linear-fit prediction, and an oracle that knows next period's traffic.

use ebs_core::rng::SimRng;
use ebs_predict::eval::Predictor;
use ebs_predict::linear::LinearFit;
use ebs_predict::Arima;

/// The five importer-selection strategies of Figure 4(b).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ImporterSelect {
    /// S1 — uniformly random BlockServer.
    Random,
    /// S2 — lowest traffic in the current period (production default).
    MinTraffic,
    /// S3 — lowest traffic variance over recent history.
    MinVariance,
    /// S4 — Lunule: lowest linear-fit predicted next-period traffic.
    Lunule,
    /// S5 — oracle: lowest actual next-period traffic.
    Ideal,
    /// S6 (extension) — lowest ARIMA-predicted next-period traffic: the
    /// deployable approximation of the oracle that §6.1.3 argues for
    /// (ARIMA being the best of the classic predictors in Figure 4(c)).
    ArimaPredict,
}

impl ImporterSelect {
    /// All strategies in the paper's S1..S5 order.
    pub const ALL: [ImporterSelect; 5] = [
        ImporterSelect::Random,
        ImporterSelect::MinTraffic,
        ImporterSelect::MinVariance,
        ImporterSelect::Lunule,
        ImporterSelect::Ideal,
    ];

    /// Whether [`select_importer`] reads [`ImporterContext::history`]:
    /// true for S3, S4 and S6.
    pub fn reads_history(&self) -> bool {
        match self {
            ImporterSelect::Random | ImporterSelect::MinTraffic | ImporterSelect::Ideal => false,
            ImporterSelect::MinVariance | ImporterSelect::Lunule | ImporterSelect::ArimaPredict => {
                true
            }
        }
    }

    /// Short label ("S1".."S5").
    pub fn label(&self) -> &'static str {
        match self {
            ImporterSelect::Random => "S1-Random",
            ImporterSelect::MinTraffic => "S2-MinTraffic",
            ImporterSelect::MinVariance => "S3-MinVariance",
            ImporterSelect::Lunule => "S4-Lunule",
            ImporterSelect::Ideal => "S5-Ideal",
            ImporterSelect::ArimaPredict => "S6-ARIMA",
        }
    }
}

/// Everything a strategy may look at when choosing an importer. All slices
/// are indexed by *cluster-local* BS position.
pub struct ImporterContext<'a> {
    /// Per-BS traffic in the current period.
    pub current: &'a [f64],
    /// Per-BS traffic history including the current period
    /// (`history[bs][period]`).
    pub history: &'a [Vec<f64>],
    /// Per-BS traffic in the next period under the current placement
    /// (the oracle's knowledge; available in simulation, empty online).
    pub next: &'a [f64],
    /// Cluster-local index of the exporter (never chosen).
    pub exporter: usize,
}

/// Pick an importer (cluster-local index). Returns `None` when the cluster
/// has no candidate besides the exporter, or for the Ideal strategy
/// without next period's traffic.
pub fn select_importer(
    strategy: ImporterSelect,
    rng: &mut SimRng,
    ctx: &ImporterContext<'_>,
) -> Option<usize> {
    let n = ctx.current.len();
    if n < 2 {
        return None;
    }
    let candidates = || (0..n).filter(|&i| i != ctx.exporter);
    // Each candidate is scored once (S6 refits ARIMA per score); a tie
    // keeps the first minimum, as `min_by` would.
    let argmin = |score: &dyn Fn(usize) -> f64| -> Option<usize> {
        candidates()
            .map(|i| (i, score(i)))
            .reduce(
                |best, next| match next.1.partial_cmp(&best.1).expect("no NaNs") {
                    std::cmp::Ordering::Less => next,
                    _ => best,
                },
            )
            .map(|(i, _)| i)
    };
    match strategy {
        ImporterSelect::Random => candidates().nth(rng.index(n - 1)),
        ImporterSelect::MinTraffic => argmin(&|i| ctx.current[i]),
        ImporterSelect::MinVariance => argmin(&|i| variance(&ctx.history[i])),
        ImporterSelect::Lunule => argmin(&|i| {
            let h = &ctx.history[i];
            let start = h.len().saturating_sub(4);
            let (a, b) = LinearFit::fit_line(&h[start..]);
            (a + b * (h.len() - start) as f64).max(0.0)
        }),
        // Without next period's traffic (online) the oracle cannot pick.
        ImporterSelect::Ideal if ctx.next.len() < n => None,
        ImporterSelect::Ideal => argmin(&|i| ctx.next[i]),
        ImporterSelect::ArimaPredict => argmin(&|i| {
            let h = &ctx.history[i];
            if h.len() < 6 {
                return ctx.current[i];
            }
            // Bounded history keeps the per-period fit affordable.
            let start = h.len().saturating_sub(48);
            let mut model = Arima::new(3, 1);
            model.fit(&h[start..]);
            model.predict_next(&h[start..])
        }),
    }
}

fn variance(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        current: &'a [f64],
        history: &'a [Vec<f64>],
        next: &'a [f64],
        exporter: usize,
    ) -> ImporterContext<'a> {
        ImporterContext {
            current,
            history,
            next,
            exporter,
        }
    }

    #[test]
    fn min_traffic_picks_current_minimum() {
        let current = [9.0, 1.0, 5.0];
        let hist = vec![vec![9.0], vec![1.0], vec![5.0]];
        let next = [0.0, 100.0, 0.0];
        let mut rng = SimRng::seed_from_u64(1);
        let pick = select_importer(
            ImporterSelect::MinTraffic,
            &mut rng,
            &ctx(&current, &hist, &next, 0),
        );
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn ideal_picks_future_minimum() {
        let current = [9.0, 1.0, 5.0];
        let hist = vec![vec![9.0], vec![1.0], vec![5.0]];
        let next = [0.0, 100.0, 2.0];
        let mut rng = SimRng::seed_from_u64(1);
        let pick = select_importer(
            ImporterSelect::Ideal,
            &mut rng,
            &ctx(&current, &hist, &next, 0),
        );
        // BS 0 is the exporter; among {1, 2} the lowest future traffic is 2.
        assert_eq!(pick, Some(2));
    }

    #[test]
    fn exporter_is_never_chosen() {
        let current = [0.0, 10.0];
        let hist = [vec![0.0], vec![10.0]];
        let next = [0.0, 10.0];
        let mut rng = SimRng::seed_from_u64(2);
        for s in ImporterSelect::ALL
            .into_iter()
            .chain([ImporterSelect::ArimaPredict])
        {
            // A strategy that does not read the history picks without it.
            let hist = if s.reads_history() { &hist[..] } else { &[] };
            let pick = select_importer(s, &mut rng, &ctx(&current, hist, &next, 0));
            assert_eq!(pick, Some(1), "{s:?} must skip the exporter");
        }
    }

    #[test]
    fn min_variance_prefers_stable_bs() {
        let current = [5.0, 5.0, 5.0];
        let hist = vec![
            vec![5.0, 5.0, 5.0, 5.0],   // flat
            vec![0.0, 10.0, 0.0, 10.0], // volatile
            vec![2.0, 8.0, 3.0, 7.0],
        ];
        let next = [5.0; 3];
        let mut rng = SimRng::seed_from_u64(3);
        let pick = select_importer(
            ImporterSelect::MinVariance,
            &mut rng,
            &ctx(&current, &hist, &next, 2),
        );
        assert_eq!(pick, Some(0));
    }

    #[test]
    fn lunule_follows_the_trend() {
        let current = [4.0, 4.0, 9.0];
        let hist = vec![
            vec![1.0, 2.0, 3.0, 4.0], // rising → predicted 5
            vec![7.0, 6.0, 5.0, 4.0], // falling → predicted 3
            vec![9.0; 4],
        ];
        let next = [0.0; 3];
        let mut rng = SimRng::seed_from_u64(4);
        let pick = select_importer(
            ImporterSelect::Lunule,
            &mut rng,
            &ctx(&current, &hist, &next, 2),
        );
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn arima_importer_tracks_an_ar_process() {
        // BS 0 follows a rising AR trend, BS 1 a falling one; the ARIMA
        // strategy must send segments to the one headed down.
        let up: Vec<f64> = (0..30).map(|i| 10.0 + 3.0 * i as f64).collect();
        let down: Vec<f64> = (0..30).map(|i| 100.0 - 3.0 * i as f64).collect();
        let current = [*up.last().unwrap(), *down.last().unwrap(), 500.0];
        let hist = vec![up, down, vec![500.0; 30]];
        let next = [0.0; 3];
        let mut rng = SimRng::seed_from_u64(7);
        let pick = select_importer(
            ImporterSelect::ArimaPredict,
            &mut rng,
            &ctx(&current, &hist, &next, 2),
        );
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn single_bs_cluster_has_no_importer() {
        let current = [5.0];
        let hist = vec![vec![5.0]];
        let next = [5.0];
        let mut rng = SimRng::seed_from_u64(5);
        assert_eq!(
            select_importer(
                ImporterSelect::MinTraffic,
                &mut rng,
                &ctx(&current, &hist, &next, 0)
            ),
            None
        );
    }

    #[test]
    fn random_covers_candidates() {
        let current = [1.0, 2.0, 3.0, 4.0];
        let hist = vec![vec![0.0]; 4];
        let next = [0.0; 4];
        let mut rng = SimRng::seed_from_u64(6);
        let mut seen = ebs_core::hash::FxHashSet::default();
        for _ in 0..100 {
            seen.insert(
                select_importer(
                    ImporterSelect::Random,
                    &mut rng,
                    &ctx(&current, &hist, &next, 1),
                )
                .unwrap(),
            );
        }
        assert_eq!(seen, [0usize, 2, 3].into_iter().collect());
    }
}
