//! §III-C — attack durations (Figs. 6–7).

use ddos_schema::{Dataset, Family, Timestamp};
use ddos_stats::{descriptive, Ecdf};
use serde::{Deserialize, Serialize};

use crate::kernels::KernelPolicy;

/// Duration analysis over a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurationAnalysis {
    /// `(start, duration_s)` per attack in time order — Fig. 6's scatter.
    pub series: Vec<(Timestamp, f64)>,
    /// Mean duration (paper: 10,308 s).
    pub mean: f64,
    /// Median duration (paper: 1,766 s).
    pub median: f64,
    /// Population standard deviation (paper: 18,475 s).
    pub std_dev: f64,
    /// 80th percentile (paper: 13,882 s ≈ four hours).
    pub p80: f64,
}

impl DurationAnalysis {
    /// Computes duration statistics over all attacks; `None` for an
    /// empty trace.
    pub fn compute(ds: &Dataset) -> Option<DurationAnalysis> {
        Self::compute_filtered(ds, None)
    }

    /// Same, restricted to one family.
    pub fn compute_for(ds: &Dataset, family: Family) -> Option<DurationAnalysis> {
        Self::compute_filtered(ds, Some(family))
    }

    /// Context-based variant of [`DurationAnalysis::compute`]: reuses
    /// the start and duration vectors precomputed in the analysis
    /// context (both in trace order, so the series is identical).
    pub fn compute_ctx(ctx: &crate::context::AnalysisContext) -> Option<DurationAnalysis> {
        let series: Vec<(Timestamp, f64)> = ctx
            .all_starts
            .iter()
            .copied()
            .zip(ctx.durations.iter().copied())
            .collect();
        Self::from_series_kernel(series, ctx.kernels)
    }

    fn compute_filtered(ds: &Dataset, family: Option<Family>) -> Option<DurationAnalysis> {
        let series: Vec<(Timestamp, f64)> = ds
            .attacks()
            .iter()
            .filter(|a| family.map_or(true, |f| f == a.family))
            .map(|a| (a.start, a.duration().as_f64()))
            .collect();
        Self::from_series(series)
    }

    fn from_series(series: Vec<(Timestamp, f64)>) -> Option<DurationAnalysis> {
        if series.is_empty() {
            return None;
        }
        let xs: Vec<f64> = series.iter().map(|&(_, d)| d).collect();
        Some(DurationAnalysis {
            mean: descriptive::mean(&xs)?,
            median: descriptive::median(&xs)?,
            std_dev: descriptive::std_dev_population(&xs)?,
            p80: descriptive::quantile(&xs, 0.8)?,
            series,
        })
    }

    /// Kernel variant of [`DurationAnalysis::from_series`]: the duration
    /// sample is extracted as per-chunk runs concatenated in chunk order
    /// (identical to the sequential extraction), the mean and deviation
    /// read it in that original order, and one shared sort feeds both
    /// quantiles — the serial [`DurationAnalysis::from_series`] sorts
    /// the same sample with the same comparator twice, so every
    /// statistic is bit-identical.
    fn from_series_kernel(
        series: Vec<(Timestamp, f64)>,
        policy: KernelPolicy,
    ) -> Option<DurationAnalysis> {
        if series.is_empty() {
            return None;
        }
        let mut xs: Vec<f64> = Vec::with_capacity(series.len());
        for range in policy.chunks(series.len()) {
            xs.extend(series[range].iter().map(|&(_, d)| d));
        }
        let mean = descriptive::mean(&xs)?;
        let std_dev = descriptive::std_dev_population(&xs)?;
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in duration sample"));
        Some(DurationAnalysis {
            mean,
            median: descriptive::quantile_sorted(&xs, 0.5),
            std_dev,
            p80: descriptive::quantile_sorted(&xs, 0.8),
            series,
        })
    }

    /// The duration ECDF (Fig. 7).
    pub fn cdf(&self) -> Ecdf {
        let xs: Vec<f64> = self.series.iter().map(|&(_, d)| d).collect();
        Ecdf::new(&xs).expect("non-empty by construction")
    }

    /// Fraction of attacks shorter than `seconds` (the paper checks the
    /// four-hour point and the sub-minute share that justifies the 60 s
    /// attack-separation rule).
    pub fn fraction_under(&self, seconds: f64) -> f64 {
        let n = self.series.iter().filter(|&&(_, d)| d < seconds).count();
        n as f64 / self.series.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};

    #[test]
    fn statistics_over_known_durations() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 0, 100, 1),
            attack(Family::Dirtjumper, 2, 10, 200, 1),
            attack(Family::Dirtjumper, 3, 20, 600, 2),
        ]);
        let d = DurationAnalysis::compute(&ds).unwrap();
        assert_eq!(d.mean, 300.0);
        assert_eq!(d.median, 200.0);
        assert_eq!(d.series.len(), 3);
        assert!((d.fraction_under(250.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.fraction_under(50.0), 0.0);
        assert_eq!(d.fraction_under(1e9), 1.0);
    }

    #[test]
    fn cdf_matches_series() {
        let ds = dataset(vec![
            attack(Family::Pandora, 1, 0, 50, 1),
            attack(Family::Pandora, 2, 5, 150, 1),
        ]);
        let d = DurationAnalysis::compute(&ds).unwrap();
        let cdf = d.cdf();
        assert_eq!(cdf.eval(50.0), 0.5);
        assert_eq!(cdf.eval(150.0), 1.0);
    }

    #[test]
    fn kernel_statistics_match_reference_for_every_chunking() {
        let series: Vec<(Timestamp, f64)> = [100.0, 200.0, 200.0, 600.0, 50.0, 13_882.0]
            .iter()
            .enumerate()
            .map(|(i, &d)| (Timestamp(i as i64 * 10), d))
            .collect();
        let expect = DurationAnalysis::from_series(series.clone()).unwrap();
        for policy in [
            KernelPolicy::Auto,
            KernelPolicy::Chunked(1),
            KernelPolicy::Chunked(4),
            KernelPolicy::Chunked(100),
        ] {
            let got = DurationAnalysis::from_series_kernel(series.clone(), policy).unwrap();
            assert_eq!(got, expect, "{policy:?}");
        }
        assert!(DurationAnalysis::from_series_kernel(vec![], KernelPolicy::Auto).is_none());
    }

    #[test]
    fn family_filter_and_empty() {
        let ds = dataset(vec![attack(Family::Pandora, 1, 0, 50, 1)]);
        assert!(DurationAnalysis::compute_for(&ds, Family::Nitol).is_none());
        let d = DurationAnalysis::compute_for(&ds, Family::Pandora).unwrap();
        assert_eq!(d.series.len(), 1);
        assert_eq!(d.std_dev, 0.0);
        let empty = dataset(vec![]);
        assert!(DurationAnalysis::compute(&empty).is_none());
    }
}
