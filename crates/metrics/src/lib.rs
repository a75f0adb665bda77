//! # metrics
//!
//! Performance metrics for hybrid-workload analysis (paper §IV-D):
//!
//! * [`LatencyRecorder`] — per-rank message-latency min/avg/max, plus
//!   whole-app distributions summarized as [`Boxplot`]s (Fig 7);
//! * [`CommTimer`] — per-rank communication time: the portion of runtime
//!   spent in blocking sends/receives/waits/collectives (Fig 9);
//! * [`TimeSeries`] — per-app byte counts on 0.5 ms windows, aggregated
//!   over a set of routers (Fig 8);
//! * [`LinkLoad`] — total and per-link global/local traffic (Table VI).

use serde::{Deserialize, Serialize};

/// Five-number summary plus mean — exactly what each Fig 7 box shows
/// ("minimum, first quartile, median, third quartile, and maximum … the
/// averages are shown in red squares").
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct Boxplot {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub mean: f64,
    pub count: u64,
    /// Samples dropped because they were NaN (`count` excludes them).
    pub nan_count: u64,
}

impl Boxplot {
    /// Summarize a set of samples. Empty input yields an all-zero box.
    /// NaN samples carry no ordering information: they are dropped from
    /// the summary and flagged in [`Boxplot::nan_count`].
    pub fn from_samples(samples: &[f64]) -> Boxplot {
        let mut s: Vec<f64> = samples.iter().copied().filter(|v| !v.is_nan()).collect();
        let nan_count = (samples.len() - s.len()) as u64;
        if s.is_empty() {
            return Boxplot { nan_count, ..Boxplot::default() };
        }
        s.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            // Linear interpolation between closest ranks (type-7 quantile,
            // the numpy default).
            let h = p * (s.len() - 1) as f64;
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            s[lo] + (h - h.floor()) * (s[hi] - s[lo])
        };
        Boxplot {
            min: s[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: *s.last().unwrap(),
            mean: s.iter().sum::<f64>() / s.len() as f64,
            count: s.len() as u64,
            nan_count,
        }
    }
}

/// Per-rank message-latency accounting. Each process records the minimum,
/// average, and maximum latency among all messages it receives.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencyRecorder {
    pub min_ns: u64,
    pub max_ns: u64,
    pub sum_ns: u64,
    pub count: u64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder { min_ns: u64::MAX, max_ns: 0, sum_ns: 0, count: 0 }
    }
}

impl LatencyRecorder {
    #[inline]
    pub fn record(&mut self, latency_ns: u64) {
        self.min_ns = self.min_ns.min(latency_ns);
        self.max_ns = self.max_ns.max(latency_ns);
        self.sum_ns += latency_ns;
        self.count += 1;
    }

    pub fn avg_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Merge another recorder into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        if other.count == 0 {
            return;
        }
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.sum_ns += other.sum_ns;
        self.count += other.count;
    }
}

/// Distributions of per-rank latency statistics for one application: the
/// paper plots the distribution of **maximum** message latency across
/// ranks (Fig 7); we keep min/avg/max distributions.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AppLatencySummary {
    pub max_box: Boxplot,
    pub avg_box: Boxplot,
    pub min_box: Boxplot,
    /// Mean of per-rank averages — the "red square".
    pub overall_avg_ns: f64,
}

impl AppLatencySummary {
    pub fn from_ranks(recs: &[LatencyRecorder]) -> AppLatencySummary {
        let active: Vec<&LatencyRecorder> = recs.iter().filter(|r| r.count > 0).collect();
        if active.is_empty() {
            return AppLatencySummary::default();
        }
        let maxs: Vec<f64> = active.iter().map(|r| r.max_ns as f64).collect();
        let avgs: Vec<f64> = active.iter().map(|r| r.avg_ns()).collect();
        let mins: Vec<f64> = active.iter().map(|r| r.min_ns as f64).collect();
        AppLatencySummary {
            max_box: Boxplot::from_samples(&maxs),
            avg_box: Boxplot::from_samples(&avgs),
            min_box: Boxplot::from_samples(&mins),
            overall_avg_ns: avgs.iter().sum::<f64>() / avgs.len() as f64,
        }
    }
}

/// Per-rank communication-time accounting: accumulates the intervals a
/// rank spends blocked inside MPI operations.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct CommTimer {
    pub total_ns: u64,
    blocked_since: Option<u64>,
}

impl CommTimer {
    /// The rank entered a blocking operation at `now_ns`.
    #[inline]
    pub fn block(&mut self, now_ns: u64) {
        debug_assert!(self.blocked_since.is_none(), "nested blocking");
        self.blocked_since = Some(now_ns);
    }

    /// The blocking operation completed at `now_ns`.
    #[inline]
    pub fn unblock(&mut self, now_ns: u64) {
        if let Some(t0) = self.blocked_since.take() {
            self.total_ns += now_ns.saturating_sub(t0);
        }
    }

    pub fn is_blocked(&self) -> bool {
        self.blocked_since.is_some()
    }
}

/// Per-app byte counts over fixed windows, summed over a set of routers —
/// Fig 8's "sum of messages received by all the routers that serve
/// AlexNet".
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    pub window_ns: u64,
    /// `bytes[window][app]`.
    pub bytes: Vec<Vec<u64>>,
}

/// Rejected [`TimeSeries::accumulate`] input: the counters were binned at
/// a different window size, so summing them would silently mix units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowMismatch {
    pub expected_ns: u64,
    pub got_ns: u64,
}

impl std::fmt::Display for WindowMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "window mismatch: series is binned at {} ns but counters use {} ns",
            self.expected_ns, self.got_ns
        )
    }
}

impl std::error::Error for WindowMismatch {}

impl TimeSeries {
    /// Sum windowed counters (e.g. from several routers) into one series.
    ///
    /// The first call fixes the window size; later calls with a different
    /// `window_ns` are rejected (mixing bin sizes would silently corrupt
    /// the series). Rows may be ragged — each row only needs to cover the
    /// apps that router actually saw; missing columns count as zero.
    pub fn accumulate(
        &mut self,
        window_ns: u64,
        counts: &[Vec<u64>],
    ) -> Result<(), WindowMismatch> {
        if self.window_ns == 0 {
            self.window_ns = window_ns;
        }
        if self.window_ns != window_ns {
            return Err(WindowMismatch { expected_ns: self.window_ns, got_ns: window_ns });
        }
        if self.bytes.len() < counts.len() {
            self.bytes.resize_with(counts.len(), Vec::new);
        }
        for (w, apps) in counts.iter().enumerate() {
            // Size each row independently: routers report only the apps
            // they routed for, so rows legitimately differ in length.
            if self.bytes[w].len() < apps.len() {
                self.bytes[w].resize(apps.len(), 0);
            }
            for (a, &b) in apps.iter().enumerate() {
                self.bytes[w][a] += b;
            }
        }
        Ok(())
    }

    /// Peak bytes per window for one app.
    pub fn peak(&self, app: usize) -> u64 {
        self.bytes.iter().map(|w| w.get(app).copied().unwrap_or(0)).max().unwrap_or(0)
    }

    /// Total bytes over all windows for one app.
    pub fn total(&self, app: usize) -> u64 {
        self.bytes.iter().map(|w| w.get(app).copied().unwrap_or(0)).sum()
    }
}

/// Global/local link load summary (Table VI).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkLoad {
    pub global_bytes: u64,
    pub local_bytes: u64,
    pub terminal_bytes: u64,
    pub n_global_links: u64,
    pub n_local_links: u64,
}

impl LinkLoad {
    /// Average load per global link, bytes.
    pub fn per_global_link(&self) -> f64 {
        if self.n_global_links == 0 {
            0.0
        } else {
            self.global_bytes as f64 / self.n_global_links as f64
        }
    }

    /// Average load per local link, bytes.
    pub fn per_local_link(&self) -> f64 {
        if self.n_local_links == 0 {
            0.0
        } else {
            self.local_bytes as f64 / self.n_local_links as f64
        }
    }

    /// Fraction of router-to-router traffic on global links.
    pub fn global_fraction(&self) -> f64 {
        let total = self.global_bytes + self.local_bytes;
        if total == 0 {
            0.0
        } else {
            self.global_bytes as f64 / total as f64
        }
    }
}

/// Pretty-print bytes in the units the paper uses.
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1e12 {
        format!("{:.2} TB", b / 1e12)
    } else if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} KB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxplot_of_known_distribution() {
        let b = Boxplot::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.mean, 3.0);
        assert_eq!(b.count, 5);
    }

    #[test]
    fn boxplot_interpolates_quartiles() {
        let b = Boxplot::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert!((b.q1 - 1.75).abs() < 1e-9);
        assert!((b.median - 2.5).abs() < 1e-9);
        assert!((b.q3 - 3.25).abs() < 1e-9);
    }

    #[test]
    fn boxplot_empty_and_single() {
        assert_eq!(Boxplot::from_samples(&[]), Boxplot::default());
        let b = Boxplot::from_samples(&[7.0]);
        assert_eq!((b.min, b.median, b.max, b.mean), (7.0, 7.0, 7.0, 7.0));
    }

    #[test]
    fn latency_recorder_tracks_min_avg_max() {
        let mut r = LatencyRecorder::default();
        r.record(100);
        r.record(300);
        r.record(200);
        assert_eq!(r.min_ns, 100);
        assert_eq!(r.max_ns, 300);
        assert_eq!(r.avg_ns(), 200.0);
        let mut r2 = LatencyRecorder::default();
        r2.record(50);
        r.merge(&r2);
        assert_eq!(r.min_ns, 50);
        assert_eq!(r.count, 4);
    }

    #[test]
    fn comm_timer_accumulates_blocked_intervals() {
        let mut t = CommTimer::default();
        t.block(100);
        assert!(t.is_blocked());
        t.unblock(250);
        t.block(300);
        t.unblock(350);
        assert_eq!(t.total_ns, 200);
        // Unblock without block is a no-op.
        t.unblock(999);
        assert_eq!(t.total_ns, 200);
    }

    #[test]
    fn time_series_accumulates_across_routers() {
        let mut ts = TimeSeries::default();
        ts.accumulate(500, &[vec![10, 0], vec![5, 1]]).unwrap();
        ts.accumulate(500, &[vec![1, 1]]).unwrap();
        assert_eq!(ts.bytes[0], vec![11, 1]);
        assert_eq!(ts.bytes[1], vec![5, 1]);
        assert_eq!(ts.peak(0), 11);
        assert_eq!(ts.total(0), 16);
        assert_eq!(ts.total(1), 2);
    }

    #[test]
    fn time_series_rejects_mismatched_windows() {
        let mut ts = TimeSeries::default();
        ts.accumulate(500, &[vec![10]]).unwrap();
        // A second source binned at 250 ns must be rejected — in every
        // build profile, not just with debug assertions — and must leave
        // the series untouched.
        let err = ts.accumulate(250, &[vec![7]]).unwrap_err();
        assert_eq!(err, WindowMismatch { expected_ns: 500, got_ns: 250 });
        assert!(err.to_string().contains("500"), "{err}");
        assert_eq!(ts.bytes[0], vec![10]);
        assert_eq!(ts.window_ns, 500);
    }

    #[test]
    fn time_series_handles_ragged_rows() {
        let mut ts = TimeSeries::default();
        // First router reports one app; the second reports three apps and
        // an extra window. Rows must be sized independently (sizing every
        // row from the first one used to leave later columns unallocated).
        ts.accumulate(500, &[vec![1]]).unwrap();
        ts.accumulate(500, &[vec![2, 3, 4], vec![5]]).unwrap();
        assert_eq!(ts.bytes[0], vec![3, 3, 4]);
        assert_eq!(ts.bytes[1], vec![5]);
        // Ragged rows within one call, widest row last.
        let mut ts2 = TimeSeries::default();
        ts2.accumulate(500, &[vec![1], vec![2, 3]]).unwrap();
        assert_eq!(ts2.bytes[0], vec![1]);
        assert_eq!(ts2.bytes[1], vec![2, 3]);
    }

    #[test]
    fn boxplot_ignores_and_flags_nan() {
        // NaNs used to panic inside sort_by(partial_cmp().unwrap()).
        let b = Boxplot::from_samples(&[3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!((b.min, b.median, b.max), (1.0, 2.0, 3.0));
        assert_eq!(b.mean, 2.0);
        assert_eq!(b.count, 3);
        assert_eq!(b.nan_count, 1);
        // All-NaN input degrades to the empty box, with the drop flagged.
        let all = Boxplot::from_samples(&[f64::NAN, f64::NAN]);
        assert_eq!(all.count, 0);
        assert_eq!(all.nan_count, 2);
        assert_eq!((all.min, all.max), (0.0, 0.0));
    }

    #[test]
    fn link_load_averages() {
        let l = LinkLoad {
            global_bytes: 1000,
            local_bytes: 3000,
            terminal_bytes: 0,
            n_global_links: 10,
            n_local_links: 30,
        };
        assert_eq!(l.per_global_link(), 100.0);
        assert_eq!(l.per_local_link(), 100.0);
        assert_eq!(l.global_fraction(), 0.25);
    }

    #[test]
    fn app_latency_summary_skips_idle_ranks() {
        let mut a = LatencyRecorder::default();
        a.record(10);
        let idle = LatencyRecorder::default();
        let s = AppLatencySummary::from_ranks(&[a, idle]);
        assert_eq!(s.max_box.count, 1);
        assert_eq!(s.max_box.max, 10.0);
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(500.0), "500 B");
        assert_eq!(fmt_bytes(1.26e12), "1.26 TB");
        assert_eq!(fmt_bytes(313.23e6), "313.23 MB");
    }
}
