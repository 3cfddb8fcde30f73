//! Order statistics and process memory.

/// A sorted sample of one timing.
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, `p` in `(0, 1]`; `NaN` when empty.
    pub fn pct(&self, p: f64) -> f64 {
        match self.rank(p) {
            Some(i) => self.sorted[i],
            None => f64::NAN,
        }
    }

    /// Samples strictly above the `p` rank.
    pub fn beyond(&self, p: f64) -> usize {
        self.rank(p).map_or(0, |i| self.sorted.len() - 1 - i)
    }

    fn rank(&self, p: f64) -> Option<usize> {
        let n = self.sorted.len();
        (n > 0).then(|| ((p * n as f64).ceil() as usize).clamp(1, n) - 1)
    }

    /// `p50=… p90=… p99=… (n=…, k beyond p99)` for the human-readable
    /// report.
    pub fn describe(&self) -> String {
        format!(
            "n={} p50={:.3} p90={:.3} ({} beyond) p99={:.3} ({} beyond){}",
            self.len(),
            self.pct(0.5),
            self.pct(0.9),
            self.beyond(0.9),
            self.pct(0.99),
            self.beyond(0.99),
            if self.beyond(0.99) < 10 {
                " [fewer than 10 samples beyond p99: it reads close to the maximum]"
            } else {
                ""
            }
        )
    }
}

/// Windows a run's samples are split into for [`windowed`], unless the
/// workload's stream has a period of its own.
pub const WINDOWS: usize = 10;

/// The `p` percentile of `(completion, value)` samples, computed in each
/// complete window of `window` consecutive samples (completion order) and
/// reported as the median over the windows: a burst of host noise that
/// spoils one window moves it little. A trailing partial window is left
/// out; with no complete window, all samples form one.
pub fn windowed(samples: &[(std::time::Instant, f64)], p: f64, window: usize) -> f64 {
    let mut ordered = samples.to_vec();
    ordered.sort_by_key(|&(at, _)| at);
    let window = window.clamp(1, ordered.len().max(1));
    let per_window: Vec<f64> = ordered
        .chunks_exact(window)
        .map(|chunk| Sample::new(chunk.iter().map(|&(_, v)| v).collect()).pct(p))
        .collect();
    median(&per_window)
}

/// Median of a small set of repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    let sorted = Sample::new(values.to_vec()).sorted;
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
