//! Sample statistics and process measurements.

/// A named per-layer or end-to-end figure: value, unit and the number of
/// samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// The unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// A short note for the human-readable table (statistic, backend, …).
    pub note: String,
}

impl Metric {
    /// A metric with an empty note.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    /// Attach a note for the table.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The median of `samples` (the mean of the two middle ones for an even
/// count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest whole percentile with at least ten samples above it, and the
/// nearest-rank value there; `None` below forty samples, where such a
/// percentile would be no tail.
pub fn tail(samples: &[f64]) -> Option<(usize, f64)> {
    let n = samples.len();
    if n < 40 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let percentile = 100 * (n - 10) / n;
    let rank = (percentile * n).div_ceil(100).max(1);
    Some((percentile, sorted[rank - 1]))
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above_it() {
        assert_eq!(tail(&vec![1.0; 39]), None);
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        // 100·30/40 = 75th percentile, nearest rank 30: ten samples above.
        assert_eq!(tail(&samples), Some((75, 30.0)));
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v) = tail(&samples).unwrap();
        assert_eq!(p, 99);
        assert_eq!(v, 990.0);
    }
}
