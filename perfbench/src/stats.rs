//! Order statistics and the windowed summary every served workload reports.

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Retirements of one measured phase: when each finished (ns since the
/// phase started) and its submit-to-retire latency.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub finish_ns: Vec<u64>,
    pub lat_ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, finish_ns: u64, lat_ns: u64) {
        self.finish_ns.push(finish_ns);
        self.lat_ns.push(lat_ns);
    }

    pub fn extend(&mut self, o: &Samples) {
        self.finish_ns.extend_from_slice(&o.finish_ns);
        self.lat_ns.extend_from_slice(&o.lat_ns);
    }

    /// One window covering every sample, over `wall_ns` of wall time.
    pub fn whole(&self, wall_ns: u64) -> Window {
        let mut lat: Vec<f64> = self.lat_ns.iter().map(|&l| l as f64).collect();
        lat.sort_by(f64::total_cmp);
        Window {
            txn_per_s: ratio(lat.len() as f64, wall_ns as f64 / 1e9),
            p50_us: quantile(&lat, 0.50) / 1e3,
            p99_us: quantile(&lat, 0.99) / 1e3,
            samples: lat.len(),
        }
    }

    /// Split `[0, phase_ns)` into `windows` equal windows. Retirements
    /// after the phase ended (the drain) fall in no window.
    pub fn windows(&self, phase_ns: u64, windows: usize) -> Vec<Window> {
        let windows = windows.max(1);
        let width = (phase_ns / windows as u64).max(1);
        let mut per: Vec<Samples> = vec![Samples::default(); windows];
        for (&f, &l) in self.finish_ns.iter().zip(&self.lat_ns) {
            if let Some(w) = per.get_mut((f / width) as usize) {
                w.push(f, l);
            }
        }
        per.iter().map(|w| w.whole(width)).collect()
    }

    /// p50 of the latencies in microseconds over every sample.
    pub fn p50_us(&self) -> f64 {
        self.whole(1).p50_us
    }
}

/// Throughput and latency percentiles of one window or round.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub txn_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
}

/// Where in the ranking of a run's windows (or rounds) its figures are
/// read: throughput at this quantile, latencies at `1 - FAST_Q`, so the
/// figures are those of the fastest hundredth. Interference from other
/// tenants of a shared host only ever slows a window down, and the
/// host's speed changes over seconds and minutes; the median window
/// follows those changes from run to run, while the fastest windows
/// track the program's own speed (see `STEADINESS.md`).
pub const FAST_Q: f64 = 0.99;

/// Throughput and latency percentiles of a run, read from its fastest
/// windows (see [`FAST_Q`]).
#[derive(Debug, Clone)]
pub struct Summary {
    pub txn_per_s: f64,
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    pub windows: Vec<Window>,
}

impl Summary {
    pub fn of(windows: Vec<Window>) -> Summary {
        let col = |f: fn(&Window) -> f64, q: f64| {
            let mut v: Vec<f64> = windows.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            quantile(&v, q)
        };
        Summary {
            txn_per_s: col(|w| w.txn_per_s, FAST_Q),
            lat_p50_us: col(|w| w.p50_us, 1.0 - FAST_Q),
            lat_p99_us: col(|w| w.p99_us, 1.0 - FAST_Q),
            windows,
        }
    }

    /// Samples behind the percentiles, over all windows.
    pub fn samples(&self) -> usize {
        self.windows.iter().map(|w| w.samples).sum()
    }

    /// Fewest samples in one window: each window's p99 has a hundredth
    /// of it beyond it.
    pub fn min_window_samples(&self) -> usize {
        self.windows.iter().map(|w| w.samples).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn windows_drop_the_drain() {
        let mut s = Samples::default();
        for i in 0..100u64 {
            s.push(i * 10, 1000 + i);
        }
        // Phase is 500 ns: only the first 50 retirements count.
        let w = s.windows(500, 5);
        assert_eq!(w.iter().map(|w| w.samples).sum::<usize>(), 50);
        let sum = Summary::of(w);
        assert_eq!(sum.min_window_samples(), 10);
        assert!((sum.txn_per_s - 10.0 / 100e-9).abs() < 1.0);
        assert_eq!(s.whole(1_000).samples, 100);
    }

    #[test]
    fn summary_reads_the_fastest_windows() {
        let w = |txn_per_s: f64, p50_us: f64| Window {
            txn_per_s,
            p50_us,
            p99_us: 3.0 * p50_us,
            samples: 1,
        };
        // Of 101 windows, the 0.99 quantile is the second fastest, in
        // throughput and in latency alike.
        let sum = Summary::of(
            (0..=100)
                .map(|i| w(100.0 + i as f64, 200.0 - i as f64))
                .collect(),
        );
        assert!((sum.txn_per_s - 199.0).abs() < 1e-9);
        assert!((sum.lat_p50_us - 101.0).abs() < 1e-9);
        assert!((sum.lat_p99_us - 303.0).abs() < 1e-9);
    }
}
