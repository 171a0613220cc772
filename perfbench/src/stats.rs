//! Order statistics over timing samples.

/// The `q` quantile (0..=1) of `samples`, linearly interpolated between
/// order statistics. `samples` is sorted in place; empty input gives 0.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples per window: a p99 with ten samples beyond it, and short enough
/// (about 0.4 s of `lib-small`) that a run holds fifty or more.
pub const WINDOW: usize = 1000;

/// The share of a run's windows, and of its set-up passes, that its
/// figures come from: the quietest tenth. On a shared host other tenants'
/// load comes and goes within seconds and can double an op's time or its
/// tail, so the tenth percentile over windows of each time (and the
/// ninetieth of each rate) follows the program in the run's quieter
/// stretches rather than how much of the run other tenants happened to
/// load. A change that slows every op, or the tail of every window, still
/// moves it.
pub const QUIET: f64 = 0.1;

/// The `QUIET` quantile of `samples` (sorted in place).
pub fn quiet(samples: &mut [f64]) -> f64 {
    quantile(samples, QUIET)
}

/// What one window of consecutive ops measured.
#[derive(Debug, Clone, Copy)]
struct Summary {
    p50: f64,
    tail: f64,
    rate_per_s: f64,
    floor_ratio: f64,
}

/// Op times (with the floor's time for the same op, if any) summarized
/// window by window in the order they were taken, so that a burst of
/// other tenants' load on a shared host moves some windows rather than
/// the whole run. The sample buffers hold one window and are allocated
/// once, so the benchmark's own memory, and with it `peak_rss_mib`, does
/// not grow with the number of ops a faster commit completes.
#[derive(Debug)]
pub struct Windows {
    /// The quantile reported as the tail latency.
    tail: f64,
    op_us: Vec<f64>,
    floor_us: Vec<f64>,
    done: Vec<Summary>,
    samples: usize,
}

/// A run's figures: each the `QUIET` quantile over windows of that
/// window's figure (for the rate, the `1 - QUIET` quantile).
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    pub p50: f64,
    /// The `tail_quantile` of op times.
    pub tail: f64,
    pub tail_quantile: f64,
    /// Ops per second of op time.
    pub rate_per_s: f64,
    /// Op median over floor median (NaN without floor samples).
    pub floor_ratio: f64,
    pub samples: usize,
    pub windows: usize,
}

impl Windows {
    pub fn new(tail: f64) -> Self {
        Self {
            tail,
            op_us: Vec::with_capacity(WINDOW),
            floor_us: Vec::with_capacity(WINDOW),
            done: Vec::new(),
            samples: 0,
        }
    }

    /// Add one op's time, and the floor's time for the same op (NaN for
    /// none).
    pub fn push(&mut self, op_us: f64, floor_us: f64) {
        self.op_us.push(op_us);
        self.floor_us.push(floor_us);
        self.samples += 1;
        if self.op_us.len() == WINDOW {
            self.close();
        }
    }

    pub fn len(&self) -> usize {
        self.samples
    }

    fn close(&mut self) {
        let rate_per_s = self.op_us.len() as f64 / (self.op_us.iter().sum::<f64>() / 1e6);
        let p50 = median(&mut self.op_us);
        self.done.push(Summary {
            p50,
            tail: quantile(&mut self.op_us, self.tail),
            rate_per_s,
            floor_ratio: p50 / median(&mut self.floor_us),
        });
        self.op_us.clear();
        self.floor_us.clear();
    }

    /// The run's figures. A last, partial window counts when it is the
    /// only one or holds at least half a window.
    pub fn finish(mut self) -> Figures {
        if !self.op_us.is_empty() && (self.done.is_empty() || 2 * self.op_us.len() >= WINDOW) {
            self.close();
        }
        let over = |f: fn(&Summary) -> f64, q: f64| {
            quantile(&mut self.done.iter().map(f).collect::<Vec<_>>(), q)
        };
        Figures {
            p50: over(|s| s.p50, QUIET),
            tail: over(|s| s.tail, QUIET),
            tail_quantile: self.tail,
            rate_per_s: over(|s| s.rate_per_s, 1.0 - QUIET),
            floor_ratio: over(|s| s.floor_ratio, QUIET),
            samples: self.samples,
            windows: self.done.len(),
        }
    }
}

/// Microseconds in a duration.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reset this process's `VmHWM` to its current RSS (Linux 4.0 and
/// later); returns whether the kernel took the request.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn windows_summarize_in_order() {
        // Ten windows: nine at 20 us, one (the quietest) at 10 us, and a
        // last, partial one at 40 us that counts.
        let mut w = Windows::new(0.9);
        for i in 0..WINDOW * 10 + WINDOW / 2 {
            let t = match i / WINDOW {
                3 => 10.0,
                10 => 40.0,
                _ => 20.0,
            };
            w.push(t, 5.0);
        }
        let m = w.finish();
        assert_eq!((m.samples, m.windows), (WINDOW * 10 + WINDOW / 2, 11));
        assert_eq!((m.p50, m.tail, m.floor_ratio), (20.0, 20.0, 4.0));
        assert_eq!(m.rate_per_s, 1e6 / 20.0);
        // With fewer windows the quietest one sets the figures.
        let mut w = Windows::new(0.9);
        for i in 0..WINDOW * 2 {
            w.push(if i < WINDOW { 10.0 } else { 20.0 }, 5.0);
        }
        let m = w.finish();
        assert!((m.p50 - 11.0).abs() < 1e-9 && (m.rate_per_s - 95_000.0).abs() < 1e-6);

        let mut few = Windows::new(0.5);
        for t in [3.0, 1.0, 2.0] {
            few.push(t, f64::NAN);
        }
        let m = few.finish();
        assert_eq!((m.p50, m.windows), (2.0, 1));
        assert!(m.floor_ratio.is_nan());
    }
}
