//! Metric catalogue, result accounting and output.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics on an
//! untraced run, the per-layer metrics on a traced one. The lines before
//! it are for people.

use crate::stats::{peak_rss_mib, reset_peak_rss, Figures};
use crate::trace::Tracer;
use crate::Ctx;
use std::collections::BTreeMap;

/// End-to-end metrics, in output order, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("throughput_per_s", "1/s"),
    ("floor_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The end-to-end metric only `serve-wire` has: its closed-loop capacity
/// phase. (On a single closed-loop caller it would repeat
/// `throughput_per_s`.)
pub const CAPACITY: (&str, &str) = ("capacity_per_s", "1/s");

/// Per-layer metrics, in output order, with their units.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("fgfft.planner.build_ms", "ms"),
    ("fgfft.planner.lookup_us", "us"),
    ("fgfft.plan.resident_mib", "MiB"),
    ("fgfft.bitrev_us", "us"),
    ("codelet.dispatch_us", "us"),
    ("codelet.empty_pop_ratio", "ratio"),
    ("codelet.imbalance_cv", "ratio"),
    ("fgfft.exec.fixed_us", "us"),
    ("fgfft.exec.per_buffer_us", "us"),
    ("fgfft.exec.gflops", "GFLOP/s"),
    ("fgfft.backend.scalar.w1_us", "us"),
    ("fgfft.backend.scalar.w2_us", "us"),
    ("fgfft.backend.simd.w1_us", "us"),
    ("fgfft.backend.simd.w2_us", "us"),
    ("fgfft.backend.threaded-simd.w1_us", "us"),
    ("fgfft.backend.threaded-simd.w2_us", "us"),
    ("fgfft.backend.prepare_us", "us"),
    ("floor.radix2_us", "us"),
    ("floor.stockham_us", "us"),
    ("closure_ratio", "ratio"),
    ("trace.op_p50_us", "us"),
    ("trace.overhead_us", "us"),
    ("fgwire.connect_ms", "ms"),
    ("fgwire.alloc_us", "us"),
    ("fgwire.submit_us", "us"),
    ("fgwire.overhead_us", "us"),
    ("fgwire.credit_stalls", "count"),
    ("fgserve.server_p50_us", "us"),
    ("fgserve.server_p99_us", "us"),
    ("fgserve.mean_batch_size", "count"),
    ("fgserve.queue_high_water", "count"),
    ("fgserve.planner_hit_rate", "ratio"),
    ("fgserve.deadline_missed", "count"),
    ("fgserve.rejected", "count"),
    ("fgserve.throttled", "count"),
    ("fgserve.wire_rejections", "count"),
    ("fgserve.cold_deferred", "count"),
    ("fgserve.interactive_p99_us", "us"),
    ("fgserve.bulk_p99_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("fgfft.simwork.lower_ms", "ms"),
    ("c64sim.simulate_ms", "ms"),
    ("c64sim.accesses_per_s", "1/s"),
    ("c64sim.tasks_per_s", "1/s"),
    ("c64sim.makespan_cycles", "cycles"),
    ("c64sim.bank_accesses", "count"),
];

/// Per-layer values of one traced run, by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Set `<span>_us`.
    pub fn set_us(&mut self, span: &str, value: f64) {
        self.0.insert(format!("{span}_us"), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// What one run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    broken: Vec<&'static str>,
    metrics: Vec<(String, f64)>,
    lines: Vec<String>,
    /// `VmHWM` before the program's set-up, MiB.
    baseline_mib: Option<f64>,
}

impl Report {
    /// Count one op; `ok` is whether its output checked out.
    pub fn attempt(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record a run-level condition (settlement, golden files, floors).
    pub fn invariant(&mut self, ok: bool, what: &'static str) {
        if !ok && !self.broken.contains(&what) {
            self.broken.push(what);
        }
    }

    /// Call just before the program is set up: resets the high-water mark
    /// to the current RSS, so that `peak_rss_mib` leaves out what the
    /// benchmark's own checks allocated and freed before (the reference
    /// transforms the floors are checked against), and records that RSS:
    /// `peak_rss_mib` minus it is the program's share.
    pub fn mark_baseline(&mut self) {
        if self.baseline_mib.is_none() {
            if !reset_peak_rss() {
                self.line("peak RSS not reset before set-up: it includes the checks".into());
            }
            self.baseline_mib = Some(peak_rss_mib());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// The latency percentiles: the quiet-window p50 and tail quantile
    /// (see [`crate::stats::QUIET`]); the quantile is printed when it is
    /// not the p99.
    pub fn e2e_latency(&mut self, m: &Figures) {
        self.metric("latency_p50_us", m.p50);
        self.metric("latency_p99_us", m.tail);
        if m.tail_quantile != 0.99 {
            self.line(format!(
                "latency_p99_us is the p{} on this workload",
                m.tail_quantile * 100.0
            ));
        }
        self.line(format!(
            "latency samples {} in {} windows",
            m.samples, m.windows
        ));
    }

    /// The end-to-end metrics of a single closed-loop caller whose op
    /// times were paired with the floor's times for the same ops.
    pub fn closed_loop(&mut self, m: &Figures, setup_s: f64) {
        self.e2e_latency(m);
        self.metric("throughput_per_s", m.rate_per_s);
        self.metric("floor_ratio", m.floor_ratio);
        self.metric("setup_s", setup_s);
    }

    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Write the spans, print the closure table, and make the per-layer
    /// values this run's metrics.
    pub fn finish_trace(mut self, ctx: &Ctx, tracer: &Tracer, layers: Layers) -> Report {
        // One file per workload, overwritten by each traced run, so that a
        // series of runs keeps one trace each rather than one per seed.
        let path = crate::out_dir().join(format!("trace-{}.json", ctx.workload));
        match tracer.write_json(&path) {
            Ok(()) => self.line(format!(
                "spans: {} written to {}",
                tracer.len(),
                path.display()
            )),
            Err(e) => {
                self.line(format!("cannot write {}: {e}", path.display()));
                self.invariant(false, "trace file written");
            }
        }
        let e2e = layers.get("trace.op_p50_us");
        self.line(format!(
            "closure table: {} (per-op medians; e2e median {e2e:.2} us)",
            ctx.workload
        ));
        for (name, unit) in PER_LAYER {
            let value = layers.get(name);
            let share = if unit == "us" && name != "trace.op_p50_us" {
                format!("{:>7.1}%", 100.0 * value / e2e)
            } else {
                String::new()
            };
            self.line(format!("  {name:<36} {value:>14.3} {unit:<8}{share}"));
        }
        for (name, _) in PER_LAYER {
            self.metric(name, layers.get(name));
        }
        self
    }

    /// Print the human lines and the result line; returns whether the
    /// metric set matched the catalogue.
    pub fn print(mut self, ctx: &Ctx) -> bool {
        let catalogue: Vec<(&str, &str)> = if ctx.trace {
            PER_LAYER.to_vec()
        } else {
            let peak = peak_rss_mib();
            self.metric("peak_rss_mib", peak);
            if let Some(base) = self.baseline_mib {
                self.line(format!(
                    "peak_rss_mib {peak:.2}: {base:.2} before the program's set-up, {:.2} after",
                    peak - base
                ));
            }
            let serve = (ctx.workload == "serve-wire").then_some(CAPACITY);
            END_TO_END.iter().copied().chain(serve).collect()
        };
        let names: Vec<&str> = self.metrics.iter().map(|(n, _)| n.as_str()).collect();
        let mut want: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
        let mut have = names.clone();
        want.sort_unstable();
        have.sort_unstable();
        if want != have {
            eprintln!("perfbench: metric set mismatch: have {names:?}");
            return false;
        }
        for line in &self.lines {
            println!("{line}");
        }
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_ratio {fail_ratio} ({} of {} ops failed)",
            self.failed, self.attempted
        );
        for what in &self.broken {
            println!("invariant broken: {what}");
        }
        let unit = |name: &str| {
            catalogue
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| *u)
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                println!("{name} {value} {}", unit(name));
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(*value),
                    unit(name)
                )
            })
            .collect();
        let correct = self.failed == 0 && self.broken.is_empty() && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        true
    }
}

/// A JSON number with every digit Rust prints; non-finite values (which
/// JSON cannot hold) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
