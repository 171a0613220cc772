//! `sim-paper`: the five Table-I versions at N = 2^16 on the 156-thread-
//! unit Cyclops-64 model, checked against golden results; and the
//! simulator probe every traced run makes over its own job mix.

use crate::host::check_floors;
use crate::mix::{Buffers, Case, Floors, Job};
use crate::report::{Layers, Report};
use crate::stats::{median, quiet, us, Windows};
use crate::trace::Tracer;
use crate::Ctx;
use c64sim::{ChipConfig, SimOptions, SimReport};
use fgfft::{
    run_sim_kind, run_sim_spec, FftPlan, FftWorkload, KindSim, ScheduleSpec, SeedOrder,
    TransformKind, TwiddleLayout, Version,
};
use std::time::{Duration, Instant};

/// The paper's transform size for this workload.
const N_LOG2: u32 = 16;
const THREAD_UNITS: usize = 156;
/// The bank-trace window `fig8_perf_vs_size` uses below N = 2^19.
const TRACE_WINDOW: u64 = 30_000;
/// The quantile reported as `latency_p99_us`: a run has 90–170 ops, too
/// few for a p99 (the p90 has about ten samples beyond it). Fixed, so that
/// every commit is measured at the same quantile.
const TAIL: f64 = 0.90;

/// Exact results of one Table-I version at N = 2^16, captured from the
/// commit that defined this benchmark.
struct Golden {
    version: Version,
    makespan_cycles: u64,
    bank_accesses: [u64; 4],
    /// The `results/fig8_perf_vs_size.json` series this version is,
    /// for the versions fig8 runs with a plain `run_sim`.
    fig8_series: Option<&'static str>,
}

const GOLDEN: [Golden; 5] = [
    Golden {
        version: Version::Coarse,
        makespan_cycles: 498601,
        bank_accesses: [243712, 112640, 114688, 112640],
        fig8_series: Some("coarse"),
    },
    Golden {
        version: Version::CoarseHash,
        makespan_cycles: 348598,
        bank_accesses: [153344, 146176, 142080, 142080],
        fig8_series: Some("coarse hash"),
    },
    Golden {
        version: Version::Fine(SeedOrder::Natural),
        makespan_cycles: 524916,
        bank_accesses: [243712, 112640, 114688, 112640],
        fig8_series: None,
    },
    Golden {
        version: Version::FineHash(SeedOrder::Natural),
        makespan_cycles: 377372,
        bank_accesses: [153344, 146176, 142080, 142080],
        fig8_series: None,
    },
    Golden {
        version: Version::FineGuided,
        makespan_cycles: 505263,
        bank_accesses: [243712, 112640, 114688, 112640],
        fig8_series: Some("fine guided"),
    },
];

/// One simulator run: a Table-I schedule of a complex transform, or a
/// composite kind (lowered with its coarse phases).
#[derive(Debug, Clone, Copy)]
enum SimItem {
    Spec(FftPlan, Version),
    Kind(TransformKind, u32),
}

impl SimItem {
    /// The library-default way to simulate a job of another workload.
    fn for_job(job: Job) -> Self {
        let n_log2 = job.n().trailing_zeros();
        match job {
            Job::C2c(_) => SimItem::Spec(FftPlan::new(n_log2, 6), Version::FineGuided),
            other => SimItem::Kind(other.kind(), n_log2),
        }
    }

    fn run(self, chip: &ChipConfig, opts: &SimOptions) -> SimReport {
        match self {
            SimItem::Spec(plan, version) => {
                let spec = ScheduleSpec::of(plan, version);
                run_sim_spec(plan, version.layout(), &spec, chip, opts)
            }
            SimItem::Kind(kind, n_log2) => {
                run_sim_kind(kind, n_log2, 6, TwiddleLayout::Linear, chip, opts)
            }
        }
    }

    /// As [`SimItem::run`], with spans around the lowering
    /// (`fgfft.simwork.lower`, timed on its own as the simulator entry
    /// points lower internally) and the simulator entry point.
    fn run_traced(
        self,
        chip: &ChipConfig,
        opts: &SimOptions,
        tracer: &mut Tracer,
        op: u64,
        parent: Option<usize>,
    ) -> SimReport {
        match self {
            SimItem::Spec(plan, version) => {
                tracer.time("fgfft.simwork.lower", op, parent, || {
                    FftWorkload::new(plan, version.layout(), chip)
                });
                let spec = tracer.time("fgfft.simwork.schedule", op, parent, || {
                    ScheduleSpec::of(plan, version)
                });
                tracer.time("c64sim.run_sim", op, parent, || {
                    run_sim_spec(plan, version.layout(), &spec, chip, opts)
                })
            }
            SimItem::Kind(kind, n_log2) => {
                tracer.time("fgfft.simwork.lower", op, parent, || {
                    KindSim::new(kind, n_log2, 6, TwiddleLayout::Linear, chip)
                });
                tracer.time("c64sim.run_sim", op, parent, || {
                    run_sim_kind(kind, n_log2, 6, TwiddleLayout::Linear, chip, opts)
                })
            }
        }
    }
}

fn chip() -> ChipConfig {
    ChipConfig::cyclops64().with_thread_units(THREAD_UNITS)
}

fn options() -> SimOptions {
    SimOptions {
        trace_window: TRACE_WINDOW,
    }
}

fn paper_items() -> Vec<SimItem> {
    let plan = FftPlan::new(N_LOG2, 6);
    GOLDEN
        .iter()
        .map(|g| SimItem::Spec(plan, g.version))
        .collect()
}

/// The fig8 GFLOPS at N = 2^16 of `series`, from the committed results.
fn fig8_gflops(doc: &fgsupport::json::Value, series: &str) -> Option<f64> {
    let fgsupport::json::Value::Arr(all) = doc.get("series")? else {
        return None;
    };
    let s = all
        .iter()
        .find(|s| s.get("label").and_then(|l| l.as_str()) == Some(series))?;
    let (fgsupport::json::Value::Arr(x), fgsupport::json::Value::Arr(y)) =
        (s.get("x")?, s.get("y")?)
    else {
        return None;
    };
    let at = x.iter().position(|v| v.as_f64() == Some(N_LOG2 as f64))?;
    y.get(at)?.as_f64()
}

/// One set-up pass: load the golden results; appends the seconds taken.
fn set_up(times: &mut Vec<f64>) -> Option<Vec<Option<f64>>> {
    let start = Instant::now();
    let fig8 = load_fig8();
    times.push(start.elapsed().as_secs_f64());
    fig8
}

/// Load the golden GFLOPS of the plain-`run_sim` versions from
/// `results/fig8_perf_vs_size.json`, in `GOLDEN` order.
fn load_fig8() -> Option<Vec<Option<f64>>> {
    let path = crate::repo_root().join("results/fig8_perf_vs_size.json");
    let doc = fgsupport::json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    GOLDEN
        .iter()
        .map(|g| match g.fig8_series {
            Some(series) => fig8_gflops(&doc, series).map(Some),
            None => Some(None),
        })
        .collect()
}

/// Whether one cycle over the five versions reproduced the golden
/// results exactly.
fn matches_golden(reports: &[SimReport], fig8: &[Option<f64>]) -> bool {
    reports.len() == GOLDEN.len()
        && reports
            .iter()
            .zip(&GOLDEN)
            .zip(fig8)
            .all(|((r, g), gflops)| {
                r.makespan_cycles == g.makespan_cycles
                    && r.bank_accesses[..] == g.bank_accesses[..]
                    && gflops.is_none_or(|want| r.gflops == want)
            })
}

/// `sim-paper` end to end, or traced.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let job = Job::C2c(1 << N_LOG2);
    let cases = Case::generate(&[job], 1, ctx.seed);
    let floors = Floors::for_jobs(&[job]);
    report.invariant(
        check_floors(&floors, &cases) == 0,
        "floors match the reference",
    );
    let mut bufs = Buffers::for_job(job);
    report.mark_baseline();
    let mut setup_s = Vec::new();
    let fig8 = set_up(&mut setup_s);
    report.invariant(fig8.is_some(), "fig8 golden GFLOPS load");
    let fig8 = fig8.unwrap_or_else(|| vec![None; GOLDEN.len()]);
    let (chip, opts, items) = (chip(), options(), paper_items());

    let op = |items: &[SimItem]| -> Vec<SimReport> {
        items.iter().map(|item| item.run(&chip, &opts)).collect()
    };
    // The same five transforms computed by the radix-2 floor.
    let mut floor_op = || {
        let start = Instant::now();
        for _ in 0..items.len() {
            bufs.load(&cases[0][0]);
            floors.run(&floors.radix2, &cases[0][0], &mut bufs);
        }
        us(start.elapsed())
    };

    if ctx.trace {
        let mut tracer = Tracer::new(ctx.origin);
        let mut layers = Layers::default();
        let end = Instant::now() + ctx.share(0.4);
        let mut untraced = Vec::new();
        let mut last = Vec::new();
        let mut i = 0u64;
        while Instant::now() < end || i < 2 {
            // Alternate which of the pair runs first.
            for traced in [i.is_multiple_of(2), !i.is_multiple_of(2)] {
                let reports = if traced {
                    let parent = tracer.open("op", i, None);
                    let reports: Vec<SimReport> = items
                        .iter()
                        .map(|item| item.run_traced(&chip, &opts, &mut tracer, i, Some(parent)))
                        .collect();
                    tracer.close(parent);
                    reports
                } else {
                    let start = Instant::now();
                    let reports = op(&items);
                    untraced.push(us(start.elapsed()));
                    reports
                };
                report.attempt(matches_golden(&reports, &fig8));
                last = reports;
            }
            i += 1;
        }
        let p50 = median(&mut untraced);
        let sim = summarize(&tracer, &mut layers, &last);
        layers.set("trace.op_p50_us", p50);
        layers.set(
            "trace.overhead_us",
            median(&mut tracer.per_op_us("op")) - p50,
        );
        layers.set("closure_ratio", sim / p50);
        // `sim-paper` bypasses the host and serving layers; its traced run
        // probes them on the large transforms: the paper's N, and a 2D
        // plane of the same size.
        let large = [
            job,
            Job::C2c2d {
                rows: 256,
                cols: 256,
            },
        ];
        crate::host::probe(
            &large,
            ctx.seed,
            ctx.share(0.25),
            &mut tracer,
            &mut layers,
            &mut report,
        );
        crate::serve::probe(
            ctx,
            &crate::serve::Load::large(&large),
            ctx.share(0.25),
            &mut tracer,
            &mut layers,
            &mut report,
        );
        return report.finish_trace(ctx, &tracer, layers);
    }

    let end = Instant::now() + ctx.duration();
    let mut windows = Windows::new(TAIL);
    while Instant::now() < end || windows.len() < 2 {
        let start = Instant::now();
        let reports = op(&items);
        let op_us = us(start.elapsed());
        report.attempt(matches_golden(&reports, &fig8));
        windows.push(op_us, floor_op());
        // Set up again after every op, so that `setup_s` samples the host
        // over the whole run as the op figures do.
        let again = set_up(&mut setup_s);
        report.invariant(again.as_ref() == Some(&fig8), "fig8 golden GFLOPS load");
    }
    report.closed_loop(&windows.finish(), quiet(&mut setup_s));
    report
}

/// Set the lowering and simulation medians per op and the simulator's
/// exact counts for one op (`reports`; they repeat on every op); returns
/// lowering plus simulation, µs.
fn summarize(tracer: &Tracer, layers: &mut Layers, reports: &[SimReport]) -> f64 {
    let med = |name: &str| median(&mut tracer.per_op_us(name));
    let lower = med("fgfft.simwork.lower") + med("fgfft.simwork.schedule");
    // The simulator entry points lower internally: subtract that part.
    let simulate = med("c64sim.run_sim") - med("fgfft.simwork.lower");
    let accesses = reports
        .iter()
        .flat_map(|r| r.bank_accesses.iter())
        .sum::<u64>() as f64;
    let tasks = reports.iter().map(|r| r.tasks).sum::<u64>() as f64;
    layers.set(
        "c64sim.makespan_cycles",
        reports.iter().map(|r| r.makespan_cycles).sum::<u64>() as f64,
    );
    layers.set("c64sim.bank_accesses", accesses);
    layers.set("fgfft.simwork.lower_ms", lower / 1e3);
    layers.set("c64sim.simulate_ms", simulate / 1e3);
    layers.set("c64sim.accesses_per_s", accesses / (simulate / 1e6));
    layers.set("c64sim.tasks_per_s", tasks / (simulate / 1e6));
    lower + simulate
}

/// The simulator probe over another workload's jobs, for about `share`
/// (at least two passes).
pub fn probe(
    jobs: &[Job],
    share: Duration,
    tracer: &mut Tracer,
    layers: &mut Layers,
    report: &mut Report,
) {
    let (chip, opts) = (chip(), options());
    let items: Vec<SimItem> = jobs.iter().map(|&j| SimItem::for_job(j)).collect();
    let end = Instant::now() + share;
    let mut op = 0u64;
    let mut first: Option<Vec<SimReport>> = None;
    let mut last = Vec::new();
    while Instant::now() < end || op < 2 {
        let parent = tracer.open("sim", op, None);
        let reports: Vec<SimReport> = items
            .iter()
            .map(|item| item.run_traced(&chip, &opts, tracer, op, Some(parent)))
            .collect();
        tracer.close(parent);
        // The simulator is deterministic: every repetition must agree.
        let first = first.get_or_insert_with(|| reports.clone());
        let same = first.iter().zip(&reports).all(|(a, b)| {
            a.makespan_cycles == b.makespan_cycles && a.bank_accesses == b.bank_accesses
        });
        report.invariant(same, "simulator repeats exactly");
        last = reports;
        op += 1;
    }
    summarize(tracer, layers, &last);
}
