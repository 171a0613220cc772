//! The host library workload (`lib-small`) and the host per-layer probes
//! every traced run makes over its workload's job mix.

use crate::mix::{Buffers, Case, Floors, Job, Stockham};
use crate::report::{Layers, Report};
use crate::stats::{median, quiet, us, Windows, WINDOW};
use crate::trace::Tracer;
use crate::Ctx;
use codelet::graph::{BatchProgram, CodeletId, CsrProgram};
use codelet::pool::PoolDiscipline;
use codelet::runtime::Runtime;
use fgfft::bitrev::apply_swaps_parallel;
use fgfft::rfft::{irfft_with, rfft_with};
use fgfft::{
    Backend, BackendSel, Complex64, ExecStats, Fft, Fft2d, FftPlan, Plan, Planner, ScheduleSpec,
    Version,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seeded inputs per job; ops cycle through them.
const CASES: usize = 4;
/// Untimed ops after each set-up pass.
const WARMUP_OPS: usize = 8;
/// Cold plan builds per job in a traced run.
const BUILD_REPS: usize = 3;
/// Buffers in the large batch of the fixed/per-buffer split.
const BATCH: usize = 8;
/// The quantile reported as `latency_p99_us`.
const TAIL: f64 = 0.99;

/// The engines a lib op calls, as a user would hold them.
struct Engine {
    fft: Fft,
    fft2d: Vec<Option<Fft2d>>,
}

/// What a lib call returned, moved into the case buffers after timing.
enum Produced {
    InPlace,
    Spectrum(Vec<Complex64>),
    Signal(Vec<f64>),
}

impl Engine {
    /// The library defaults: guided fine-grain, all available cores, the
    /// process-wide plan cache.
    fn new(jobs: &[Job]) -> Self {
        Self {
            fft: Fft::new(),
            fft2d: jobs
                .iter()
                .map(|job| match *job {
                    Job::C2c2d { rows, cols } => Some(Fft2d::new(rows, cols)),
                    _ => None,
                })
                .collect(),
        }
    }

    fn call(&self, index: usize, case: &Case, bufs: &mut Buffers) -> Produced {
        match case.job {
            Job::C2c(_) => {
                self.fft.forward(&mut bufs.data);
                Produced::InPlace
            }
            Job::R2c(_) => Produced::Spectrum(rfft_with(&case.real, &self.fft)),
            Job::C2r(_) => Produced::Signal(irfft_with(&case.input, &self.fft)),
            Job::C2c2d { .. } => {
                let engine = self.fft2d[index]
                    .as_ref()
                    .expect("2D engine built for 2D jobs");
                engine.forward(&mut bufs.data);
                Produced::InPlace
            }
        }
    }
}

fn call_span(job: Job) -> &'static str {
    match job {
        Job::C2c(_) => "fgfft.Fft::forward",
        Job::R2c(_) => "fgfft.rfft_with",
        Job::C2r(_) => "fgfft.irfft_with",
        Job::C2c2d { .. } => "fgfft.Fft2d::forward",
    }
}

/// Store outputs and count the jobs whose error exceeds the bound.
fn settle(outputs: Vec<Produced>, cases: &[&Case], bufs: &mut [Buffers]) -> usize {
    let mut bad = 0;
    for ((out, case), buf) in outputs.into_iter().zip(cases).zip(bufs.iter_mut()) {
        match out {
            Produced::InPlace => {}
            Produced::Spectrum(v) => buf.spectrum = v,
            Produced::Signal(v) => buf.signal = v,
        }
        if buf.error(case).partial_cmp(&case.job.tolerance()) != Some(std::cmp::Ordering::Less) {
            bad += 1;
        }
    }
    bad
}

/// The seeded inputs of one op pass: case `set` of every job.
fn op_cases(cases: &[Vec<Case>], set: usize) -> Vec<&Case> {
    cases.iter().map(|c| &c[set % c.len()]).collect()
}

/// One op: every job of the mix through the library, timed as a whole.
/// Returns the op time and the number of jobs whose output was wrong.
fn lib_op(engine: &Engine, cases: &[&Case], bufs: &mut [Buffers]) -> (Duration, usize) {
    for (case, buf) in cases.iter().zip(bufs.iter_mut()) {
        buf.load(case);
    }
    let start = Instant::now();
    let outputs: Vec<Produced> = cases
        .iter()
        .zip(bufs.iter_mut())
        .enumerate()
        .map(|(i, (case, buf))| engine.call(i, case, buf))
        .collect();
    let elapsed = start.elapsed();
    (elapsed, settle(outputs, cases, bufs))
}

/// The same op with a span around the op and each library call; returns
/// the number of wrong outputs.
fn lib_op_traced(
    engine: &Engine,
    cases: &[&Case],
    bufs: &mut [Buffers],
    tracer: &mut Tracer,
    op: u64,
) -> usize {
    for (case, buf) in cases.iter().zip(bufs.iter_mut()) {
        buf.load(case);
    }
    let parent = tracer.open("op", op, None);
    let outputs: Vec<Produced> = cases
        .iter()
        .zip(bufs.iter_mut())
        .enumerate()
        .map(|(i, (case, buf))| {
            tracer.time(call_span(case.job), op, Some(parent), || {
                engine.call(i, case, buf)
            })
        })
        .collect();
    tracer.close(parent);
    settle(outputs, cases, bufs)
}

/// The same op mix through the radix-2 floor.
fn floor_op(floors: &Floors, cases: &[&Case], bufs: &mut [Buffers]) -> Duration {
    for (case, buf) in cases.iter().zip(bufs.iter_mut()) {
        buf.load(case);
    }
    let start = Instant::now();
    for (case, buf) in cases.iter().zip(bufs.iter_mut()) {
        floors.run(&floors.radix2, case, buf);
    }
    start.elapsed()
}

/// Check both floors against the reference on every case; returns the
/// number of wrong floor outputs (a benchmark defect, reported as failed).
pub fn check_floors(floors: &Floors, cases: &[Vec<Case>]) -> u64 {
    let mut bad = 0;
    for case in cases.iter().flatten() {
        for fft in [&floors.radix2 as &dyn crate::mix::ComplexFft, &Stockham] {
            let mut bufs = Buffers::for_job(case.job);
            bufs.load(case);
            floors.run(fft, case, &mut bufs);
            if bufs.error(case).partial_cmp(&case.job.tolerance()) != Some(std::cmp::Ordering::Less)
            {
                bad += 1;
            }
        }
    }
    bad
}

/// One program set-up pass: a cold process-wide plan cache, then the
/// default engines and every plan the op resolves, built through that
/// cache with the engine's keys. Returns the engine and the seconds taken.
fn set_up(jobs: &[Job]) -> (Engine, f64) {
    let start = Instant::now();
    Planner::shared().clear();
    let engine = Engine::new(jobs);
    for job in jobs {
        Planner::shared().plan_key(job.key());
    }
    (engine, start.elapsed().as_secs_f64())
}

/// Untimed ops on a freshly set-up engine; they must be correct and find
/// every plan they use in place.
fn warm_up(
    jobs: &[Job],
    engine: &Engine,
    cases: &[Vec<Case>],
    bufs: &mut [Buffers],
    report: &mut Report,
) {
    for i in 0..WARMUP_OPS {
        let (_, wrong) = lib_op(engine, &op_cases(cases, i), bufs);
        report.invariant(wrong == 0, "warm-up ops are correct");
    }
    report.invariant(
        Planner::shared().len() == jobs.len(),
        "set-up builds the plans the ops use",
    );
}

/// A host library workload: closed loop from one caller thread over the
/// fixed job mix, with the radix-2 floor interleaved op by op.
pub fn run(ctx: &Ctx, jobs: &[Job]) -> Report {
    let cases = Case::generate(jobs, CASES, ctx.seed);
    let floors = Floors::for_jobs(jobs);
    let mut report = Report::default();
    report.invariant(
        check_floors(&floors, &cases) == 0,
        "floors match the reference",
    );
    let mut bufs: Vec<Buffers> = jobs.iter().map(|&j| Buffers::for_job(j)).collect();
    report.mark_baseline();

    let (mut engine, first_setup_s) = set_up(jobs);
    warm_up(jobs, &engine, &cases, &mut bufs, &mut report);
    if ctx.trace {
        return traced(ctx, jobs, &cases, &engine, &floors, &mut bufs, report);
    }

    let end = Instant::now() + ctx.duration();
    let mut windows = Windows::new(TAIL);
    let mut setup_s = vec![first_setup_s];
    let mut i = 0;
    while Instant::now() < end {
        let set = op_cases(&cases, i);
        let (elapsed, wrong) = lib_op(&engine, &set, &mut bufs);
        report.attempt(wrong == 0);
        windows.push(us(elapsed), us(floor_op(&floors, &set, &mut bufs)));
        i += 1;
        // Set up afresh after every window, so that `setup_s` samples the
        // host over the whole run as the op figures do, rather than the
        // few milliseconds before the first op.
        if windows.len().is_multiple_of(WINDOW) {
            drop(engine);
            let (fresh, t) = set_up(jobs);
            engine = fresh;
            setup_s.push(t);
            warm_up(jobs, &engine, &cases, &mut bufs, &mut report);
        }
    }
    report.closed_loop(&windows.finish(), quiet(&mut setup_s));
    report
}

/// The traced run: untraced and traced ops interleaved (their p50
/// difference is the tracing overhead), each followed by one pass of the
/// host probes; then the serving and simulator probes on the same mix.
fn traced(
    ctx: &Ctx,
    jobs: &[Job],
    cases: &[Vec<Case>],
    engine: &Engine,
    floors: &Floors,
    bufs: &mut [Buffers],
    mut report: Report,
) -> Report {
    let mut tracer = Tracer::new(ctx.origin);
    let mut probe = HostProbe::new(jobs, cases, floors);
    let mut layers = Layers::default();
    probe.cold_builds(&mut tracer);
    let end = Instant::now() + ctx.share(0.5);
    let mut untraced = Vec::new();
    let mut op = 0u64;
    while Instant::now() < end || op < 3 {
        let set = op_cases(cases, op as usize);
        // Alternate which of the pair runs first, so neither always finds
        // the caches the probes left behind.
        for traced in [op.is_multiple_of(2), !op.is_multiple_of(2)] {
            let wrong = if traced {
                lib_op_traced(engine, &set, bufs, &mut tracer, op)
            } else {
                let (elapsed, wrong) = lib_op(engine, &set, bufs);
                untraced.push(us(elapsed));
                wrong
            };
            report.attempt(wrong == 0);
        }
        report.invariant(probe.pass(&mut tracer, op), "backends agree bit for bit");
        op += 1;
    }
    let p50 = median(&mut untraced);
    let traced_p50 = median(&mut tracer.per_op_us("op"));
    let accounted = probe.summarize(&tracer, &mut layers);
    layers.set("closure_ratio", accounted / p50);
    layers.set("trace.op_p50_us", p50);
    layers.set("trace.overhead_us", traced_p50 - p50);
    let load = crate::serve::Load::small(jobs);
    crate::serve::probe(
        ctx,
        &load,
        ctx.share(0.25),
        &mut tracer,
        &mut layers,
        &mut report,
    );
    crate::sim::probe(jobs, ctx.share(0.1), &mut tracer, &mut layers, &mut report);
    report.finish_trace(ctx, &tracer, layers)
}

/// Host probe passes over `jobs` for about `share` (at least three), after
/// the cold builds; sets the host layer metrics and returns what they
/// account for of an op (see [`HostProbe::summarize`]).
pub fn probe(
    jobs: &[Job],
    seed: u64,
    share: Duration,
    tracer: &mut Tracer,
    layers: &mut Layers,
    report: &mut Report,
) -> f64 {
    let cases = Case::generate(jobs, 1, seed);
    let floors = Floors::for_jobs(jobs);
    report.invariant(
        check_floors(&floors, &cases) == 0,
        "floors match the reference",
    );
    let mut host = HostProbe::new(jobs, &cases, &floors);
    host.cold_builds(tracer);
    let end = Instant::now() + share;
    let mut pass = 0;
    while Instant::now() < end || pass < 3 {
        report.invariant(host.pass(tracer, pass), "backends agree bit for bit");
        pass += 1;
    }
    host.summarize(tracer, layers)
}

/// A guided/fine/phased schedule materialized for a no-op dispatch probe,
/// batched over `copies` buffers as the plan dispatches it. (A probe holds
/// one or two of these, so variant sizes do not matter.)
#[allow(clippy::large_enum_variant)]
enum Dispatch {
    Phased(Vec<Vec<CodeletId>>),
    Fine {
        graph: CsrProgram,
        seeds: Vec<CodeletId>,
    },
    Guided {
        early: CsrProgram,
        early_seeds: Vec<CodeletId>,
        early_expected: usize,
        late: CsrProgram,
        late_seeds: Vec<CodeletId>,
        late_expected: usize,
    },
}

impl Dispatch {
    fn new(plan: FftPlan, copies: usize) -> Self {
        match ScheduleSpec::of(plan, Version::FineGuided) {
            ScheduleSpec::Phased { phases } => Dispatch::Phased(
                phases
                    .iter()
                    .map(|p| {
                        (0..copies)
                            .flat_map(|k| p.iter().map(move |&c| k * plan.total_codelets() + c))
                            .collect()
                    })
                    .collect(),
            ),
            ScheduleSpec::Fine { graph, seeds } => Dispatch::Fine {
                graph: CsrProgram::materialize(&graph),
                seeds,
            },
            ScheduleSpec::Guided {
                early,
                early_seeds,
                late,
                late_seeds,
            } => Dispatch::Guided {
                early_expected: early.expected(),
                early: CsrProgram::materialize(&early),
                early_seeds,
                late_expected: late.expected(),
                late: CsrProgram::materialize(&late),
                late_seeds,
            },
        }
    }

    fn run(&self, copies: usize, runtime: &Runtime) {
        let body = |_: CodeletId| {};
        match self {
            Dispatch::Phased(phases) => {
                runtime.run_phased(phases, body);
            }
            Dispatch::Fine { graph, seeds } => {
                let batch = BatchProgram::new(graph, copies);
                let seeds = batch.batched_seeds(seeds);
                runtime.run_with_seed_order(&batch, PoolDiscipline::Lifo, &seeds, body);
            }
            Dispatch::Guided {
                early,
                early_seeds,
                early_expected,
                late,
                late_seeds,
                late_expected,
            } => {
                let batch = BatchProgram::new(early, copies);
                let seeds = batch.batched_seeds(early_seeds);
                runtime.run_partial(
                    &batch,
                    PoolDiscipline::Lifo,
                    &seeds,
                    early_expected * copies,
                    body,
                );
                let batch = BatchProgram::new(late, copies);
                let seeds = batch.batched_seeds(late_seeds);
                runtime.run_partial(
                    &batch,
                    PoolDiscipline::Lifo,
                    &seeds,
                    late_expected * copies,
                    body,
                );
            }
        }
    }
}

/// Backends probed, with their span names at one and two workers.
const BACKENDS: [(BackendSel, [&str; 2]); 3] = [
    (
        BackendSel::SCALAR,
        ["fgfft.backend.scalar.w1", "fgfft.backend.scalar.w2"],
    ),
    (
        BackendSel::SIMD,
        ["fgfft.backend.simd.w1", "fgfft.backend.simd.w2"],
    ),
    (
        BackendSel::THREADED_SIMD,
        [
            "fgfft.backend.threaded-simd.w1",
            "fgfft.backend.threaded-simd.w2",
        ],
    ),
];

/// Host layer probes over one job mix: each pass times one call into
/// every host layer per job.
struct HostProbe<'a> {
    jobs: Vec<Job>,
    cases: Vec<&'a Case>,
    floors: &'a Floors,
    plans: Vec<Arc<Plan>>,
    dispatch: Vec<Vec<(Dispatch, usize)>>,
    backends: Vec<Arc<dyn Backend>>,
    runtime: Runtime,
    batches: Vec<Vec<Vec<Complex64>>>,
    bufs: Vec<Buffers>,
    phases: Vec<(f64, f64)>,
}

impl<'a> HostProbe<'a> {
    fn new(jobs: &[Job], cases: &'a [Vec<Case>], floors: &'a Floors) -> Self {
        let plans: Vec<Arc<Plan>> = jobs
            .iter()
            .map(|j| Planner::shared().plan_key(j.key()))
            .collect();
        let dispatch = jobs
            .iter()
            .zip(&plans)
            .map(|(job, plan)| match *job {
                Job::C2c2d { rows, cols } => {
                    let col = plan.col_plan().map_or(*plan.fft_plan(), |p| *p.fft_plan());
                    vec![
                        (Dispatch::new(*plan.fft_plan(), rows), rows),
                        (Dispatch::new(col, cols), cols),
                    ]
                }
                _ => vec![(Dispatch::new(*plan.fft_plan(), 1), 1)],
            })
            .collect();
        Self {
            jobs: jobs.to_vec(),
            cases: cases.iter().map(|c| &c[0]).collect(),
            floors,
            plans,
            dispatch,
            backends: BACKENDS.iter().map(|(sel, _)| sel.build()).collect(),
            runtime: Runtime::with_workers(workers()),
            batches: jobs
                .iter()
                .map(|j| vec![vec![Complex64::ZERO; j.buffer_len()]; BATCH])
                .collect(),
            bufs: jobs.iter().map(|&j| Buffers::for_job(j)).collect(),
            phases: Vec::new(),
        }
    }

    /// Cold `plan_key` builds on fresh planners.
    fn cold_builds(&self, tracer: &mut Tracer) {
        for rep in 0..BUILD_REPS {
            for job in &self.jobs {
                let planner = Planner::new();
                tracer.time("fgfft.planner.build", rep as u64, None, || {
                    planner.plan_key(job.key())
                });
            }
        }
    }

    fn load_batch(&mut self, j: usize, count: usize) {
        for buf in &mut self.batches[j][..count] {
            buf.copy_from_slice(&self.cases[j].packed);
        }
    }

    /// One pass of every host probe over every job; returns whether all
    /// backends produced identical bits.
    fn pass(&mut self, tracer: &mut Tracer, op: u64) -> bool {
        let probe = tracer.open("probe", op, None);
        let parent = Some(probe);
        let mut agree = true;
        let mut fired = 0u64;
        let mut empty = 0u64;
        let mut cv = Vec::new();
        for j in 0..self.jobs.len() {
            let key = self.jobs[j].key();
            let plan = Arc::clone(&self.plans[j]);
            tracer.time("fgfft.planner.lookup", op, parent, || {
                Planner::shared().plan_key(key)
            });

            let swaps = plan.bitrev_swaps();
            let buf = &mut self.batches[j][0];
            let workers = self.runtime.workers();
            match self.jobs[j] {
                Job::C2c2d { rows, cols } => {
                    let col_swaps = plan.col_plan().map_or(swaps, |p| p.bitrev_swaps());
                    tracer.time("fgfft.bitrev", op, parent, || {
                        for row in buf.chunks_exact_mut(cols) {
                            apply_swaps_parallel(row, swaps, workers);
                        }
                        for col in buf.chunks_exact_mut(rows) {
                            apply_swaps_parallel(col, col_swaps, workers);
                        }
                    });
                }
                _ => tracer.time("fgfft.bitrev", op, parent, || {
                    apply_swaps_parallel(buf, swaps, workers)
                }),
            }

            for (dispatch, copies) in &self.dispatch[j] {
                tracer.time("codelet.dispatch", op, parent, || {
                    dispatch.run(*copies, &self.runtime)
                });
            }

            self.load_batch(j, 1);
            let stats: ExecStats = {
                let mut views: Vec<&mut [Complex64]> = self.batches[j][..1]
                    .iter_mut()
                    .map(|b| &mut b[..])
                    .collect();
                tracer.time("fgfft.exec.batch1", op, parent, || {
                    plan.execute_batch(&mut views, &self.runtime)
                })
            };
            for phase in &stats.phases {
                fired += phase.total_fired;
                empty += phase.empty_pops_per_worker.iter().sum::<u64>();
                cv.push(phase.load_imbalance_cv());
            }
            self.load_batch(j, BATCH);
            {
                let mut views: Vec<&mut [Complex64]> =
                    self.batches[j].iter_mut().map(|b| &mut b[..]).collect();
                tracer.time("fgfft.exec.batch8", op, parent, || {
                    plan.execute_batch(&mut views, &self.runtime)
                });
            }
            let reference = self.batches[j][0].clone();

            for (backend, (_, names)) in self.backends.iter().zip(BACKENDS.iter()) {
                let prepared = tracer.time("fgfft.backend.prepare", op, parent, || {
                    backend.prepare(&plan)
                });
                for (w, name) in names.iter().enumerate() {
                    let runtime = Runtime::with_workers(w + 1);
                    let buf = &mut self.batches[j][0];
                    buf.copy_from_slice(&self.cases[j].packed);
                    tracer.time(name, op, parent, || prepared.execute(buf, &runtime));
                    agree &= buf[..] == reference[..];
                }
            }

            let case = self.cases[j];
            let bufs = &mut self.bufs[j];
            bufs.load(case);
            tracer.time("floor.radix2", op, parent, || {
                self.floors.run(&self.floors.radix2, case, bufs)
            });
            bufs.load(case);
            tracer.time("floor.stockham", op, parent, || {
                self.floors.run(&Stockham, case, bufs)
            });
        }
        let pops = fired + empty;
        self.phases.push((
            if pops == 0 {
                0.0
            } else {
                empty as f64 / pops as f64
            },
            cv.iter().sum::<f64>() / cv.len().max(1) as f64,
        ));
        tracer.close(probe);
        agree
    }

    /// Set the per-layer medians of the probe spans; returns the part of
    /// an op they account for (lookup + bit reversal + dispatch +
    /// per-buffer execution), µs.
    fn summarize(&self, tracer: &Tracer, layers: &mut Layers) -> f64 {
        let med = |name: &str| median(&mut tracer.per_op_us(name));
        let lookup = med("fgfft.planner.lookup");
        let bitrev = med("fgfft.bitrev");
        let dispatch = med("codelet.dispatch");
        let batch1 = med("fgfft.exec.batch1");
        let per_buffer = (med("fgfft.exec.batch8") - batch1) / (BATCH - 1) as f64;
        let flops: f64 = self.jobs.iter().map(|j| j.flops()).sum();
        layers.set("fgfft.planner.build_ms", med("fgfft.planner.build") / 1e3);
        layers.set("fgfft.planner.lookup_us", lookup);
        layers.set(
            "fgfft.plan.resident_mib",
            self.plans.iter().map(|p| p.resident_bytes()).sum::<u64>() as f64 / (1 << 20) as f64,
        );
        layers.set("fgfft.bitrev_us", bitrev);
        layers.set("codelet.dispatch_us", dispatch);
        let mut empty: Vec<f64> = self.phases.iter().map(|p| p.0).collect();
        let mut cv: Vec<f64> = self.phases.iter().map(|p| p.1).collect();
        layers.set("codelet.empty_pop_ratio", median(&mut empty));
        layers.set("codelet.imbalance_cv", median(&mut cv));
        layers.set("fgfft.exec.fixed_us", batch1 - per_buffer);
        layers.set("fgfft.exec.per_buffer_us", per_buffer);
        layers.set("fgfft.exec.gflops", flops / per_buffer / 1e3);
        for (_, names) in &BACKENDS {
            for name in names {
                layers.set_us(name, med(name));
            }
        }
        layers.set("fgfft.backend.prepare_us", med("fgfft.backend.prepare"));
        layers.set("floor.radix2_us", med("floor.radix2"));
        layers.set("floor.stockham_us", med("floor.stockham"));
        lookup + bitrev + dispatch + per_buffer
    }
}

/// The default engine's worker count.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
