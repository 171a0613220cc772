//! The host executor: fires codelet programs on a pool of worker threads.
//!
//! Two execution modes are provided, mirroring the paper's taxonomy:
//!
//! * [`Runtime::run`] / [`Runtime::run_with_seed_order`] — **fine-grain**
//!   dataflow execution: workers pop ready codelets from a concurrent pool,
//!   fire them, signal dependents' sync slots, and push newly-enabled
//!   codelets. No barriers; termination is detected by a completion count.
//! * [`Runtime::run_phased`] — **coarse-grain** execution: codelets are
//!   organized in phases (the FFT's stages); each phase is one wave of
//!   chunks on work-stealing deques, closed by a countdown barrier. This is
//!   the workspace's one barrier executor: the coarse versions and the
//!   threaded backend's stage-phased schedule both run on it.
//!
//! Shared-counter groups ([`crate::counter::SharedCounters`]) are used
//! automatically when the program declares them.
//!
//! # Panic semantics
//!
//! A panicking codelet body never hangs a run: the first panic sets a
//! poison flag, every worker drains out instead of spinning on a
//! completion count that can no longer be reached, and the original
//! payload is re-raised on the *calling* thread via
//! [`std::panic::resume_unwind`] once the worker scope has joined. The
//! run's partial effects on caller-owned data (e.g. an in-place FFT
//! buffer) are left as-is — the caller must treat the data as garbage.
//!
//! Long-lived callers that must survive a poisoned request — servers
//! dispatching untrusted or fault-injected work, like `fgserve`'s
//! dispatcher threads — should wrap the `run*` call in
//! [`std::panic::catch_unwind`], fail the affected requests, and keep the
//! thread alive; propagating the unwind instead kills the dispatching
//! thread and strands everything queued behind it.

use crate::counter::{DepCounters, SharedCounters};
use crate::graph::{CodeletId, CodeletProgram};
use crate::pool::{PoolDiscipline, ReadyPool};
use crate::stats::RunStats;
use fgsupport::backoff::Backoff;
use fgsupport::deque::{Steal, StealOrder, Stealer, Worker};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads (compute units). Defaults to the host's
    /// available parallelism.
    pub workers: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl RuntimeConfig {
    /// Configuration with an explicit worker count (min 1).
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }
}

/// A reusable codelet runtime. Each run spawns its own scoped worker
/// threads for that call alone (a phased run counts the calling thread as
/// one of its workers, so on one worker it spawns none): the runtime itself
/// is just configuration, so it is cheap to construct and freely shareable.
#[derive(Debug, Clone, Default)]
pub struct Runtime {
    config: RuntimeConfig,
}

impl Runtime {
    /// Build a runtime from a configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        Self { config }
    }

    /// Runtime with an explicit worker count (min 1) — shorthand for
    /// long-lived holders (services) that reuse one runtime across many
    /// dispatches.
    pub fn with_workers(workers: usize) -> Self {
        Self::new(RuntimeConfig::with_workers(workers))
    }

    /// Number of workers this runtime uses.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Fine-grain execution with the program's default initial-ready order.
    ///
    /// # Panics
    ///
    /// Re-raises the first codelet-body panic on this thread after all
    /// workers have drained (see the module docs' *Panic semantics*).
    pub fn run<P>(
        &self,
        program: &P,
        discipline: PoolDiscipline,
        body: impl Fn(CodeletId) + Sync,
    ) -> RunStats
    where
        P: CodeletProgram + ?Sized,
    {
        let seeds = program.initial_ready();
        self.run_with_seed_order(program, discipline, &seeds, body)
    }

    /// Fine-grain execution with an explicit initial pool order. The paper's
    /// `fine worst` / `fine best` results differ *only* in this order.
    pub fn run_with_seed_order<P>(
        &self,
        program: &P,
        discipline: PoolDiscipline,
        seeds: &[CodeletId],
        body: impl Fn(CodeletId) + Sync,
    ) -> RunStats
    where
        P: CodeletProgram + ?Sized,
    {
        self.run_partial(program, discipline, seeds, program.num_codelets(), body)
    }

    /// Fine-grain execution of a *subset* of the program: exactly `expected`
    /// codelets — the seeds plus everything they transitively enable through
    /// `dependents` — will fire. Used by phased algorithms (e.g. the guided
    /// FFT's two passes) where one codelet graph is executed in slices whose
    /// ids keep their global meaning.
    pub fn run_partial<P>(
        &self,
        program: &P,
        discipline: PoolDiscipline,
        seeds: &[CodeletId],
        expected: usize,
        body: impl Fn(CodeletId) + Sync,
    ) -> RunStats
    where
        P: CodeletProgram + ?Sized,
    {
        // In debug builds every run is preceded by the pass-1 contract
        // check (O(V+E), same order as the run itself): a miscounted
        // dependence then fails with a named diagnostic instead of a
        // deadlock or a silent race. Release builds skip this; use
        // [`Runtime::run_checked`] to keep the check unconditionally.
        #[cfg(debug_assertions)]
        {
            let diags = crate::verify::check_partial(program, seeds, expected);
            assert!(
                !crate::verify::has_errors(&diags),
                "codelet graph contract violated:\n{}",
                crate::verify::render(&diags)
            );
        }
        let n_workers = self.config.workers;
        let total = expected;
        let pool = discipline.build(n_workers);
        pool.seed(seeds);

        let counters = DepCounters::for_program(program);
        let shared =
            (program.num_shared_groups() > 0).then(|| SharedCounters::for_program(program));

        let completed = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let fired = (0..n_workers)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>();
        let empty = (0..n_workers)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>();

        let start = Instant::now();
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers)
                .map(|w| {
                    let pool = &*pool;
                    let counters = &counters;
                    let shared = shared.as_ref();
                    let completed = &completed;
                    let poisoned = &poisoned;
                    let fired = &fired;
                    let empty = &empty;
                    let body = &body;
                    scope.spawn(move || {
                        worker_loop(
                            w, program, pool, counters, shared, completed, poisoned, total, body,
                            &fired[w], &empty[w],
                        )
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(payload)) | Err(payload) => {
                        panic_payload.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = panic_payload {
            // A codelet body panicked: every worker has drained out via the
            // poison flag; re-raise the original panic on the caller.
            std::panic::resume_unwind(payload);
        }
        let elapsed = start.elapsed();

        debug_assert_eq!(completed.load(Ordering::Acquire), total);
        let fired_per_worker: Vec<u64> = fired.iter().map(|f| f.load(Ordering::Relaxed)).collect();
        RunStats {
            total_fired: fired_per_worker.iter().sum(),
            fired_per_worker,
            empty_pops_per_worker: empty.iter().map(|f| f.load(Ordering::Relaxed)).collect(),
            elapsed,
            barriers: 0,
        }
    }

    /// Fine-grain execution preceded by the full pass-1 graph-contract
    /// check ([`crate::verify::check_program`]), in every build profile.
    /// Returns the diagnostics instead of running when any of them is an
    /// error; warnings are discarded (run `check_program` directly to see
    /// them).
    pub fn run_checked<P>(
        &self,
        program: &P,
        discipline: PoolDiscipline,
        body: impl Fn(CodeletId) + Sync,
    ) -> Result<RunStats, Vec<crate::verify::Diagnostic>>
    where
        P: CodeletProgram + ?Sized,
    {
        let diags = crate::verify::check_program(program);
        if crate::verify::has_errors(&diags) {
            return Err(diags);
        }
        Ok(self.run(program, discipline, body))
    }

    /// Coarse-grain (barrier) execution: fire every codelet of `phases[0]`,
    /// wait for all of them, then `phases[1]`, etc. Codelets within a phase
    /// must be mutually independent; dependencies may only point from phase
    /// `i` to phases `> i`. Dependence counters are not consulted.
    ///
    /// # The wave protocol
    ///
    /// With one worker the phases run in order on the calling thread, with
    /// no thread spawned. Otherwise the calling thread is worker 0 and
    /// coordinates `workers() - 1` scoped pool threads, one *wave* per
    /// phase. It splits the phase into about four contiguous chunks per
    /// worker (coarse enough to amortize deque traffic, fine enough that a
    /// straggler's tail gets stolen), stores the wave's chunk count in a
    /// countdown with `Release`, deals the chunks round-robin into
    /// per-worker deques ([`fgsupport::deque`]), and then works the wave
    /// itself until an `Acquire` read of the countdown sees zero. Workers
    /// pop their own deque LIFO and otherwise steal FIFO, starting the
    /// victim scan at a [`StealOrder`]-randomized peer so no deque is
    /// systematically drained last; every finished chunk ends with a
    /// `fetch_sub(1, AcqRel)`. The release sequence on that counter makes
    /// every body of a wave happen-before the coordinator's zero read,
    /// and the next wave's chunks are published through the deque locks:
    /// that is the cross-phase happens-before edge the phases' data
    /// dependencies need.
    ///
    /// # Panics
    ///
    /// A panicking body is caught per chunk and poisons the run: the wave
    /// still drains (poisoned chunks skip their bodies but always
    /// decrement, so the barrier cannot deadlock), later phases are not
    /// dealt, and the first payload is re-raised on this thread after the
    /// worker scope joins (see the module docs' *Panic semantics*). With
    /// one worker the panic simply unwinds out of the inline loop.
    pub fn run_phased(
        &self,
        phases: &[Vec<CodeletId>],
        body: impl Fn(CodeletId) + Sync,
    ) -> RunStats {
        let n_workers = self.config.workers;
        let start = Instant::now();
        if n_workers == 1 {
            // The degenerate wave order, without deques or a scope.
            for &id in phases.iter().flatten() {
                body(id);
            }
            let fired = phases.iter().map(Vec::len).sum::<usize>() as u64;
            return RunStats {
                fired_per_worker: vec![fired],
                empty_pops_per_worker: vec![0],
                elapsed: start.elapsed(),
                total_fired: fired,
                barriers: phases.len() as u64,
            };
        }
        let deques: Vec<Worker<Chunk>> = (0..n_workers).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Chunk>> = deques.iter().map(Worker::stealer).collect();
        let steal_order = StealOrder::new();
        let remaining = AtomicUsize::new(0);
        // Plain stop flags: they publish no data (a panic payload travels
        // back through its worker's tally), so their Release/Acquire pairs
        // only order the flag itself.
        let done = AtomicBool::new(false);
        let poisoned = AtomicBool::new(false);

        // Worker `me` runs chunks, its own or stolen, until `stop()`.
        let work = |me: usize, tally: &mut Tally, stop: &dyn Fn() -> bool| {
            let backoff = Backoff::new();
            while !stop() {
                let Some(chunk) = deques[me]
                    .pop()
                    .or_else(|| steal(&stealers, me, &steal_order))
                else {
                    tally.empty += 1;
                    backoff.snooze();
                    continue;
                };
                backoff.reset();
                if !poisoned.load(Ordering::Acquire) {
                    let ids = &phases[chunk.phase][chunk.first..chunk.first + chunk.len];
                    match std::panic::catch_unwind(AssertUnwindSafe(|| {
                        ids.iter().for_each(|&id| body(id))
                    })) {
                        Ok(()) => tally.fired += chunk.len as u64,
                        Err(p) => {
                            poisoned.store(true, Ordering::Release);
                            tally.payload.get_or_insert(p);
                        }
                    }
                }
                // Always decrement: a poisoned wave must still drain or the
                // coordinator would wait forever.
                remaining.fetch_sub(1, Ordering::AcqRel);
            }
        };

        let mut tallies = Vec::with_capacity(n_workers);
        std::thread::scope(|scope| {
            let work = &work;
            let stop = || done.load(Ordering::Acquire);
            let handles: Vec<_> = (1..n_workers)
                .map(|me| {
                    scope.spawn(move || {
                        let mut tally = Tally::default();
                        work(me, &mut tally, &stop);
                        tally
                    })
                })
                .collect();
            let mut mine = Tally::default();
            let wave_done = || remaining.load(Ordering::Acquire) == 0;
            for (p, phase) in phases.iter().enumerate() {
                if poisoned.load(Ordering::Acquire) {
                    break;
                }
                let len = (phase.len() / (n_workers * CHUNKS_PER_WORKER)).max(1);
                let chunks = phase.len().div_ceil(len);
                // Publish the countdown before dealing, or an early
                // decrement could be overwritten and the wave never end.
                remaining.store(chunks, Ordering::Release);
                for c in 0..chunks {
                    let first = c * len;
                    deques[c % n_workers].push(Chunk {
                        phase: p,
                        first,
                        len: len.min(phase.len() - first),
                    });
                }
                work(0, &mut mine, &wave_done);
            }
            done.store(true, Ordering::Release);
            tallies.push(mine);
            for h in handles {
                tallies.push(h.join().unwrap_or_else(|p| Tally {
                    payload: Some(p),
                    ..Tally::default()
                }));
            }
        });
        if let Some(payload) = tallies.iter_mut().find_map(|t| t.payload.take()) {
            std::panic::resume_unwind(payload);
        }
        let fired_per_worker: Vec<u64> = tallies.iter().map(|t| t.fired).collect();
        RunStats {
            total_fired: fired_per_worker.iter().sum(),
            fired_per_worker,
            empty_pops_per_worker: tallies.iter().map(|t| t.empty).collect(),
            elapsed: start.elapsed(),
            barriers: phases.len() as u64,
        }
    }
}

/// One worker's share of a [`Runtime::run_phased`] run.
#[derive(Default)]
struct Tally {
    fired: u64,
    empty: u64,
    /// The first panic payload this worker caught.
    payload: Option<Box<dyn std::any::Any + Send>>,
}

/// Chunks dealt per worker per phase by [`Runtime::run_phased`].
const CHUNKS_PER_WORKER: usize = 4;

/// A contiguous run of one phase's codelet list: `phases[phase][first..first + len]`.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    phase: usize,
    first: usize,
    len: usize,
}

/// One steal scan over every peer of `me`, starting at a randomized victim.
fn steal<T>(stealers: &[Stealer<T>], me: usize, order: &StealOrder) -> Option<T> {
    let n = stealers.len();
    let from = order.start(n);
    for victim in (0..n).map(|off| (from + off) % n).filter(|&v| v != me) {
        loop {
            match stealers[victim].steal() {
                Steal::Success(chunk) => return Some(chunk),
                Steal::Empty => break,
                Steal::Retry => {}
            }
        }
    }
    None
}

/// The fine-grain worker loop: pop, fire, signal, push. Returns the panic
/// payload of the first codelet body that panicked on this worker, if any;
/// a panic elsewhere drains the loop via the poison flag.
#[allow(clippy::too_many_arguments)]
fn worker_loop<P>(
    worker: usize,
    program: &P,
    pool: &dyn ReadyPool,
    counters: &DepCounters,
    shared: Option<&SharedCounters>,
    completed: &AtomicUsize,
    poisoned: &AtomicBool,
    total: usize,
    body: &(impl Fn(CodeletId) + Sync),
    fired: &AtomicU64,
    empty: &AtomicU64,
) -> Result<(), Box<dyn std::any::Any + Send>>
where
    P: CodeletProgram + ?Sized,
{
    let mut children = Vec::new();
    let mut groups: Vec<usize> = Vec::new();
    let mut members = Vec::new();
    let backoff = Backoff::new();
    loop {
        if poisoned.load(Ordering::Acquire) {
            return Ok(());
        }
        match pool.pop(worker) {
            Some(id) => {
                backoff.reset();
                if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| body(id))) {
                    // Poison the run so peers stop waiting for a completion
                    // count that will never be reached.
                    poisoned.store(true, Ordering::Release);
                    return Err(payload);
                }
                fired.fetch_add(1, Ordering::Relaxed);

                children.clear();
                program.dependents(id, &mut children);
                if let Some(shared) = shared {
                    // Signal each distinct shared group once; private
                    // children individually.
                    groups.clear();
                    for &child in &children {
                        match program.shared_group(child) {
                            Some(g) => {
                                if !groups.contains(&g.group) {
                                    groups.push(g.group);
                                }
                            }
                            None => {
                                if counters.signal(child) {
                                    pool.push(worker, child);
                                }
                            }
                        }
                    }
                    for &g in &groups {
                        if shared.signal(g) {
                            members.clear();
                            program.shared_group_members(g, &mut members);
                            pool.push_many(worker, &members);
                        }
                    }
                } else {
                    for &child in &children {
                        if counters.signal(child) {
                            pool.push(worker, child);
                        }
                    }
                }

                completed.fetch_add(1, Ordering::AcqRel);
            }
            None => {
                if completed.load(Ordering::Acquire) >= total {
                    return Ok(());
                }
                empty.fetch_add(1, Ordering::Relaxed);
                backoff.snooze();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ExplicitGraph, SharedGroup};
    use fgsupport::sync::Mutex;
    use std::sync::atomic::AtomicU32;

    fn layered_graph(layers: usize, width: usize) -> ExplicitGraph {
        // Fully-connected consecutive layers: every codelet of layer i feeds
        // every codelet of layer i+1.
        let mut g = ExplicitGraph::new(layers * width);
        for l in 0..layers - 1 {
            for a in 0..width {
                for b in 0..width {
                    g.add_edge(l * width + a, (l + 1) * width + b);
                }
            }
        }
        g
    }

    #[test]
    fn runs_all_codelets_once() {
        let g = layered_graph(4, 8);
        let counts: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
        let rt = Runtime::new(RuntimeConfig::with_workers(4));
        let stats = rt.run(&g, PoolDiscipline::Lifo, |id| {
            counts[id].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.total_fired, 32);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn respects_dependencies_under_parallelism() {
        // Record firing timestamps with a global logical clock; verify every
        // layer fires strictly after its predecessor layer.
        let g = layered_graph(5, 7);
        let clock = AtomicU32::new(0);
        let times: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
        let rt = Runtime::new(RuntimeConfig::with_workers(8));
        for discipline in [
            PoolDiscipline::Fifo,
            PoolDiscipline::Lifo,
            PoolDiscipline::WorkSteal,
        ] {
            clock.store(0, Ordering::Relaxed);
            rt.run(&g, discipline, |id| {
                times[id].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            });
            for l in 1..5 {
                let prev_max = (0..7)
                    .map(|a| times[(l - 1) * 7 + a].load(Ordering::SeqCst))
                    .max()
                    .unwrap();
                let cur_min = (0..7)
                    .map(|a| times[l * 7 + a].load(Ordering::SeqCst))
                    .min()
                    .unwrap();
                assert!(
                    cur_min > prev_max,
                    "layer {l} fired before layer {} finished",
                    l - 1
                );
            }
        }
    }

    #[test]
    fn seed_order_controls_lifo_start() {
        // Independent codelets, one worker, LIFO: firing order must be the
        // reverse of the seed order.
        let g = ExplicitGraph::new(4);
        let order = Mutex::new(Vec::new());
        let rt = Runtime::new(RuntimeConfig::with_workers(1));
        rt.run_with_seed_order(&g, PoolDiscipline::Lifo, &[0, 1, 2, 3], |id| {
            order.lock().push(id);
        });
        assert_eq!(*order.lock(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn phased_execution_keeps_phase_order() {
        let clock = AtomicU32::new(0);
        let times: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
        let rt = Runtime::new(RuntimeConfig::with_workers(3));
        let stats = rt.run_phased(&[vec![0, 1, 2], vec![3, 4, 5]], |id| {
            times[id].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
        });
        assert_eq!(stats.barriers, 2);
        assert_eq!(stats.total_fired, 6);
        let p0_max = (0..3)
            .map(|i| times[i].load(Ordering::SeqCst))
            .max()
            .unwrap();
        let p1_min = (3..6)
            .map(|i| times[i].load(Ordering::SeqCst))
            .min()
            .unwrap();
        assert!(p1_min > p0_max);
    }

    #[test]
    fn empty_program_terminates() {
        let g = ExplicitGraph::new(0);
        let rt = Runtime::new(RuntimeConfig::with_workers(2));
        let stats = rt.run(&g, PoolDiscipline::Fifo, |_| {});
        assert_eq!(stats.total_fired, 0);
    }

    #[test]
    fn single_worker_matches_sequential_semantics() {
        let g = layered_graph(3, 4);
        let fired = Mutex::new(Vec::new());
        let rt = Runtime::new(RuntimeConfig::with_workers(1));
        rt.run(&g, PoolDiscipline::Fifo, |id| fired.lock().push(id));
        assert_eq!(fired.lock().len(), 12);
    }

    /// Program where 4 children share one counter over 4 parents.
    struct SharedProg;
    impl CodeletProgram for SharedProg {
        fn num_codelets(&self) -> usize {
            8
        }
        fn dep_count(&self, id: CodeletId) -> u32 {
            if id < 4 {
                0
            } else {
                4
            }
        }
        fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>) {
            if id < 4 {
                out.extend(4..8);
            }
        }
        fn shared_group(&self, id: CodeletId) -> Option<SharedGroup> {
            (id >= 4).then_some(SharedGroup {
                group: 0,
                target: 4,
            })
        }
        fn num_shared_groups(&self) -> usize {
            1
        }
        fn shared_group_members(&self, _g: usize, out: &mut Vec<CodeletId>) {
            out.extend(4..8);
        }
    }

    #[test]
    fn shared_counters_enable_whole_group() {
        let counts: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        let rt = Runtime::new(RuntimeConfig::with_workers(4));
        let stats = rt.run(&SharedProg, PoolDiscipline::Lifo, |id| {
            counts[id].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.total_fired, 8);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn stats_track_workers() {
        let g = layered_graph(2, 16);
        let rt = Runtime::new(RuntimeConfig::with_workers(4));
        let stats = rt.run(&g, PoolDiscipline::WorkSteal, |_| {
            std::hint::black_box(0u64);
        });
        assert_eq!(stats.fired_per_worker.len(), 4);
        assert_eq!(stats.fired_per_worker.iter().sum::<u64>(), 32);
    }

    #[test]
    fn panicking_body_does_not_hang_and_propagates() {
        // Without poisoning, the non-panicking workers would spin forever
        // on a completion count that can no longer be reached.
        let g = layered_graph(2, 32);
        let rt = Runtime::new(RuntimeConfig::with_workers(4));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(&g, PoolDiscipline::WorkSteal, |id| {
                if id == 7 {
                    panic!("codelet 7 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("exploded"), "wrong payload: {msg}");
    }

    #[test]
    fn panicking_body_in_phase_does_not_hang() {
        let phases: Vec<Vec<usize>> = vec![(0..16).collect(), (16..32).collect()];
        let rt = Runtime::new(RuntimeConfig::with_workers(4));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run_phased(&phases, |id| {
                if id == 3 {
                    panic!("phase codelet 3 exploded");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate");
    }

    #[test]
    fn phased_single_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let rt = Runtime::with_workers(1);
        let stats = rt.run_phased(&[vec![0, 1, 2], vec![3, 4]], |id| {
            seen.lock().push((id, std::thread::current().id()));
        });
        assert_eq!(stats.total_fired, 5);
        assert_eq!(stats.barriers, 2);
        let seen = seen.into_inner();
        assert_eq!(
            seen.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        assert!(seen.iter().all(|&(_, thread)| thread == caller));
    }

    /// A panicking body must poison the wave, not deadlock the countdown;
    /// later phases are never dealt, and the payload resurfaces on the
    /// caller's thread.
    #[test]
    fn poisoned_wave_propagates_the_panic() {
        let phases: Vec<Vec<usize>> = (0..4).map(|s| (s * 64..(s + 1) * 64).collect()).collect();
        for workers in [1, 3] {
            let late = AtomicU32::new(0);
            let rt = Runtime::with_workers(workers);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                rt.run_phased(&phases, |id| {
                    if id == 70 {
                        panic!("boom");
                    }
                    if id >= 128 {
                        late.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }));
            let payload = caught.expect_err("panic must propagate");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"boom"),
                "workers={workers}"
            );
            assert_eq!(late.load(Ordering::Relaxed), 0, "workers={workers}");
        }
    }

    #[test]
    fn default_runtime_has_workers() {
        let rt = Runtime::default();
        assert!(rt.workers() >= 1);
    }

    #[test]
    fn run_checked_runs_sound_programs() {
        let g = layered_graph(3, 4);
        let fired = AtomicU32::new(0);
        let rt = Runtime::new(RuntimeConfig::with_workers(2));
        let stats = rt
            .run_checked(&g, PoolDiscipline::Lifo, |_| {
                fired.fetch_add(1, Ordering::Relaxed);
            })
            .expect("sound graph must pass the contract check");
        assert_eq!(stats.total_fired, 12);
        assert_eq!(fired.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn run_checked_rejects_broken_programs_without_running() {
        // dep_count says 2 but only one parent signals: a plain run would
        // deadlock; run_checked must refuse up front.
        struct Starved;
        impl CodeletProgram for Starved {
            fn num_codelets(&self) -> usize {
                2
            }
            fn dep_count(&self, id: CodeletId) -> u32 {
                (id as u32) * 2
            }
            fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>) {
                if id == 0 {
                    out.push(1);
                }
            }
        }
        let fired = AtomicU32::new(0);
        let rt = Runtime::new(RuntimeConfig::with_workers(2));
        let diags = rt
            .run_checked(&Starved, PoolDiscipline::Fifo, |_| {
                fired.fetch_add(1, Ordering::Relaxed);
            })
            .expect_err("broken graph must be rejected");
        assert!(diags
            .iter()
            .any(|d| d.code == crate::verify::CODE_DEP_MISMATCH));
        assert_eq!(fired.load(Ordering::Relaxed), 0, "body must never run");
    }
}
