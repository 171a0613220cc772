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
//! # The helper pool
//!
//! Every run executes on the calling thread, as worker 0, plus up to
//! `workers - 1` threads of one process-wide helper pool. The pool starts
//! with the first multi-worker run, grows to the largest `workers - 1`
//! any run has asked for, and its threads live as long as the process: a
//! run hands its work to helpers that are already parked (or still
//! spinning from the previous run) instead of spawning threads. A helper
//! busy with another run does not join this one, so every run is written
//! to finish with whichever workers show up; that is what lets concurrent
//! callers and nested runs (a body that itself runs a program) proceed
//! without waiting for each other.
//!
//! # Panic semantics
//!
//! A panicking codelet body never hangs a run: the first panic sets a
//! poison flag, every worker drains out instead of spinning on a
//! completion count that can no longer be reached, and the original
//! payload is re-raised on the *calling* thread via
//! [`std::panic::resume_unwind`] once every helper that joined the run has
//! left it. Helper threads survive the panic and serve later runs. The
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
use fgsupport::sync::Mutex;
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
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

/// A reusable codelet runtime. Each run works on the calling thread plus
/// whichever threads of the process-wide helper pool join it (see the
/// module docs' *The helper pool*); on one worker it uses the caller
/// alone. The runtime itself is just configuration, so it is cheap to
/// construct and freely shareable.
#[derive(Debug, Clone, Default)]
pub struct Runtime {
    config: RuntimeConfig,
}

impl Runtime {
    /// Build a runtime from a configuration; a worker count of 0 is taken
    /// as 1.
    pub fn new(config: RuntimeConfig) -> Self {
        Self {
            config: RuntimeConfig::with_workers(config.workers),
        }
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
        broadcast(n_workers, &|w| {
            worker_loop(
                w,
                program,
                &*pool,
                &counters,
                shared.as_ref(),
                &completed,
                &poisoned,
                total,
                &body,
                &fired[w],
                &empty[w],
            )
        });
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
    /// no helper involved. Otherwise the calling thread is worker 0 and
    /// coordinates the helpers that join, one *wave* per phase. It splits
    /// the phase into about four contiguous chunks per worker (coarse
    /// enough to amortize deque traffic, fine enough that a straggler's
    /// tail gets stolen), stores the wave's chunk count in a countdown with
    /// `Release`, deals the chunks round-robin into per-worker deques
    /// ([`fgsupport::deque`]), and then works the wave itself until an
    /// `Acquire` read of the countdown sees zero. Workers pop their own
    /// deque LIFO and otherwise steal FIFO, starting the victim scan at a
    /// [`StealOrder`]-randomized peer so no deque is systematically drained
    /// last; the deque of a worker no helper joined as is simply drained by
    /// steals. Every finished chunk ends with a `fetch_sub(1, AcqRel)`. The
    /// release sequence on that counter makes every body of a wave
    /// happen-before the coordinator's zero read, and the next wave's
    /// chunks are published through the deque locks: that is the
    /// cross-phase happens-before edge the phases' data dependencies need.
    ///
    /// # Panics
    ///
    /// A panicking body is caught per chunk and poisons the run: the wave
    /// still drains (poisoned chunks skip their bodies but always
    /// decrement, so the barrier cannot deadlock), later phases are not
    /// dealt, and the first payload is re-raised on this thread after
    /// every joined helper has left the run (see the module docs' *Panic
    /// semantics*). With one worker the panic simply unwinds out of the
    /// inline loop.
    pub fn run_phased(
        &self,
        phases: &[Vec<CodeletId>],
        body: impl Fn(CodeletId) + Sync,
    ) -> RunStats {
        let n_workers = self.config.workers;
        let start = Instant::now();
        if n_workers == 1 {
            // The degenerate wave order, without deques or helpers.
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
        // back through `broadcast`), so their Release/Acquire pairs only
        // order the flag itself.
        let done = AtomicBool::new(false);
        let poisoned = AtomicBool::new(false);
        let fired: Vec<AtomicU64> = (0..n_workers).map(|_| AtomicU64::new(0)).collect();
        let empty: Vec<AtomicU64> = (0..n_workers).map(|_| AtomicU64::new(0)).collect();

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
        // Worker 0 (the caller) deals and works each wave, then stops the
        // helpers; every other worker works until stopped.
        let coordinate = |tally: &mut Tally| {
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
                work(0, tally, &wave_done);
            }
            done.store(true, Ordering::Release);
        };

        broadcast(n_workers, &|me| {
            let mut tally = Tally::default();
            if me == 0 {
                coordinate(&mut tally);
            } else {
                work(me, &mut tally, &|| done.load(Ordering::Acquire));
            }
            fired[me].store(tally.fired, Ordering::Relaxed);
            empty[me].store(tally.empty, Ordering::Relaxed);
            if let Some(payload) = tally.payload {
                std::panic::resume_unwind(payload);
            }
        });
        let fired_per_worker: Vec<u64> = fired.iter().map(|f| f.load(Ordering::Relaxed)).collect();
        RunStats {
            total_fired: fired_per_worker.iter().sum(),
            fired_per_worker,
            empty_pops_per_worker: empty.iter().map(|e| e.load(Ordering::Relaxed)).collect(),
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
    payload: Option<Payload>,
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

/// A panic payload on its way back to a run's caller.
type Payload = Box<dyn Any + Send>;

/// The process-wide helper pool, in spawn order. Helpers are leaked: their
/// threads serve runs for the rest of the process.
static HELPERS: Mutex<Vec<&'static Helper>> = Mutex::new(Vec::new());

/// [`Helper::slot`] of a helper waiting for a run.
const IDLE: usize = 0;
/// [`Helper::slot`] of a helper that has joined a run.
const BUSY: usize = 1;

/// One pool thread's mailbox, on a cache line of its own: the helper spins
/// on it while callers offer and revoke runs on its neighbours.
#[repr(align(64))]
struct Helper {
    /// [`IDLE`], [`BUSY`], or the address of the [`Job`] offered to it.
    slot: AtomicUsize,
    /// Set before the helper is published in [`HELPERS`].
    thread: OnceLock<Thread>,
}

/// One run as its helpers see it. It lives on the caller's stack for the
/// duration of [`broadcast`].
struct Job<'a> {
    work: &'a (dyn Fn(usize) + Sync),
    /// The worker index the next joining helper takes.
    next: AtomicUsize,
    /// Joined helpers that have left the run.
    left: AtomicUsize,
    /// The first panic payload a worker raised.
    panic: Mutex<Option<Payload>>,
}

impl Job<'_> {
    /// Work as worker `w`, catching a panic into the job.
    fn participate(&self, w: usize) {
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| (self.work)(w))) {
            self.panic.lock().get_or_insert(payload);
        }
    }
}

/// Run `work(0)` on the calling thread and `work(w)`, `w` in
/// `1..workers`, on each pool helper that joins; return once every joined
/// helper has left, re-raising the first panic any of them raised.
///
/// The handoff, per helper slot:
///
/// * **offer** — the caller CASes an idle helper's slot from [`IDLE`] to
///   the job's address (`Release`, publishing the job) and unparks it;
/// * **join** — the helper CASes its slot from that address to [`BUSY`]
///   (`Acquire`), and only a helper that won this CAS ever reads the job;
/// * **revoke** — once its own share is done the caller CASes every slot
///   it offered from the address back to [`IDLE`] (`Relaxed`: a success
///   publishes nothing, a failure is followed by the wait on `left`). A
///   revoke that succeeds means the helper never joined and, waking late,
///   finds no address to take; a revoke that fails means it joined;
/// * **leave** — a joined helper's last touch of the job is
///   `left.fetch_add(1, Release)`, and the caller waits (`Acquire`) until
///   `left` equals the number of failed revokes.
///
/// So the job, and every borrow `work` holds, outlives each access a
/// helper makes to it, as with a scoped thread. A helper that read a stale
/// address can only win its CAS if its slot offers a live job at that
/// address again, which it may then join. Helpers busy elsewhere are not
/// offered the job, so `work` must finish with whichever workers join.
fn broadcast(workers: usize, work: &(dyn Fn(usize) + Sync)) {
    if workers <= 1 {
        work(0);
        return;
    }
    let job = Job {
        work,
        next: AtomicUsize::new(1),
        left: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    let addr = &job as *const Job<'_> as usize;
    let offered = offer(addr, workers - 1);
    job.participate(0);
    let joined = offered
        .iter()
        .filter(|h| {
            h.slot
                .compare_exchange(addr, IDLE, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        })
        .count();
    let backoff = Backoff::new();
    while job.left.load(Ordering::Acquire) < joined {
        backoff.snooze();
    }
    if let Some(payload) = job.panic.into_inner() {
        std::panic::resume_unwind(payload);
    }
}

/// Offer the job at `addr` to up to `wanted` idle helpers, first growing
/// the pool to `wanted` threads. Returns the helpers it was offered to.
fn offer(addr: usize, wanted: usize) -> Vec<&'static Helper> {
    let mut offered = Vec::with_capacity(wanted);
    {
        let mut helpers = HELPERS.lock();
        while helpers.len() < wanted {
            // A host out of threads runs on the helpers it has.
            let Some(helper) = spawn_helper() else { break };
            helpers.push(helper);
        }
        for &helper in helpers.iter() {
            if offered.len() == wanted {
                break;
            }
            if helper
                .slot
                .compare_exchange(IDLE, addr, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                offered.push(helper);
            }
        }
    }
    for helper in &offered {
        helper.thread.get().expect("published helper").unpark();
    }
    offered
}

/// Start one pool thread; `None` if the host refuses a thread. Its handle
/// is dropped: the thread serves runs until the process exits, and
/// [`Job::participate`] catches every panic, so there is nothing to join.
fn spawn_helper() -> Option<&'static Helper> {
    let helper: &'static Helper = Box::leak(Box::new(Helper {
        slot: AtomicUsize::new(IDLE),
        thread: OnceLock::new(),
    }));
    let handle = std::thread::Builder::new()
        .name("codelet-helper".into())
        .spawn(move || serve(helper))
        .ok()?;
    let _ = helper.thread.set(handle.thread().clone());
    Some(helper)
}

/// A helper's life: wait for an offer (spinning, then parked), join, work,
/// leave; forever.
fn serve(me: &Helper) {
    loop {
        let backoff = Backoff::new();
        let addr = loop {
            let slot = me.slot.load(Ordering::Relaxed);
            if slot > BUSY
                && me
                    .slot
                    .compare_exchange(slot, BUSY, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break slot;
            }
            if backoff.is_completed() {
                std::thread::park();
            } else {
                backoff.snooze();
            }
        };
        // SAFETY: winning the join CAS means the caller's revoke of this
        // slot fails, so it waits for `left` below before its stack frame,
        // and the job in it, goes away (see `broadcast`).
        let job = unsafe { &*(addr as *const Job<'_>) };
        // `Relaxed`: the claim publishes nothing, it only hands out
        // distinct indices.
        job.participate(job.next.fetch_add(1, Ordering::Relaxed));
        // Idle again before leaving, so the caller's next run can already
        // offer this helper a job when its wait for `left` ends.
        me.slot.store(IDLE, Ordering::Release);
        job.left.fetch_add(1, Ordering::Release);
    }
}

/// The fine-grain worker loop: pop, fire, signal, push. A body that panics
/// poisons the run, so every peer drains out, and the panic continues on
/// to [`broadcast`], which re-raises it on the caller.
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
) where
    P: CodeletProgram + ?Sized,
{
    let mut children = Vec::new();
    let mut groups: Vec<usize> = Vec::new();
    let mut members = Vec::new();
    let backoff = Backoff::new();
    loop {
        if poisoned.load(Ordering::Acquire) {
            return;
        }
        match pool.pop(worker) {
            Some(id) => {
                backoff.reset();
                if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| body(id))) {
                    // Poison the run so peers stop waiting for a completion
                    // count that will never be reached.
                    poisoned.store(true, Ordering::Release);
                    std::panic::resume_unwind(payload);
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
                    return;
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

    /// A zero-worker configuration (the field is public) runs as one
    /// worker: every codelet fires, nothing divides by zero.
    #[test]
    fn zero_worker_config_runs_as_one_worker() {
        let rt = Runtime::new(RuntimeConfig { workers: 0 });
        assert_eq!(rt.workers(), 1);
        let g = layered_graph(3, 4);
        let fired = AtomicU32::new(0);
        let count = |_| {
            fired.fetch_add(1, Ordering::Relaxed);
        };
        assert_eq!(rt.run(&g, PoolDiscipline::Lifo, count).total_fired, 12);
        let seeds = g.initial_ready();
        let stats = rt.run_partial(&g, PoolDiscipline::Fifo, &seeds, 12, count);
        assert_eq!(stats.total_fired, 12);
        assert_eq!(stats.fired_per_worker.len(), 1);
        let stats = rt.run_phased(&[vec![0, 1, 2], vec![3, 4]], count);
        assert_eq!(stats.total_fired, 5);
        assert_eq!(fired.load(Ordering::Relaxed), 29);
    }

    /// Back-to-back runs reuse the pool's threads: no run fires on more
    /// than `workers` threads, and all runs together on no more helper
    /// threads than the pool holds.
    #[test]
    fn helpers_are_reused_across_runs() {
        let g = layered_graph(4, 16);
        let seeds = g.initial_ready();
        let rt = Runtime::with_workers(2);
        let caller = std::thread::current().id();
        let mut helpers = std::collections::HashSet::new();
        for _ in 0..200 {
            let threads = Mutex::new(std::collections::HashSet::new());
            let stats = rt.run_partial(&g, PoolDiscipline::Lifo, &seeds, g.len(), |_| {
                threads.lock().insert(std::thread::current().id());
            });
            assert_eq!(stats.total_fired, 64);
            assert_eq!(stats.fired_per_worker.len(), 2);
            let threads = threads.into_inner();
            assert!(
                threads.len() <= 2,
                "one run fired on {} threads",
                threads.len()
            );
            helpers.extend(threads.into_iter().filter(|&t| t != caller));
        }
        let pool = HELPERS.lock().len();
        assert!(pool >= 1, "a 2-worker run starts the pool");
        assert!(
            helpers.len() <= pool,
            "{} helper threads fired across runs, pool holds {pool}",
            helpers.len()
        );
    }

    /// A poisoned run leaves its helpers alive and free: the next run on
    /// the same runtime fires every codelet exactly once.
    #[test]
    fn poisoned_run_leaves_the_pool_usable() {
        let g = layered_graph(3, 16);
        let seeds = g.initial_ready();
        for workers in [1, 3] {
            let rt = Runtime::with_workers(workers);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                rt.run_partial(&g, PoolDiscipline::WorkSteal, &seeds, g.len(), |id| {
                    if id == 5 {
                        panic!("boom");
                    }
                });
            }));
            let payload = caught.expect_err("panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
            let counts: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
            let stats = rt.run_partial(&g, PoolDiscipline::WorkSteal, &seeds, g.len(), |id| {
                counts[id].fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(stats.total_fired, 48, "workers={workers}");
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "workers={workers}"
            );
        }
    }

    /// A body that itself runs a program must not wait for helpers that
    /// are busy with the run it is part of.
    #[test]
    fn nested_run_partial_completes() {
        let outer = layered_graph(2, 8);
        let inner = layered_graph(3, 4);
        let inner_seeds = inner.initial_ready();
        let rt = Runtime::with_workers(2);
        let fired = AtomicU32::new(0);
        let stats = rt.run(&outer, PoolDiscipline::Lifo, |_| {
            let stats = rt.run_partial(&inner, PoolDiscipline::Fifo, &inner_seeds, 12, |_| {
                fired.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(stats.total_fired, 12);
        });
        assert_eq!(stats.total_fired, 16);
        assert_eq!(fired.load(Ordering::Relaxed), 16 * 12);
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
