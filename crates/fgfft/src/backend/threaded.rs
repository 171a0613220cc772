//! The threaded backend: a schedule choice, not an executor. It runs the
//! plan's stage phases — stage `s` is codelet ids `s·cps..(s+1)·cps` of
//! every buffer of the batch, `cps` the codelets per stage — through the
//! plan's own dispatch ([`Dispatch::Staged`]) on the shared barrier
//! executor, [`codelet::Runtime::run_phased`], with any serial backend's
//! kernel.
//!
//! Running stage-by-stage is a topological strengthening of every
//! certified schedule (coarse, fine, or guided), so the arithmetic — and
//! with it the output bits — is identical to the serial path for all five
//! paper versions and every transform kind. The wave protocol, its
//! happens-before argument and its panic contract are documented on
//! `run_phased`.

use super::{Backend, Capabilities, ExecMode, PreparedPlan};
use crate::planner::{Dispatch, Plan};
use std::sync::Arc;

/// Stage-phased threaded backend wrapping any serial backend's kernel.
pub struct Threaded {
    inner: Arc<dyn Backend>,
}

impl Threaded {
    /// Threaded execution of `inner`'s butterfly kernel. The pool size is
    /// taken from the `Runtime` passed at execution time.
    pub fn new(inner: Arc<dyn Backend>) -> Self {
        Self { inner }
    }
}

impl std::fmt::Debug for Threaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Threaded")
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl Backend for Threaded {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            threaded: true,
            ..self.inner.capabilities()
        }
    }

    fn prepare(&self, plan: &Arc<Plan>) -> PreparedPlan {
        let kernel = self.inner.prepare(plan).serial_kernel();
        PreparedPlan::new(plan, ExecMode::Kernel(kernel, Dispatch::Staged), self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendSel, CodeletKernel, HostScalar, HostSimd};
    use crate::complex::Complex64;
    use crate::exec::shared::SharedData;
    use crate::exec::{SeedOrder, Version};
    use crate::planner::PlanKey;
    use codelet::runtime::Runtime;
    use fgsupport::rng::Rng64;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = Rng64::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex64::new(rng.gen_f64() - 0.5, rng.gen_f64() - 0.5))
            .collect()
    }

    fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
        data.iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    #[test]
    fn threaded_matches_scalar_for_every_version_and_worker_count() {
        for version in Version::paper_set(SeedOrder::Natural) {
            let key = PlanKey::new(1 << 10, version, version.layout());
            let plan = Arc::new(Plan::build(key));
            let input = signal(1 << 10, 42);
            let mut want = input.clone();
            plan.execute(&mut want, &Runtime::with_workers(1));
            for workers in [1, 2, 4] {
                let runtime = Runtime::with_workers(workers);
                for inner in [BackendSel::THREADED_SCALAR, BackendSel::THREADED_SIMD] {
                    let mut got = input.clone();
                    let stats = inner.build().prepare(&plan).execute(&mut got, &runtime);
                    assert_eq!(bits(&want), bits(&got), "{version:?} workers={workers}");
                    assert_eq!(stats.codelets, plan.fft_plan().total_codelets() as u64);
                    assert_eq!(stats.barriers, plan.fft_plan().stages() as u64);
                }
            }
        }
    }

    #[test]
    fn threaded_batch_matches_per_buffer_execution() {
        let key = PlanKey::new(
            1 << 9,
            Version::Fine(SeedOrder::Natural),
            Version::Fine(SeedOrder::Natural).layout(),
        );
        let plan = Arc::new(Plan::build(key));
        let runtime = Runtime::with_workers(3);
        let prepared = Threaded::new(Arc::new(HostSimd::new(3))).prepare(&plan);
        let inputs: Vec<Vec<Complex64>> = (0..4).map(|i| signal(1 << 9, 100 + i)).collect();
        let mut want = inputs.clone();
        for buf in want.iter_mut() {
            plan.execute(buf, &Runtime::with_workers(1));
        }
        let mut got = inputs.clone();
        let mut refs: Vec<&mut [Complex64]> = got.iter_mut().map(|b| b.as_mut_slice()).collect();
        prepared.execute_batch(&mut refs, &runtime);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(bits(w), bits(g));
        }
    }

    /// The tsan-covered smoke of the stage-barrier protocol: repeated
    /// batched waves under a contended pool, checked for bit-exactness —
    /// any missing happens-before edge between waves is a data race tsan
    /// flags, and any premature barrier release corrupts the bits.
    #[test]
    fn threaded_stage_barrier_smoke() {
        let key = PlanKey::new(1 << 8, Version::FineGuided, Version::FineGuided.layout());
        let plan = Arc::new(Plan::build(key));
        let runtime = Runtime::with_workers(4);
        let prepared = Threaded::new(Arc::new(HostScalar)).prepare(&plan);
        let input = signal(1 << 8, 9);
        let mut want = input.clone();
        plan.execute(&mut want, &Runtime::with_workers(1));
        for _ in 0..16 {
            let mut bufs: Vec<Vec<Complex64>> = (0..3).map(|_| input.clone()).collect();
            let mut refs: Vec<&mut [Complex64]> =
                bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            prepared.execute_batch(&mut refs, &runtime);
            for b in &bufs {
                assert_eq!(bits(&want), bits(b));
            }
        }
    }

    /// A panicking codelet must poison the pool, not deadlock the barrier,
    /// and the panic must resurface on the caller's thread.
    #[test]
    fn poisoned_wave_propagates_the_panic() {
        struct Grenade;
        impl CodeletKernel for Grenade {
            fn label(&self) -> &'static str {
                "grenade"
            }
            unsafe fn run_codelet(
                &self,
                _gather: &[u32],
                _pairs: &[(u32, u32)],
                _twiddles: &[Complex64],
                _view: &SharedData<'_>,
            ) {
                panic!("boom");
            }
        }
        let key = PlanKey::new(1 << 8, Version::Coarse, Version::Coarse.layout());
        let plan = Arc::new(Plan::build(key));
        let prepared = PreparedPlan::new(
            &plan,
            ExecMode::Kernel(Arc::new(Grenade), Dispatch::Staged),
            &Threaded::new(Arc::new(HostScalar)),
        );
        let runtime = Runtime::with_workers(3);
        let mut buf = signal(1 << 8, 3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            prepared.execute_batch(&mut [&mut buf], &runtime);
        }));
        let msg = caught.expect_err("panic must propagate");
        assert_eq!(msg.downcast_ref::<&str>(), Some(&"boom"));
    }
}
