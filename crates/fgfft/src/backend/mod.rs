//! Pluggable execution backends for plans.
//!
//! A [`crate::planner::Plan`] fixes *what* to compute — the certified
//! codelet schedule and the flattened per-stage gather/butterfly/twiddle
//! tables — but until now there was exactly one way to *run* it: the
//! scalar, schedule-driven hot path inside `Plan::execute_batch`. This
//! module splits that decision out behind a [`Backend`] trait so the same
//! certified plan can be driven by different engines:
//!
//! * [`HostScalar`] — the historical tables-driven path, extracted behind
//!   the trait. Bit-for-bit and instruction-for-instruction the code that
//!   `Plan::execute_batch` itself runs.
//! * [`HostSimd`] — f64x4 complex butterflies (two complex lanes per
//!   vector) over the same tables, via `core::arch` AVX2 on `x86_64` with
//!   a portable four-lane fallback everywhere else. Radix-4 or radix-8
//!   register-fused passes over each codelet's local buffer; the SIMD
//!   module's source documents why the FG40x-verified table shape is the
//!   aliasing precondition for the vector loads.
//! * [`Threaded`] — a schedule choice rather than an engine: the plan's
//!   stage phases (one barrier per stage, a topological strengthening of
//!   every certified schedule) on the shared barrier executor,
//!   [`codelet::Runtime::run_phased`], wrapping any serial backend's
//!   kernel.
//!
//! No backend owns threads: every [`PreparedPlan`] runs through the plan's
//! single schedule dispatch on the caller's [`Runtime`].
//!
//! The split keeps the certificate story intact: a backend never builds
//! tables of its own, it only consumes the plan's — so a certificate over
//! the plan covers execution under every backend, and the cross-backend
//! exactness suite pins all of them to identical bits.
//!
//! Selection is a plain value, [`BackendSel`], that serializes into wisdom
//! (schema v3) so the autotuner can learn scalar-vs-SIMD-vs-threaded and
//! kernel radix per `(N, machine)`.

mod scalar;
mod simd;
mod threaded;

pub use scalar::{HostScalar, ScalarKernel};
pub use simd::HostSimd;
pub use threaded::Threaded;

use crate::complex::Complex64;
use crate::exec::shared::SharedData;
use crate::exec::ExecStats;
use crate::planner::{Dispatch, Plan};
use codelet::runtime::Runtime;
use std::sync::Arc;

/// The butterfly arithmetic of one codelet, abstracted over the engine.
///
/// A kernel receives exactly the per-codelet table slices the scalar hot
/// path streams — the gather run (global element indices), the stage's
/// butterfly pair pattern over the local buffer, and the codelet's twiddle
/// run, one factor per butterfly in pair order — and must leave the same
/// bits behind as [`crate::exec::shared::execute_codelet_tabled`] would.
/// Schedules, tables, and certificates are backend-independent; only this
/// innermost loop varies.
pub trait CodeletKernel: Send + Sync {
    /// Short human-readable identity (used in fingerprints and stats).
    fn label(&self) -> &'static str;

    /// Execute one codelet over `view`.
    ///
    /// # Safety
    /// The caller upholds the dataflow discipline documented in
    /// [`crate::exec::shared`]: this codelet owns the elements named by
    /// `gather` for the duration of the call, and every `gather` index is
    /// in bounds for `view`.
    unsafe fn run_codelet(
        &self,
        gather: &[u32],
        pairs: &[(u32, u32)],
        twiddles: &[Complex64],
        view: &SharedData<'_>,
    );
}

/// What an execution backend can do, for fingerprinting and tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capabilities {
    /// Vector instruction set the butterfly kernel uses: `"scalar"`,
    /// `"portable"` (four-lane fallback) or `"avx2"`.
    pub vector_isa: &'static str,
    /// Complex values processed per vector operation (1 for scalar).
    pub complex_lanes: usize,
    /// Whether the backend distributes codelets over its own worker pool.
    pub threaded: bool,
}

/// An execution engine for certified plans.
///
/// `prepare` binds a plan to the backend's kernel (verifying any
/// preconditions the kernel needs, e.g. the canonical butterfly pattern
/// for vector loads) and returns a [`PreparedPlan`] that executes batches.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Stable identity of the backend family (e.g. `"host-scalar"`).
    fn name(&self) -> &'static str;

    /// Capability report for this instance on this machine.
    fn capabilities(&self) -> Capabilities;

    /// Machine-facing identity string: which engine, which ISA, how many
    /// lanes. Two equal fingerprints execute plans identically.
    fn fingerprint(&self) -> String {
        let caps = self.capabilities();
        format!(
            "{}:{}x{}{}",
            self.name(),
            caps.vector_isa,
            caps.complex_lanes,
            if caps.threaded { ":threaded" } else { "" }
        )
    }

    /// Bind `plan` to this backend's execution strategy.
    fn prepare(&self, plan: &Arc<Plan>) -> PreparedPlan;
}

/// How a [`PreparedPlan`] drives its plan.
enum ExecMode {
    /// The historical scalar path, monomorphized inside `Plan` itself.
    Scalar,
    /// An alternate butterfly kernel over the plan's own schedule
    /// ([`Dispatch::Planned`]) or its stage phases ([`Dispatch::Staged`]).
    Kernel(Arc<dyn CodeletKernel>, Dispatch),
}

impl std::fmt::Debug for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Scalar => write!(f, "Scalar"),
            ExecMode::Kernel(k, dispatch) => write!(f, "Kernel({}, {dispatch:?})", k.label()),
        }
    }
}

/// A plan bound to a backend, ready to execute batches.
///
/// Holds the `Arc<Plan>` (tables, schedule, certificate scope) plus the
/// backend's chosen kernel; nothing about the plan itself is copied or
/// re-lowered, so a certificate verified against the plan covers every
/// prepared form of it.
#[derive(Debug)]
pub struct PreparedPlan {
    plan: Arc<Plan>,
    mode: ExecMode,
    fingerprint: String,
}

impl PreparedPlan {
    /// The plan this preparation wraps.
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// Fingerprint of the backend that prepared this plan.
    pub fn backend_fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The serial kernel equivalent of this preparation — what a wrapping
    /// backend (e.g. [`Threaded`]) should run per codelet.
    pub(crate) fn serial_kernel(&self) -> Arc<dyn CodeletKernel> {
        match &self.mode {
            ExecMode::Scalar => Arc::new(ScalarKernel),
            ExecMode::Kernel(k, _) => Arc::clone(k),
        }
    }

    /// In-place forward transform of one buffer; bit-identical to
    /// [`Plan::execute`] for every backend.
    pub fn execute(&self, data: &mut [Complex64], runtime: &Runtime) -> ExecStats {
        match &self.mode {
            ExecMode::Scalar => self.plan.execute(data, runtime),
            ExecMode::Kernel(k, dispatch) => self.plan.execute_with(&**k, *dispatch, data, runtime),
        }
    }

    /// In-place forward transform of a batch of same-plan buffers;
    /// bit-identical to [`Plan::execute_batch`] for every backend.
    pub fn execute_batch(&self, buffers: &mut [&mut [Complex64]], runtime: &Runtime) -> ExecStats {
        match &self.mode {
            ExecMode::Scalar => self.plan.execute_batch(buffers, runtime),
            ExecMode::Kernel(k, dispatch) => self
                .plan
                .execute_batch_with(&**k, *dispatch, buffers, runtime),
        }
    }

    fn new(plan: &Arc<Plan>, mode: ExecMode, backend: &dyn Backend) -> Self {
        Self {
            plan: Arc::clone(plan),
            mode,
            fingerprint: backend.fingerprint(),
        }
    }
}

/// Backend family, the coarse axis of [`BackendSel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// [`HostScalar`]: the historical scalar hot path.
    #[default]
    Scalar,
    /// [`HostSimd`]: vectorized butterflies on the serial schedule.
    Simd,
    /// [`Threaded`] wrapping [`HostScalar`].
    ThreadedScalar,
    /// [`Threaded`] wrapping [`HostSimd`].
    ThreadedSimd,
}

/// A serializable backend choice: which engine runs the plan, and the
/// register-fusion radix of the SIMD kernel (log2: 2 = radix-4 passes,
/// 3 = radix-8 passes). This is the value wisdom learns per
/// `(N, machine)` and `ServeConfig`/`TuningSpace` select on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackendSel {
    /// Engine family.
    pub kind: BackendKind,
    /// SIMD kernel fusion radix exponent (2 or 3); ignored by scalar kinds.
    pub simd_radix_log2: u32,
}

impl Default for BackendSel {
    fn default() -> Self {
        Self::SCALAR
    }
}

impl BackendSel {
    /// The historical scalar path (the default, and the safe fallback).
    pub const SCALAR: Self = Self {
        kind: BackendKind::Scalar,
        simd_radix_log2: 3,
    };

    /// SIMD backend with radix-8 register fusion.
    pub const SIMD: Self = Self {
        kind: BackendKind::Simd,
        simd_radix_log2: 3,
    };

    /// Threaded pool over the SIMD kernel (radix-8 fusion).
    pub const THREADED_SIMD: Self = Self {
        kind: BackendKind::ThreadedSimd,
        simd_radix_log2: 3,
    };

    /// Threaded pool over the scalar kernel.
    pub const THREADED_SCALAR: Self = Self {
        kind: BackendKind::ThreadedScalar,
        simd_radix_log2: 3,
    };

    /// Instantiate the selected backend.
    pub fn build(&self) -> Arc<dyn Backend> {
        match self.kind {
            BackendKind::Scalar => Arc::new(HostScalar),
            BackendKind::Simd => Arc::new(HostSimd::new(self.simd_radix_log2)),
            BackendKind::ThreadedScalar => Arc::new(Threaded::new(Arc::new(HostScalar))),
            BackendKind::ThreadedSimd => {
                Arc::new(Threaded::new(Arc::new(HostSimd::new(self.simd_radix_log2))))
            }
        }
    }

    /// Canonical name of the engine family (stable; stored in wisdom).
    pub fn kind_str(&self) -> &'static str {
        match self.kind {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
            BackendKind::ThreadedScalar => "threaded-scalar",
            BackendKind::ThreadedSimd => "threaded-simd",
        }
    }

    /// Parse a selection: an engine name (`scalar`, `simd`,
    /// `threaded-scalar`, `threaded-simd`, or `threaded` as an alias for
    /// `threaded-simd`) with an optional `-r4`/`-r8` fusion-radix suffix
    /// on the SIMD kinds (default radix-8). A suffix on a scalar kind is
    /// rejected, so `parse(&sel.to_string()) == Some(sel)` for every
    /// selection.
    pub fn parse(s: &str) -> Option<Self> {
        let (base, radix) = match s.strip_suffix("-r4") {
            Some(b) => (b, Some(2)),
            None => match s.strip_suffix("-r8") {
                Some(b) => (b, Some(3)),
                None => (s, None),
            },
        };
        let kind = match base {
            "scalar" => BackendKind::Scalar,
            "simd" => BackendKind::Simd,
            "threaded-scalar" => BackendKind::ThreadedScalar,
            "threaded-simd" | "threaded" => BackendKind::ThreadedSimd,
            _ => return None,
        };
        let scalar = matches!(kind, BackendKind::Scalar | BackendKind::ThreadedScalar);
        if scalar && radix.is_some() {
            return None;
        }
        Some(Self {
            kind,
            simd_radix_log2: radix.unwrap_or(3),
        })
    }

    /// Parse an engine-family name alone (no radix suffix); used by the
    /// wisdom decoder where the radix travels in its own field.
    pub fn kind_from_str(s: &str) -> Option<BackendKind> {
        Some(match s {
            "scalar" => BackendKind::Scalar,
            "simd" => BackendKind::Simd,
            "threaded-scalar" => BackendKind::ThreadedScalar,
            "threaded-simd" => BackendKind::ThreadedSimd,
            _ => return None,
        })
    }
}

impl std::fmt::Display for BackendSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            BackendKind::Scalar | BackendKind::ThreadedScalar => write!(f, "{}", self.kind_str()),
            BackendKind::Simd | BackendKind::ThreadedSimd => {
                write!(f, "{}-r{}", self.kind_str(), 1u32 << self.simd_radix_log2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{SeedOrder, Version};
    use crate::planner::PlanKey;

    #[test]
    fn selection_round_trips_through_strings() {
        for sel in [
            BackendSel::SCALAR,
            BackendSel::SIMD,
            BackendSel {
                kind: BackendKind::Simd,
                simd_radix_log2: 2,
            },
            BackendSel::THREADED_SCALAR,
            BackendSel::THREADED_SIMD,
        ] {
            let shown = sel.to_string();
            assert_eq!(BackendSel::parse(&shown), Some(sel), "{shown}");
            assert_eq!(BackendSel::kind_from_str(sel.kind_str()), Some(sel.kind));
        }
        assert_eq!(
            BackendSel::parse("threaded").map(|s| s.kind),
            Some(BackendKind::ThreadedSimd)
        );
        assert_eq!(
            BackendSel::parse("simd-r4").map(|s| s.simd_radix_log2),
            Some(2)
        );
        assert_eq!(BackendSel::parse("gpu"), None);
        // The fusion suffix belongs to the SIMD kinds only.
        for bad in [
            "scalar-r4",
            "scalar-r8",
            "threaded-scalar-r4",
            "threaded-scalar-r8",
        ] {
            assert_eq!(BackendSel::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn fingerprints_distinguish_backends() {
        let plan = std::sync::Arc::new(crate::planner::Plan::build(PlanKey::new(
            1 << 8,
            Version::Fine(SeedOrder::Natural),
            Version::Fine(SeedOrder::Natural).layout(),
        )));
        let mut prints = std::collections::HashSet::new();
        for sel in [
            BackendSel::SCALAR,
            BackendSel::SIMD,
            BackendSel::THREADED_SIMD,
        ] {
            let backend = sel.build();
            let prepared = backend.prepare(&plan);
            assert_eq!(prepared.backend_fingerprint(), backend.fingerprint());
            prints.insert(backend.fingerprint());
        }
        assert_eq!(prints.len(), 3, "{prints:?}");
    }
}
