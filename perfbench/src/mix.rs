//! Transform jobs, their seeded inputs and reference outputs, and the
//! in-bench floors the library is compared against.
//!
//! A [`Job`] names one transform of the library's default engine
//! (guided fine-grain, 64-point codelets). A [`Case`] is one seeded input
//! of a job with its reference output, computed once by
//! `fgfft::reference::recursive_fft` outside any timed interval.

use fgfft::reference::recursive_fft;
use fgfft::stockham::stockham_fft;
use fgfft::{Complex64, PlanKey, TransformKind, Version};
use fgsupport::rng::Rng64;
use std::collections::BTreeMap;
use std::f64::consts::PI;

/// Relative L2 error allowed per log2 N, in units of machine epsilon: the
/// O(ε·log2 N) accuracy bound every checked output is held to.
pub const TOLERANCE_EPS_PER_LOG2N: f64 = 16.0;

/// One transform through the library's default engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Job {
    /// Forward complex transform of `n` points.
    C2c(usize),
    /// Forward real transform of `n` samples (`n/2 + 1` bins out).
    R2c(usize),
    /// Inverse real transform back to `n` samples.
    C2r(usize),
    /// Forward 2D complex transform of a row-major `rows × cols` plane.
    C2c2d { rows: usize, cols: usize },
}

impl Job {
    /// Logical size: points, real samples, or `rows · cols`.
    pub fn n(self) -> usize {
        match self {
            Job::C2c(n) | Job::R2c(n) | Job::C2r(n) => n,
            Job::C2c2d { rows, cols } => rows * cols,
        }
    }

    pub fn kind(self) -> TransformKind {
        match self {
            Job::C2c(_) => TransformKind::C2C,
            Job::R2c(_) => TransformKind::R2C,
            Job::C2r(_) => TransformKind::C2R,
            Job::C2c2d { rows, cols } => TransformKind::C2C2D {
                rows_log2: rows.trailing_zeros(),
                cols_log2: cols.trailing_zeros(),
            },
        }
    }

    /// The plan key the library's default engine resolves for this job.
    pub fn key(self) -> PlanKey {
        let version = Version::FineGuided;
        PlanKey::with_kind(self.kind(), self.n(), version, version.layout(), 6)
    }

    /// Complex slots of the plan's execution buffer (and of a wire slot).
    pub fn buffer_len(self) -> usize {
        self.key().buffer_len()
    }

    /// Nominal flop count: 5·N·log2 N for complex transforms, half that
    /// for the real ones.
    pub fn flops(self) -> f64 {
        let n = self.n() as f64;
        let complex = 5.0 * n * n.log2();
        match self {
            Job::R2c(_) | Job::C2r(_) => complex / 2.0,
            _ => complex,
        }
    }

    pub fn tolerance(self) -> f64 {
        TOLERANCE_EPS_PER_LOG2N * f64::EPSILON * (self.n() as f64).log2()
    }
}

/// One seeded input of a job and its reference output.
#[derive(Debug, Clone)]
pub struct Case {
    pub job: Job,
    /// Complex input: the signal for c2c/2D, the half spectrum for c2r.
    pub input: Vec<Complex64>,
    /// Real input signal (r2c only).
    pub real: Vec<f64>,
    /// The same input in the plan's execution-buffer layout (packed
    /// halves for the real kinds): what `Plan::execute` and a wire slot
    /// take.
    pub packed: Vec<Complex64>,
    /// Reference output; c2r outputs are real and stored with zero
    /// imaginary parts.
    pub expected: Vec<Complex64>,
}

fn random_complex(rng: &mut Rng64, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|_| Complex64::new(rng.gen_range_f64(-1.0..1.0), rng.gen_range_f64(-1.0..1.0)))
        .collect()
}

fn promote(x: &[f64]) -> Vec<Complex64> {
    x.iter().map(|&v| Complex64::new(v, 0.0)).collect()
}

/// Reference 2D transform: recursive FFT over every row, then every column.
fn reference_2d(input: &[Complex64], rows: usize, cols: usize) -> Vec<Complex64> {
    let mut out: Vec<Complex64> = input.chunks_exact(cols).flat_map(recursive_fft).collect();
    for c in 0..cols {
        let column: Vec<Complex64> = (0..rows).map(|r| out[r * cols + c]).collect();
        for (r, v) in recursive_fft(&column).into_iter().enumerate() {
            out[r * cols + c] = v;
        }
    }
    out
}

impl Case {
    pub fn new(job: Job, rng: &mut Rng64) -> Self {
        let n = job.n();
        let half = n / 2;
        match job {
            Job::C2c(_) => {
                let input = random_complex(rng, n);
                let expected = recursive_fft(&input);
                Self {
                    job,
                    packed: input.clone(),
                    input,
                    real: Vec::new(),
                    expected,
                }
            }
            Job::C2c2d { rows, cols } => {
                let input = random_complex(rng, n);
                let expected = reference_2d(&input, rows, cols);
                Self {
                    job,
                    packed: input.clone(),
                    input,
                    real: Vec::new(),
                    expected,
                }
            }
            Job::R2c(_) => {
                let real: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1.0..1.0)).collect();
                let mut expected = recursive_fft(&promote(&real));
                expected.truncate(half + 1);
                let packed = real
                    .chunks_exact(2)
                    .map(|p| Complex64::new(p[0], p[1]))
                    .collect();
                Self {
                    job,
                    input: Vec::new(),
                    real,
                    packed,
                    expected,
                }
            }
            Job::C2r(_) => {
                let signal: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1.0..1.0)).collect();
                let mut input = recursive_fft(&promote(&signal));
                input.truncate(half + 1);
                let mut packed = Vec::with_capacity(half);
                packed.push(Complex64::new(input[0].re, input[half].re));
                packed.extend_from_slice(&input[1..half]);
                Self {
                    job,
                    input,
                    real: Vec::new(),
                    packed,
                    expected: promote(&signal),
                }
            }
        }
    }

    /// `count` seeded cases of each job, job-major.
    pub fn generate(jobs: &[Job], count: usize, seed: u64) -> Vec<Vec<Case>> {
        let mut rng = Rng64::seed_from_u64(seed);
        jobs.iter()
            .map(|&job| (0..count).map(|_| Case::new(job, &mut rng)).collect())
            .collect()
    }
}

/// Relative L2 distance of `out` from `expected`.
pub fn rel_l2(out: impl Iterator<Item = Complex64>, expected: &[Complex64]) -> f64 {
    let mut err = 0.0;
    let mut norm = 0.0;
    let mut count = 0;
    for (o, e) in out.zip(expected) {
        err += (o - *e).norm_sqr();
        norm += e.norm_sqr();
        count += 1;
    }
    if count != expected.len() {
        return f64::INFINITY;
    }
    (err / norm.max(f64::MIN_POSITIVE)).sqrt()
}

/// Per-case output buffers, allocated once so that timed intervals hold
/// only the transform itself.
#[derive(Debug, Clone)]
pub struct Buffers {
    /// In-place data for c2c/2D.
    pub data: Vec<Complex64>,
    /// Packed half-size work area (real kinds) or transpose scratch (2D).
    pub scratch: Vec<Complex64>,
    /// r2c output bins.
    pub spectrum: Vec<Complex64>,
    /// c2r output samples.
    pub signal: Vec<f64>,
}

impl Buffers {
    pub fn for_job(job: Job) -> Self {
        let n = job.n();
        let (data, scratch) = match job {
            Job::C2c(_) => (n, 0),
            Job::C2c2d { .. } => (n, n),
            Job::R2c(_) | Job::C2r(_) => (0, n / 2),
        };
        Self {
            data: vec![Complex64::ZERO; data],
            scratch: vec![Complex64::ZERO; scratch],
            spectrum: vec![
                Complex64::ZERO;
                if matches!(job, Job::R2c(_)) {
                    n / 2 + 1
                } else {
                    0
                }
            ],
            signal: vec![0.0; if matches!(job, Job::C2r(_)) { n } else { 0 }],
        }
    }

    /// Copy an in-place job's input into place (untimed).
    pub fn load(&mut self, case: &Case) {
        if matches!(case.job, Job::C2c(_) | Job::C2c2d { .. }) {
            self.data.copy_from_slice(&case.input);
        }
    }

    /// Relative L2 error of the last output against the case's reference.
    pub fn error(&self, case: &Case) -> f64 {
        match case.job {
            Job::C2c(_) | Job::C2c2d { .. } => rel_l2(self.data.iter().copied(), &case.expected),
            Job::R2c(_) => rel_l2(self.spectrum.iter().copied(), &case.expected),
            Job::C2r(_) => rel_l2(
                self.signal.iter().map(|&v| Complex64::new(v, 0.0)),
                &case.expected,
            ),
        }
    }
}

/// A complex FFT the floors are built from.
pub trait ComplexFft {
    /// In-place forward transform of a power-of-two length it was built for.
    fn forward(&self, data: &mut [Complex64]);
}

/// Precomputed-twiddle iterative radix-2 loop: bit-reversal by a swap
/// list, then log2 N butterfly passes with table twiddles.
#[derive(Debug)]
pub struct Radix2 {
    swaps: Vec<(u32, u32)>,
    twiddles: Vec<Complex64>,
}

impl Radix2 {
    pub fn new(n: usize) -> Self {
        let bits = n.trailing_zeros();
        let swaps = (0..n)
            .filter_map(|i| {
                let j = if bits == 0 {
                    i
                } else {
                    i.reverse_bits() >> (usize::BITS - bits)
                };
                (i < j).then_some((i as u32, j as u32))
            })
            .collect();
        let twiddles = (0..n / 2)
            .map(|k| Complex64::expi(-2.0 * PI * k as f64 / n as f64))
            .collect();
        Self { swaps, twiddles }
    }

    pub fn forward(&self, data: &mut [Complex64]) {
        let n = data.len();
        debug_assert_eq!(n, self.twiddles.len() * 2);
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for (k, (a, b)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let t = self.twiddles[k * step] * *b;
                    *b = *a - t;
                    *a += t;
                }
            }
            len *= 2;
        }
    }
}

/// Radix-2 floors for every size a job mix needs.
#[derive(Debug, Default)]
pub struct Radix2Set(BTreeMap<usize, Radix2>);

impl ComplexFft for Radix2Set {
    fn forward(&self, data: &mut [Complex64]) {
        self.0[&data.len()].forward(data);
    }
}

/// `fgfft::stockham::stockham_fft`, which consumes and returns a vector.
#[derive(Debug)]
pub struct Stockham;

impl ComplexFft for Stockham {
    fn forward(&self, data: &mut [Complex64]) {
        let out = stockham_fft(data.to_vec());
        data.copy_from_slice(&out);
    }
}

/// Everything the floors need for one job mix, built once at set-up.
#[derive(Debug, Default)]
pub struct Floors {
    pub radix2: Radix2Set,
    /// Untangle twiddles `W_N^k = e^{-2πik/N}`, `k < N/2`, per real size N.
    real: BTreeMap<usize, Vec<Complex64>>,
}

impl Floors {
    pub fn for_jobs(jobs: &[Job]) -> Self {
        let mut floors = Floors::default();
        for &job in jobs {
            let sizes: Vec<usize> = match job {
                Job::C2c(n) => vec![n],
                Job::R2c(n) | Job::C2r(n) => {
                    floors.real.entry(n).or_insert_with(|| {
                        (0..n / 2)
                            .map(|k| Complex64::expi(-2.0 * PI * k as f64 / n as f64))
                            .collect()
                    });
                    vec![n / 2]
                }
                Job::C2c2d { rows, cols } => vec![rows, cols],
            };
            for n in sizes {
                floors.radix2.0.entry(n).or_insert_with(|| Radix2::new(n));
            }
        }
        floors
    }

    /// Compute `case` with the floor built on `fft`, into `bufs` (after
    /// [`Buffers::load`]).
    pub fn run(&self, fft: &dyn ComplexFft, case: &Case, bufs: &mut Buffers) {
        match case.job {
            Job::C2c(_) => fft.forward(&mut bufs.data),
            Job::R2c(n) => {
                let w = &self.real[&n];
                let z = &mut bufs.scratch;
                for (slot, pair) in z.iter_mut().zip(case.real.chunks_exact(2)) {
                    *slot = Complex64::new(pair[0], pair[1]);
                }
                fft.forward(z);
                let half = n / 2;
                for k in 0..=half {
                    let zk = z[k % half];
                    let zc = z[(half - k) % half].conj();
                    let even = (zk + zc).scale(0.5);
                    // (zk − zc) / 2i
                    let d = zk - zc;
                    let odd = Complex64::new(d.im * 0.5, -d.re * 0.5);
                    let wk = if k == half {
                        Complex64::new(-1.0, 0.0)
                    } else {
                        w[k]
                    };
                    bufs.spectrum[k] = even + wk * odd;
                }
            }
            Job::C2r(n) => {
                let w = &self.real[&n];
                let half = n / 2;
                let x = &case.input;
                let z = &mut bufs.scratch;
                for k in 0..half {
                    let xk = x[k];
                    let xc = x[half - k].conj();
                    let even = (xk + xc).scale(0.5);
                    let odd = ((xk - xc) * w[k].conj()).scale(0.5);
                    // z = E + iO, conjugated for the inverse-by-forward trick.
                    z[k] = Complex64::new(even.re - odd.im, even.im + odd.re).conj();
                }
                fft.forward(z);
                let scale = 1.0 / half as f64;
                for (m, v) in z.iter().enumerate() {
                    bufs.signal[2 * m] = v.re * scale;
                    bufs.signal[2 * m + 1] = -v.im * scale;
                }
            }
            Job::C2c2d { rows, cols } => {
                let (data, scratch) = (&mut bufs.data, &mut bufs.scratch);
                for row in data.chunks_exact_mut(cols) {
                    fft.forward(row);
                }
                transpose(data, scratch, rows, cols);
                for col in scratch.chunks_exact_mut(rows) {
                    fft.forward(col);
                }
                transpose(scratch, data, cols, rows);
            }
        }
    }
}

/// `dst[c][r] = src[r][c]` for a row-major `rows × cols` source.
fn transpose(src: &[Complex64], dst: &mut [Complex64], rows: usize, cols: usize) {
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_match_the_reference() {
        let jobs = [
            Job::C2c(256),
            Job::R2c(512),
            Job::C2r(512),
            Job::C2c2d { rows: 16, cols: 32 },
        ];
        let floors = Floors::for_jobs(&jobs);
        for cases in Case::generate(&jobs, 2, 7) {
            for case in &cases {
                for fft in [&floors.radix2 as &dyn ComplexFft, &Stockham] {
                    let mut bufs = Buffers::for_job(case.job);
                    bufs.load(case);
                    floors.run(fft, case, &mut bufs);
                    let err = bufs.error(case);
                    assert!(err < case.job.tolerance(), "{:?}: {err}", case.job);
                }
            }
        }
    }
}
