//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <lib-small|serve-wire|sim-paper>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in this one process, through public APIs only, and
//! checks every output it times. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` is a separate run that times calls into each
//! layer from this crate's own code, keeps the spans in memory, writes
//! them under `perfbench/out/`, and prints a closure table. See
//! `WORKLOADS.md` for what each workload stresses and bypasses, and for
//! why `serve-wire` runs but is not gated.

mod host;
mod mix;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use mix::Job;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["lib-small", "serve-wire", "sim-paper"];

/// One run's settings.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process start: the origin of every span.
    pub origin: Instant,
}

impl Ctx {
    /// The measured interval.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A share of the measured interval, for runs split into phases.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// The repository checkout this benchmark was built in.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

/// Where traced runs write their spans (and the wire server its socket).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String], origin: Instant) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--workload" => return Err(bad()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        origin,
    })
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args, origin) {
        Ok(ctx) => ctx,
        Err(why) => return usage(&why),
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    println!(
        "perfbench {} seed {} seconds {} trace {} (available_parallelism {})",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        host::workers()
    );
    let report = match ctx.workload.as_str() {
        "lib-small" => host::run(
            &ctx,
            &[Job::C2c(1 << 10), Job::R2c(1 << 11), Job::C2r(1 << 11)],
        ),
        "serve-wire" => serve::run(&ctx),
        _ => sim::run(&ctx),
    };
    if report.print(&ctx) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
