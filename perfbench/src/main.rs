//! `perfbench`: the end-to-end benchmark of `cube serve` and the `cube`
//! CLI, with a traced per-layer replay. See `perfbench/README.md`;
//! run it through `perfbench/run.py`, which builds both programs first.
//!
//! ```text
//! perfbench --cube PATH --work DIR --workload serve_hot|serve_cold|cli_files
//!           --seed N --seconds S --trace 0|1
//!           [--commit ID] [--corrupt] [--write-golden]
//! ```
//!
//! Prints the self-report, then one JSON result line. Exits 0 when
//! every output was correct, 1 when any check failed, 2 when the run
//! could not be carried out.

mod cli;
mod client;
mod gen;
mod golden;
mod layers;
mod replay;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::client::WorkDir;
use crate::stats::{result_line, Metric, Tally};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub const WORKLOADS: [&str; 3] = ["serve_hot", "serve_cold", "cli_files"];

/// Settings of one run.
pub struct Ctx {
    pub cube: PathBuf,
    pub work: PathBuf,
    pub traces: PathBuf,
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt: bool,
    pub write_golden: bool,
    pub commit: String,
    pub nproc: usize,
    pub profile: &'static str,
}

impl Ctx {
    /// Where the traced run writes its spans.
    pub fn trace_file(&self) -> PathBuf {
        self.traces
            .join(format!("{}-seed{}.tsv", self.workload, self.seed))
    }
}

pub struct RunOutput {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub report: String,
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let mut ctx = Ctx {
        cube: PathBuf::new(),
        work: PathBuf::new(),
        traces: PathBuf::new(),
        workload: "",
        seed: golden::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        corrupt: false,
        write_golden: false,
        commit: "unknown".into(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    };
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--cube" => ctx.cube = value()?.into(),
            "--work" => ctx.work = value()?.into(),
            "--traces" => ctx.traces = value()?.into(),
            "--workload" => {
                let w = value()?;
                ctx.workload = WORKLOADS
                    .into_iter()
                    .find(|k| *k == w)
                    .ok_or(format!("unknown workload '{w}' (one of {WORKLOADS:?})"))?;
            }
            "--seed" => ctx.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                ctx.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => ctx.trace = value()? == "1",
            "--commit" => ctx.commit = value()?,
            "--corrupt" => ctx.corrupt = true,
            "--write-golden" => ctx.write_golden = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if ctx.workload.is_empty() || ctx.cube.as_os_str().is_empty() || ctx.work.as_os_str().is_empty()
    {
        return Err("usage: perfbench --cube PATH --work DIR --workload NAME [--seed N] [--seconds S] [--trace 0|1]".into());
    }
    if ctx.traces.as_os_str().is_empty() {
        ctx.traces = ctx.work.join("traces");
    }
    Ok(ctx)
}

/// Seconds of busy work on every core before anything is measured.
const WARM_SECONDS: f64 = 3.0;

/// Keeps every core busy for `seconds`. On the virtual machines this
/// benchmark was tuned on, a vCPU that has been idle runs the next
/// second or two at about half speed; without this, the first ops of a
/// run land in that slow phase and the run-to-run spread doubles.
fn warm_cpus(threads: usize, seconds: f64) {
    let end = std::time::Instant::now() + std::time::Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut x = 1u64;
                while std::time::Instant::now() < end {
                    for _ in 0..100_000 {
                        x = std::hint::black_box(
                            x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7),
                        );
                    }
                }
            });
        }
    });
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::new(ctx.work.clone()) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.traces) {
        eprintln!("perfbench: {}: {e}", ctx.traces.display());
        return ExitCode::from(2);
    }
    warm_cpus(ctx.nproc, WARM_SECONDS);
    let outcome = match ctx.workload {
        "serve_hot" => serve::run(&ctx, gen::ServeKind::Hot),
        "serve_cold" => serve::run(&ctx, gen::ServeKind::Cold),
        _ => cli::run(&ctx),
    };
    drop(work);
    match outcome {
        Ok(out) => {
            print!("{}", out.report);
            for p in out.tally.problems.iter().take(20) {
                println!("FAILED {p}");
            }
            println!("{}", result_line(&out.tally, &out.metrics));
            if out.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
