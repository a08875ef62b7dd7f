//! The repository benchmark: three workloads over generated IMDB-shaped
//! graphs, each checked for correct answers, printing its metrics as one
//! JSON line.
//!
//! ```text
//! perfbench --workload point_read|analytics|durable --seed N --seconds S --trace 0|1
//!           [--scale EDGES]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced.
//! `--trace 1` is the separate traced run: it wraps spans around the
//! same calls, prints the per-layer metrics and writes the spans to
//! `perfbench/out/`. `--scale` shrinks a run for the self-check. See
//! `perfbench/README.md` for the workloads and metrics.

mod analytics;
mod calib;
mod durable;
mod ops;
mod point_read;
mod report;
mod setup;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Edge count override (the workload's own scale when `None`).
    pub scale: Option<u64>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 42,
            seconds: Duration::from_secs(10),
            trace: false,
            scale: None,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = number()?,
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {value}: out of range"));
                    }
                    args.seconds = Duration::from_secs_f64(s);
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: expected 0 or 1")),
                    }
                }
                "--scale" => args.scale = Some(number()?.max(1_000)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }

    /// Where traced runs write their spans.
    pub fn span_file(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "point_read" => point_read::run(&args),
        "analytics" => analytics::run(&args),
        "durable" => durable::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (point_read, analytics, durable)");
            return ExitCode::from(2);
        }
    };
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
