//! perfbench — the Cobalt workspace's benchmark.
//!
//! One process runs one workload for a fixed time and prints, as the
//! last line of standard output, one JSON object: whether every output
//! was correct, how many operations were attempted and failed, and the
//! metrics. `--trace 0` measures the end-to-end metrics with nothing
//! traced; `--trace 1` runs the traced replica of every layer call and
//! prints the per-layer metrics instead. See README.md for the
//! workloads, the metrics and the layer each one should move.
//!
//! ```text
//! perfbench --workload verify-registry --seed 1 --seconds 15 --trace 0
//! ```

mod alloc;
mod calib;
mod check;
mod inputs;
mod optimize;
mod serve;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VerifyRegistry,
    VerifyWarm,
    OptimizeGenerated,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::VerifyRegistry,
        Workload::VerifyWarm,
        Workload::OptimizeGenerated,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifyRegistry => "verify-registry",
            Workload::VerifyWarm => "verify-warm",
            Workload::OptimizeGenerated => "optimize-generated",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// A checked command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for journals and the span dump, inside the
    /// directory the benchmark runs from.
    pub work_dir: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        work_dir: PathBuf::from(".perfbench"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(1);
    }
    let result = if args.trace {
        trace::run(&args)
    } else {
        match args.workload {
            Workload::VerifyRegistry => verify::registry_workload(&args),
            Workload::VerifyWarm => verify::warm_workload(&args),
            Workload::OptimizeGenerated => optimize::workload(&args),
            Workload::ServeMixed => serve::workload(&args),
        }
    };
    let result = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    for e in &result.errors {
        eprintln!("perfbench: WRONG ANSWER: {e}");
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload serve-mixed --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload verify-warm --trace 2").is_err());
        assert!(parse("--workload verify-warm --seconds 0").is_err());
        assert!(parse("--workload verify-warm --seed").is_err());
        assert!(parse("--seed 3").is_err());
    }
}
