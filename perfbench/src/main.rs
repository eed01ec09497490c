//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]`
//!
//! Prints every metric by name and unit, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and the metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). Exits non-zero on bad arguments.

use perfbench::alloc::CountingAlloc;
use perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) = (None, None, None, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: expected a number in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans: spans.unwrap_or_else(|| PathBuf::from(format!("spans-{}-{seed}.jsonl", workload.name()))),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} lanes {lanes}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = perfbench::run_workload(
        args.workload,
        args.workload.scale(),
        args.seed,
        args.seconds,
        args.trace,
        lanes,
        &args.spans,
    );
    for m in &outcome.metrics {
        if m.applicable {
            println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
        } else {
            println!(
                "{:<36} {:>14} {} (measured {:.4})",
                m.name, "n/a", m.unit, m.value
            );
        }
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
