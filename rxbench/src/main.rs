//! Command line:
//!
//! ```text
//! rxbench --workload <dense_4x4|pair_2x2|stream_window>
//!         [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//! ```
//!
//! Prints notes (environment, raw timings, exact counters) as `# ` lines,
//! then the result as one JSON object on the last line. A traced run also
//! writes its spans as Chrome trace-event JSON (default
//! `.bench_out/trace_<workload>_<seed>.json`) and a self-time table.

use rxbench::report::result_line;
use rxbench::workload::Workload;
use rxbench::{run, Options, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(Options, Option<PathBuf>), String> {
    let mut workload = None;
    let mut opts =
        Options { workload: Workload::Dense4x4, seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => opts.seed = val.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                opts.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok((opts, trace_out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, trace_out) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rxbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for note in &report.notes {
        println!("# {note}");
    }
    if opts.trace {
        let path = trace_out.unwrap_or_else(|| {
            PathBuf::from(format!(".bench_out/trace_{}_{}.json", opts.workload.name(), opts.seed))
        });
        if let Err(e) = report.trace.write_chrome(&path) {
            eprintln!("rxbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# {} spans written to {}", report.trace.spans.len(), path.display());
        println!("# span self time: name, spans, mean ms, mean self ms");
        for (name, (count, total, own)) in report.trace.self_times() {
            let mean = |ns: u64| ns as f64 / count.max(1) as f64 * 1e-6;
            println!("#   {name:<28} {count:>7} {:>10.4} {:>10.4}", mean(total), mean(own));
        }
    }
    println!("{}", result_line(report.correct, report.attempted, report.failed, &report.metrics));
    ExitCode::SUCCESS
}
