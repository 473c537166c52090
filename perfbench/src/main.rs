//! Command-line entry point of the end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2_resnet18 --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Prints every metric with its unit and clock, one per line, and as the
//! last line one JSON object: `correct`, `attempted`, `failed` and the gated
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`). Writes
//! the result line, and for traced runs the per-layer table, under
//! `--out` (default `perfbench/results`).

use perfbench::{result_json, run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

struct Cli {
    options: Options,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut options = Options::new("", 0);
    let mut out = PathBuf::from("perfbench/results");
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or(format!("{flag} needs a value"))?;
        let number = || -> Result<f64, String> {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag} expects a number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                options.seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got `{value}`"))?
            }
            "--seconds" => options.seconds = number()?,
            "--trace" => options.trace = number()? != 0.0,
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(Cli { options, out })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One rayon worker (see the crate docs); the vendored rayon reads this
    // variable on every parallel call.
    std::env::set_var("RAYON_NUM_THREADS", "1");

    let options = &cli.options;
    let report = match run(options) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("benchmark failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} trace {}",
        options.workload,
        options.seed,
        u8::from(options.trace)
    );
    let extra = report
        .extra
        .iter()
        .filter(|metric| report.metrics.iter().all(|m| m.name != metric.name));
    for metric in report.metrics.iter().chain(extra) {
        println!(
            "  {:<28} {:>18} {:<10} {}",
            metric.name,
            format!("{:.6}", metric.value),
            metric.unit,
            metric.clock.label()
        );
    }
    let samples: Vec<String> = report.op_ms.iter().map(|ms| format!("{ms:.1}")).collect();
    println!("  op_ms samples: {}", samples.join(" "));
    let line = result_json(&report);
    let stem = format!(
        "{}-seed{}-trace{}",
        options.workload,
        options.seed,
        u8::from(options.trace)
    );
    let written = std::fs::create_dir_all(&cli.out).and_then(|()| {
        std::fs::write(cli.out.join(format!("{stem}.json")), format!("{line}\n"))?;
        match &report.table {
            Some(table) => std::fs::write(cli.out.join(format!("{stem}.layers.md")), table),
            None => Ok(()),
        }
    });
    if let Err(error) = written {
        eprintln!(
            "could not write results under {}: {error}",
            cli.out.display()
        );
    }
    if let Some(table) = &report.table {
        print!("{table}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
