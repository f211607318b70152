//! `ncbench`: one command per workload.
//!
//! ```text
//! ncbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!         [--smoke] [--self-test] [--out results.json]
//! ncbench --list
//! ncbench compare <a.json> <b.json>
//! ```
//!
//! Each run prints the host fingerprint, every metric by name with its
//! unit, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. It exits non-zero if an output
//! was wrong.

use std::io::Write as _;
use std::process::ExitCode;

use ncbench::metrics::{benchmark_json, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use ncbench::stats::Fingerprint;
use ncbench::{compare, Options};

const USAGE: &str = "usage: ncbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--self-test] [--out FILE]\n       ncbench --list\n       ncbench compare <a.json> <b.json>";

struct Args {
    workload: String,
    opts: Options,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut out = None;
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        self_test: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => opts.smoke = true,
            "--self-test" => opts.self_test = true,
            "--out" => out = Some(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.smoke && !seconds_given {
        opts.seconds = 1.0;
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts,
        out,
    })
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two files".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::read_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, within) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    println!(
        "{}",
        if within {
            "every shared end-to-end metric agrees within its bound"
        } else {
            "at least one end-to-end metric differs by more than its bound"
        }
    );
    Ok(within)
}

fn run_workloads(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![args.workload.as_str()]
    };
    ncbench::affinity::pin_generator();
    let fingerprint = Fingerprint::read();
    let mut all_correct = true;
    for name in names {
        let report = ncbench::run(name, &args.opts)?;
        all_correct &= report.correct;
        println!(
            "workload {name} seed {} seconds {} trace {} | {fingerprint}",
            args.opts.seed,
            args.opts.seconds,
            u8::from(args.opts.trace)
        );
        print!("{}", report.human(args.opts.trace));
        let line = report.result_line(args.opts.trace);
        if let Some(path) = &args.out {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?;
            writeln!(
                file,
                "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, {}",
                args.opts.seed,
                u8::from(args.opts.trace),
                &line[1..]
            )
            .map_err(|e| format!("{path}: {e}"))?;
        }
        println!("{line}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        Some("compare") => run_compare(&args[1..]),
        _ => parse_args(&args).and_then(|a| run_workloads(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ncbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
