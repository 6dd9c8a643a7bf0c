//! `lumenbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then as its last line one JSON
//! object: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits non-zero
//! when any verdict or accounting identity is wrong.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use lumenbench::{host, prepare, run, Spec, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: lumenbench --workload <daemon_steady|daemon_durable|fleet_direct> --seed <n> \
     --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::standard(args.workload, args.seconds);
    let report = match prepare(&spec, args.seed)
        .and_then(|inputs| run(&spec, &inputs, args.seed, args.trace))
    {
        Ok(report) => report,
        Err(e) => {
            eprintln!("lumenbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.summary());
    if let Some(spans) = &report.spans {
        let path = PathBuf::from(format!(
            "target/lumenbench/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match spans
            .to_jsonl()
            .and_then(|jsonl| Ok(host::write_report(&path, &jsonl)?))
        {
            Ok(()) => println!(
                "spans: {} written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("lumenbench: spans not written to {}: {e}", path.display()),
        }
    }
    match report.json_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("lumenbench: result line not rendered: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
