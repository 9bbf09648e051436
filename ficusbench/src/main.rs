//! `ficusbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The report (and the
//! spans of a traced run) are also written under `out/` in this package.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ficusbench::report::result_line;
use ficusbench::run::{run, Options};
use ficusbench::workloads;

/// A timed phase stops after the round that crosses this much wall time, so
/// that a badly regressed program still exits within three minutes.
const PHASE_WALL_LIMIT: Duration = Duration::from_secs(50);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |e: std::num::ParseIntError| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(bad)?,
            "--seconds" => a.seconds = val()?.parse().map_err(bad)?,
            "--trace" => a.trace = val()?.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "ficusbench: {e}\nusage: ficusbench --workload <name> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = workloads::by_name(&args.workload, args.seed).expect("name checked above");
    let opts = Options {
        workload: args.workload.clone(),
        seed: args.seed,
        rounds: w.rounds(args.seconds),
        trace: args.trace,
        phase_limit: PHASE_WALL_LIMIT,
    };
    drop(w);
    let out = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ficusbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let saved = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.txt")), &out.report))
        .and_then(|()| match &out.spans_tsv {
            Some(tsv) => std::fs::write(dir.join(format!("{stem}.spans.tsv")), tsv),
            None => Ok(()),
        });
    print!("{}", out.report);
    match saved {
        Ok(()) => println!("report and spans written under {}", dir.display()),
        Err(e) => println!("could not write under {}: {e}", dir.display()),
    }
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
