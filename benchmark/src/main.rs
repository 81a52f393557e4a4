//! `bench` — the benchmark's one command.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! bench all   [--seed N] [--seconds S] [--quick]        every workload, both kinds of run
//! bench aa    [--seed N] [--seconds S] [--quick]        the suite twice; gates on the bounds
//! bench trace W [--seed N]                              the traced in-process replay only
//! bench manifest                                        prints BENCHMARK.json
//! ```

use std::process::ExitCode;
use std::time::Duration;

use mqp_benchmark::report::{manifest, RunOutput, RUN_SECONDS};
use mqp_benchmark::{aa, host, suite, worlds};

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      bench all|aa [--seed <n>] [--seconds <s>] [--quick]\n\
         \x20      bench trace <workload> [--seed <n>]\n\
         \x20      bench manifest\n\
         workloads: {}",
        worlds::SPECS.map(|s| s.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value("--seconds").parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => args.quick = true,
            "all" | "aa" | "trace" | "manifest" if args.command.is_none() => {
                args.command = Some(arg);
            }
            name if args.command.as_deref() == Some("trace") && args.workload.is_none() => {
                args.workload = Some(name.to_owned());
            }
            _ => usage(),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        usage();
    }
    // A smoke run at one tenth length: reports, never gates.
    if args.quick {
        args.seconds /= 10.0;
    }
    args
}

fn spec_of(args: &Args) -> &'static worlds::Spec {
    let name = args.workload.as_deref().unwrap_or_else(|| usage());
    worlds::spec(name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}");
        usage()
    })
}

fn print_run(spec: &worlds::Spec, args: &Args, out: &RunOutput) {
    println!(
        "workload {} · seed {} · {} s · {}",
        spec.name,
        args.seed,
        args.seconds,
        if args.trace {
            "per-layer (traced) run"
        } else {
            "end-to-end run"
        }
    );
    for (key, value) in host::machine() {
        println!("machine.{key}: {value}");
    }
    for note in &out.notes {
        println!("{note}");
    }
    print!("{}", out.table());
    println!("{}", out.to_json_line());
}

fn main() -> ExitCode {
    let args = parse_args();
    match args.command.as_deref() {
        None => {
            let spec = spec_of(&args);
            let out = if args.trace {
                suite::per_layer(spec, args.seed, args.seconds)
            } else {
                suite::end_to_end(spec, args.seed, args.seconds)
            };
            print_run(spec, &args, &out);
            ExitCode::SUCCESS
        }
        Some("manifest") => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        Some("trace") => {
            let spec = spec_of(&args);
            let (report, _, _) = suite::traced_replay(spec, args.seed, Duration::from_secs(2));
            for line in report.lines() {
                println!("{line}");
            }
            if report.reconciles() && report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("all") => aa::all(args.seed, args.seconds),
        Some("aa") => aa::aa(args.seed, args.seconds, !args.quick),
        Some(_) => usage(),
    }
}
