//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--size full|smoke]`. Prints a human-readable report, then the result as
//! one JSON object on the last line of standard output.

use std::process::ExitCode;

use emma_jobbench::bench::{self, Config};
use emma_jobbench::trace::Tracer;
use emma_jobbench::workloads::{Size, Workload};

const USAGE: &str =
    "usage: emma-jobbench --workload <groupagg|tpch|pagerank|scan> --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::GroupAgg,
        size: Size::Full,
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut seen = [false; 4];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                cfg.workload = Workload::parse(value).ok_or_else(|| bad("unknown workload"))?;
                seen[0] = true;
            }
            "--seed" => {
                cfg.seed = value.parse().map_err(|_| bad("expected an integer"))?;
                seen[1] = true;
            }
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
                seen[2] = true;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
                seen[3] = true;
            }
            "--size" => {
                cfg.size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(bad("expected full or smoke")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seen.contains(&false) {
        return Err("--workload, --seed, --seconds and --trace are required".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(cfg.trace);
    let outcome = tracer.span("run", None, |t| bench::run(&cfg, t));
    if cfg.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, tracer.to_json_lines()))
        {
            eprintln!("cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans: {}", path.display());
    }
    print!("{}", outcome.human());
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
