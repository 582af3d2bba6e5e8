//! Command-line entry of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <protect|train_paper|daemon_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. Traced runs also
//! write their spans to `.bench_trace/<workload>-seed<n>.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use ipas_e2ebench::{run, trace, Options, Scale, Workload};

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if opts.trace {
        let path = PathBuf::from(".bench_trace").join(format!(
            "{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) = trace::write_jsonl(&report.spans, &path) {
            eprintln!("e2ebench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for (k, v) in &report.info {
        println!("# {k}: {v}");
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
