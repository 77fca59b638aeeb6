//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints progress lines, the `sim_digest` of the simulated per-interval
//! records, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero when an argument
//! is invalid or an output check fails.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match perfbench::parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} hours {} jobs {} trace {}",
        cfg.spec.workload.name(),
        cfg.spec.seed,
        cfg.spec.hours,
        cfg.spec.jobs,
        u8::from(cfg.trace)
    );
    let report = perfbench::run(&cfg);
    let list = |v: &[f64]| {
        let s: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        s.join(" ")
    };
    println!("setup_s {}", list(&report.setup_s));
    println!("replay_s untraced {}", list(&report.replay_s));
    if cfg.trace {
        println!("replay_s traced {}", list(&report.traced_s));
    }
    if !report.serial_s.is_empty() {
        println!("replay_s traced 1-worker {}", list(&report.serial_s));
    }
    println!("sim_digest {:016x}", report.sim_digest);
    if let Some(e) = &report.error {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
