//! Every workload at reduced length: the metric names and units match
//! `BENCHMARK.json`, the output checks pass (traced replays included),
//! and parallel node stepping does not change the simulated results.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::workload::{Spec, Workload, DEFAULT_SEED};
use perfbench::{parse_args, run, Config, Report, END_TO_END, PER_LAYER};

/// A workload shortened to a couple of trace hours, still covering its
/// scripted faults.
fn small(workload: Workload) -> Spec {
    let mut spec = Spec::new(workload, DEFAULT_SEED);
    spec.hours = match workload {
        Workload::ClusterOverload => 1.5,
        Workload::FleetDiurnal => 1.0,
        Workload::LeafIrregular => 7.0,
    };
    spec
}

fn once(spec: Spec, trace: bool) -> Report {
    let report = run(&Config {
        spec,
        seconds: 0.0,
        trace,
    });
    assert!(
        report.correct,
        "{} trace={trace}: {:?}",
        spec.workload.name(),
        report.error
    );
    report
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists, in file order.
fn listed_metrics() -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let field = |rest: &str, key: &str| -> Option<String> {
        let start = rest.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = rest[start..].find('"')?;
        Some(rest[start..start + len].to_string())
    };
    text.lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| {
            (
                field(l, "name").expect("metric name"),
                field(l, "unit").expect("metric unit"),
            )
        })
        .collect()
}

#[test]
fn every_metric_is_printed_with_its_unit_and_the_checks_pass() {
    let listed = listed_metrics();
    let expected: Vec<(String, String)> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed, expected, "BENCHMARK.json and the printed metrics");

    for workload in Workload::ALL {
        for (trace, names) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let report = once(small(workload), trace);
            let printed: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.0, m.2)).collect();
            assert_eq!(printed, names, "{} trace={trace}", workload.name());
            let line = report.json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            for (name, unit) in names {
                assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert_ne!(report.sim_digest, 0);
        }
    }
}

#[test]
fn fleet_results_do_not_depend_on_the_worker_count() {
    let mut spec = small(Workload::FleetDiurnal);
    let reports: Vec<Report> = [1, 2]
        .into_iter()
        .map(|jobs| {
            spec.jobs = jobs;
            once(spec, false)
        })
        .collect();
    assert_eq!(reports[0].sim_digest, reports[1].sim_digest);
    for (name, _) in END_TO_END.iter().filter(|(n, _)| n.starts_with("sim_")) {
        let values: Vec<f64> = reports
            .iter()
            .map(|r| r.metric(name).expect("printed"))
            .collect();
        assert_eq!(values[0].to_bits(), values[1].to_bits(), "{name}");
    }
}

#[test]
fn seeds_change_the_inputs_and_the_default_is_the_figures() {
    let args = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
    let cfg = parse_args(&args(&["--workload", "leaf-irregular"])).expect("valid");
    assert_eq!(cfg.spec.seed, DEFAULT_SEED);
    assert!(!cfg.trace);
    for w in Workload::ALL {
        let a = Spec::new(w, DEFAULT_SEED).inputs();
        let b = Spec::new(w, DEFAULT_SEED).inputs();
        let c = Spec::new(w, 7919).inputs();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.arrival_seed, DEFAULT_SEED);
        assert_ne!(a.trace, c.trace, "{}", w.name());
    }
    for bad in [
        &["--workload", "nope"][..],
        &["--workload", "fleet-diurnal", "--trace", "2"],
        &["--workload", "fleet-diurnal", "--seconds", "-1"],
        &["--workload", "fleet-diurnal", "--bogus", "1"],
        &["--seed", "1"],
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
    }
}
