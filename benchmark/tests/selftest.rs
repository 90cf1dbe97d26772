//! Self-tests of the benchmark itself: input determinism, the
//! correctness gate, the contract with `BENCHMARK.json`, and a smoke
//! pass of every workload.

use gm_benchmark::runner::{self, round_failures, Config};
use gm_benchmark::spec::{END_TO_END, PER_LAYER};
use gm_benchmark::trace::Tracer;
use gm_benchmark::workloads::{build, Size, WORKLOADS};
use serde_json::Value;
use std::time::Instant;

fn config(workload: &str, trace: bool) -> Config {
    Config {
        workload: workload.to_string(),
        seed: 11,
        seconds: 0.2,
        trace,
        size: Size::Smoke,
    }
}

#[test]
fn same_seed_same_inputs_and_another_seed_other_inputs() {
    for w in WORKLOADS {
        let digest = |seed| {
            build(w, seed, Size::Smoke)
                .expect("known workload")
                .oplist_digest()
        };
        assert_eq!(
            digest(11),
            digest(11),
            "{w}: same seed must give the same op list"
        );
        assert_ne!(
            digest(11),
            digest(12),
            "{w}: another seed must give another op list"
        );
    }
    assert!(build("no_such_workload", 11, Size::Smoke).is_none());
}

#[test]
fn a_corrupted_reference_digest_fails_the_round() {
    let mut w = build("opf_dialogue", 11, Size::Smoke).expect("known workload");
    let round = w.run_round(&mut Tracer::off());
    let mut digests: Vec<u64> = round.ops.iter().map(|o| o.digest).collect();
    assert!(
        round_failures(&round, &digests).is_empty(),
        "clean round must pass"
    );
    digests[3] ^= 1;
    let failures = round_failures(&round, &digests);
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, 3);
    // And through the whole runner: a second round must reproduce the
    // first one's answers, so a clean run reports no failure.
    let report = runner::run(config("opf_dialogue", false)).expect("runs");
    assert!(report.correct && report.failed == 0);
}

#[test]
fn smoke_pass_of_all_five_workloads() {
    let started = Instant::now();
    for w in WORKLOADS {
        let report = runner::run(config(w, false)).expect("runs");
        assert!(report.correct, "{w}: {}", report.diagnostics);
        assert_eq!(report.failed, 0, "{w}");
        assert!(report.attempted >= 1, "{w}");
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{w}"
        );
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "{w}: an end-to-end metric read 0"
        );
        let line: Value = serde_json::from_str(&report.driver_line()).expect("driver line is JSON");
        let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{w}");
    }
    let took = started.elapsed().as_secs_f64();
    assert!(took < 20.0, "smoke pass took {took:.1} s");
}

#[test]
fn a_traced_run_reports_every_layer_metric() {
    let report = runner::run(config("study_sweep", true)).expect("runs");
    assert!(report.correct, "{}", report.diagnostics);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    let spans = report
        .spans
        .as_ref()
        .and_then(Value::as_array)
        .expect("spans recorded");
    assert!(!spans.is_empty());
    // Every child names a parent recorded before it, of the same op.
    for s in spans {
        if let Some(p) = s["parent"].as_u64() {
            assert!(p < s["id"].as_u64().unwrap());
            assert_eq!(spans[p as usize]["op"], s["op"]);
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("valid JSON");
    let keys: Vec<&String> = spec.as_object().expect("object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let names = |key: &str| -> Vec<(String, String, String)> {
        spec[key]
            .as_array()
            .expect("list")
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().expect("string field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let ours = |list: Vec<(&str, &str, &str)>| -> Vec<(String, String, String)> {
        list.into_iter()
            .map(|(a, b, c)| (a.into(), b.into(), c.into()))
            .collect()
    };
    assert_eq!(
        names("end_to_end"),
        ours(
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, m.better.as_str()))
                .collect()
        )
    );
    assert_eq!(
        names("per_layer"),
        ours(
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.better.as_str()))
                .collect()
        )
    );
    for m in spec["end_to_end"].as_array().unwrap() {
        let bound = m["bound"].as_f64().expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m["name"]);
    }
    let workloads: Vec<&str> = spec["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for w in spec["workloads"].as_array().unwrap() {
        let why = w["why"].as_str().unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{}: why is {} chars",
            w["name"],
            why.len()
        );
    }
    assert_eq!(spec["paths"], serde_json::json!(["benchmark"]));
}
