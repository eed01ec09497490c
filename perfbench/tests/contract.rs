//! The benchmark's own contract: seeded determinism of its inputs and outputs, and a
//! result line that carries every metric `BENCHMARK.json` declares, with its unit.
//! Run with `cargo test --release` from this directory.

use perfbench::host::{golden_digest, recorded_digest};
use perfbench::workload::{Scale, Workload, DEFAULT_SEED};
use perfbench::{run_workload, Metric};
use serde::Value;

/// A run small enough for a test: three sessions for the fleet, one set-up.
fn small(workload: Workload) -> Scale {
    Scale {
        sessions: workload.scale().sessions.min(3),
        setup_reps: 1,
        warmup_turns: 1,
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let value: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Value::Array(items) = value.field(section).expect("object") else {
        panic!("{section} is not an array");
    };
    items
        .iter()
        .map(|m| match (m.field("name"), m.field("unit")) {
            (Ok(Value::Str(name)), Ok(Value::Str(unit))) => (name.clone(), unit.clone()),
            other => panic!("malformed metric {other:?}"),
        })
        .collect()
}

#[test]
fn same_seed_gives_the_same_digest_and_another_seed_a_different_one() {
    for workload in Workload::ALL {
        let a = golden_digest(workload, 7, 2);
        assert_eq!(a, golden_digest(workload, 7, 2), "{}", workload.name());
        assert_ne!(a, golden_digest(workload, 8, 2), "{}", workload.name());
    }
}

#[test]
fn recorded_digests_are_those_of_the_default_seed() {
    for workload in Workload::ALL {
        assert_eq!(
            recorded_digest(workload),
            Some(golden_digest(workload, DEFAULT_SEED, 2)),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn every_declared_metric_is_reported_with_its_unit_on_every_workload() {
    let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract-spans.jsonl");
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected = declared(section);
        for workload in Workload::ALL {
            let outcome = run_workload(workload, small(workload), 5, 0.3, trace, 2, &spans);
            assert!(
                outcome.correct(),
                "{} {section}: {:?}",
                workload.name(),
                outcome.problems
            );
            assert!(outcome.attempted > 0);
            let gated: Vec<&Metric> = outcome.metrics.iter().filter(|m| m.gated).collect();
            let reported: Vec<(String, String)> = gated
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(reported, expected, "{} {section}", workload.name());
            let not_applicable: Vec<&str> = gated.iter().filter(|m| !m.applicable).map(|m| m.name).collect();
            let expected_na: &[&str] = match (workload, trace) {
                (_, false) => &[],
                (Workload::ConvContextAware, true) => &["par.scaling_efficiency"],
                (Workload::ConvBaselineLossy, true) => &[
                    "semantics.clip_us_per_frame",
                    "semantics.dirty_patch_frac",
                    "allocator.eq2_us_per_frame",
                    "par.scaling_efficiency",
                ],
                (Workload::FleetContextAware, true) => &[],
            };
            assert_eq!(not_applicable, expected_na, "{} {section}", workload.name());
            let json = outcome.json();
            for (name, unit) in &expected {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": "))
                        && json.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name} missing from {json}"
                );
            }
            if trace {
                assert!(spans.exists(), "traced run wrote no spans");
            }
        }
    }
}
