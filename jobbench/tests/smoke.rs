//! The benchmark's own tests, on the small `Size::Smoke` inputs.

use std::collections::HashMap;

use emma::prelude::*;
use emma_jobbench::bench::{self, Config, Outcome, OP_KINDS};
use emma_jobbench::trace::Tracer;
use emma_jobbench::workloads::{self, Size, Workload};

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let cfg = Config {
        workload,
        size: Size::Smoke,
        seed: 7,
        seconds: 0.05,
        trace,
    };
    bench::run(&cfg, &mut Tracer::new(trace))
}

const END_TO_END: [&str; 7] = [
    "job_s",
    "rows_per_s",
    "cpu_s",
    "sim_s",
    "setup_s",
    "peak_rss_mb",
    "success_rate",
];

fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "compiler.parallelize_us",
        "compiler.plan_nodes",
        "compiler.fold_group_fused",
        "compiler.exists_unnested",
        "compiler.pipeline_stages_fused",
        "compiler.cached",
        "exec.run_s",
        "exec.driver_s",
        "exec.records_processed",
        "exec.bytes_shuffled",
        "exec.bytes_broadcast",
        "exec.bytes_spilled",
        "exec.stages",
        "exec.iterations",
        "exec.cache_hits",
        "exec.cache_misses",
        "exec.cache_hit_ratio",
        "exec.tasks_failed",
        "exec.tasks_retried",
        "vectorized.rows",
        "vectorized.batches",
        "vectorized.fallbacks",
        "vectorized.key_path_fallbacks",
        "vectorized.coverage",
        "pool.wave_us",
        "check.s",
        "trace.self.job_s",
        "trace.self.parallelize_s",
        "trace.self.engine_run_s",
        "trace.self.check_s",
        "trace.overhead_s",
        "trace.spans",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    names.extend(OP_KINDS.iter().map(|op| format!("exec.op.{op}_s")));
    names
}

/// Deterministic metrics: everything that is not a time or a span count.
fn deterministic(o: &Outcome) -> Vec<(String, u64)> {
    o.metrics
        .iter()
        .filter(|m| !matches!(m.unit, "s" | "us") && m.name != "trace.spans")
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_is_correct() {
    let per_layer = per_layer_names();
    for w in Workload::ALL {
        let e2e = smoke(w, false);
        assert!(e2e.correct(), "{}: {:?}", w.name(), e2e.failures);
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END, "{}", w.name());
        for m in &e2e.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {}",
                w.name(),
                m.name
            );
        }
        let traced = smoke(w, true);
        assert!(traced.correct(), "{}: {:?}", w.name(), traced.failures);
        let mut got: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
        let mut want: Vec<&str> = per_layer.iter().map(String::as_str).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{}", w.name());
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
        let json = traced.result_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn scan_runs_fully_vectorized() {
    let o = smoke(Workload::Scan, true);
    let value = |n: &str| o.metric(n).expect(n).value;
    assert!(value("vectorized.rows") > 0.0);
    assert_eq!(value("vectorized.fallbacks"), 0.0);
    assert_eq!(value("vectorized.key_path_fallbacks"), 0.0);
}

#[test]
fn simulated_clock_and_counts_repeat_exactly() {
    for w in Workload::ALL {
        let (a, b) = (smoke(w, false), smoke(w, false));
        let sim = |o: &Outcome| o.metric("sim_s").expect("sim_s").value.to_bits();
        assert_eq!(sim(&a), sim(&b), "{}", w.name());
        let (a, b) = (smoke(w, true), smoke(w, true));
        assert_eq!(deterministic(&a), deterministic(&b), "{}", w.name());
    }
}

/// Replaces the first row of the first non-empty sink with a different
/// value of the same shape.
fn corrupt(writes: &mut HashMap<String, Vec<Value>>) {
    let mut sinks: Vec<&String> = writes.keys().collect();
    sinks.sort();
    let sink = sinks
        .into_iter()
        .find(|s| !writes[*s].is_empty())
        .expect("a non-empty sink")
        .clone();
    let row = &mut writes.get_mut(&sink).expect("sink")[0];
    *row = match row {
        Value::Int(i) => Value::Int(*i + 1),
        Value::Tuple(fields) => {
            let mut fields = fields.as_ref().clone();
            let last = fields.last_mut().expect("non-empty tuple");
            *last = match last {
                Value::Int(i) => Value::Int(*i + 1),
                Value::Float(f) => Value::Float(*f * 1.5 + 1.0),
                other => panic!("unexpected field {other:?}"),
            };
            Value::tuple(fields)
        }
        other => panic!("unexpected row {other:?}"),
    };
}

#[test]
fn checker_catches_one_corrupted_row() {
    for w in Workload::ALL {
        let inputs = workloads::generate(w, Size::Smoke, 3);
        let expected = workloads::reference(&inputs).expect("reference");
        let mut writes = HashMap::new();
        for p in &inputs.programs {
            let run = Engine::sparrow()
                .run(&parallelize(p, &inputs.flags), &inputs.catalog)
                .expect("run");
            writes.extend(run.writes);
        }
        workloads::check(&expected, &writes).expect("uncorrupted output passes");
        corrupt(&mut writes);
        assert!(
            workloads::check(&expected, &writes).is_err(),
            "{}: corrupted row not caught",
            w.name()
        );
        // A dropped row is caught too.
        let mut sinks: Vec<String> = writes.keys().cloned().collect();
        sinks.sort();
        writes.get_mut(&sinks[0]).expect("sink").pop();
        assert!(
            workloads::check(&expected, &writes).is_err(),
            "{}",
            w.name()
        );
    }
}
