//! Wall-clock benchmark of pipeline fusion: the same narrow-operator chain
//! executed on the per-run worker pool (a) one operator at a time,
//! materializing an intermediate collection between every pair of
//! operators, and (b) fused into a single `Plan::Pipeline` per-partition
//! pass.
//!
//! Besides printing the usual criterion summary, the harness writes
//! `BENCH_pipeline_fusion.json` at the repository root with the raw
//! measurements and the headline fused-vs-unfused speedup. The
//! deterministic *simulated* time is identical in both configurations by
//! construction (see `tests/fusion_equivalence.rs`); everything measured
//! here is real elapsed time.

use criterion::{criterion_group, take_measurements, Criterion, Measurement};
use emma::prelude::*;
use emma_compiler::bag_expr::BagExpr;
use emma_compiler::physical_pipeline::apply_pipeline_fusion;
use emma_compiler::pipeline::{CStmt, CompiledProgram, EvalTier, OptimizationReport};

/// Rows in the benchmark dataset. Large enough that the ~24 MB intermediate
/// collections the unfused execution materializes between stages exceed
/// typical last-level caches, so the fused pass's avoided round-trips to
/// memory show up in wall time.
const ROWS: i64 = 1_000_000;

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn lit(k: i64) -> ScalarExpr {
    ScalarExpr::lit(k)
}

/// A deep narrow chain over integer rows — the shape fusion targets: seven
/// per-element operators with nothing wide in between, so the unfused
/// execution materializes six intermediate collections that the fused pass
/// never allocates.
fn filter_gt(input: Box<Plan>, k: i64) -> Plan {
    Plan::Filter {
        input,
        p: Lambda::new(["x"], var("x").gt(lit(k))),
    }
}

fn map_add(input: Box<Plan>, k: i64) -> Plan {
    Plan::Map {
        input,
        f: Lambda::new(["x"], var("x").add(lit(k))),
    }
}

/// A data-cleaning-shaped chain: alternating validity filters (each keeps
/// nearly every row, as real validity checks do) and cheap per-element maps.
/// Every stage of the unfused execution materializes a full ~`ROWS`-element
/// intermediate collection; the fused pass allocates only the final output.
fn chain_plan() -> Plan {
    let mut plan = Plan::Source { name: "xs".into() };
    for i in 0..5 {
        plan = filter_gt(Box::new(plan), -1 - i);
        plan = map_add(Box::new(plan), i);
    }
    plan
}

/// The same shape with a row-expanding flatMap in the middle.
fn flatmap_chain_plan() -> Plan {
    let mut plan = Plan::Source { name: "xs".into() };
    plan = filter_gt(Box::new(plan), -1);
    plan = map_add(Box::new(plan), 3);
    plan = Plan::FlatMap {
        input: Box::new(plan),
        param: "x".into(),
        body: BagExpr::values(vec![Value::Int(0), Value::Int(1)])
            .map(Lambda::new(["d"], var("x").add(var("d")))),
    };
    plan = filter_gt(Box::new(plan), 10);
    plan = map_add(Box::new(plan), 1);
    plan
}

fn program(plan: Plan, fused: bool) -> CompiledProgram {
    let mut prog = CompiledProgram {
        body: vec![CStmt::Write {
            sink: "out".into(),
            plan,
        }],
        report: OptimizationReport::default(),
        eval_tier: EvalTier::Compiled,
    };
    if fused {
        apply_pipeline_fusion(&mut prog.body, &mut prog.report);
        assert_eq!(prog.report.pipelines_fused, 1, "chain must fuse");
    }
    prog
}

/// Fusion off and on; both run on the worker pool.
fn configs() -> [(&'static str, bool); 2] {
    [("unfused_pool", false), ("fused_pool", true)]
}

fn bench_pipeline_fusion(c: &mut Criterion) {
    let catalog = Catalog::new().with("xs", (0..ROWS).map(Value::Int).collect::<Vec<_>>());
    let engine = Engine::sparrow();
    for (group_name, plan) in [
        ("pipeline_fusion", chain_plan as fn() -> Plan),
        (
            "pipeline_fusion_flatmap",
            flatmap_chain_plan as fn() -> Plan,
        ),
    ] {
        let mut group = c.benchmark_group(group_name);
        group.sample_size(8);
        for (name, fused) in configs() {
            let prog = program(plan(), fused);
            group.bench_function(name, |b| {
                b.iter(|| std::hint::black_box(engine.run(&prog, &catalog).expect("run")))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_pipeline_fusion);

fn mean_of<'a>(ms: &'a [Measurement], id: &str) -> Option<&'a Measurement> {
    ms.iter().find(|m| m.id == id)
}

fn main() {
    let mut criterion = Criterion::default();
    benches(&mut criterion);
    criterion.final_summary();

    let ms = take_measurements();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (speedup, speedup_min) = match (
        mean_of(&ms, "pipeline_fusion/unfused_pool"),
        mean_of(&ms, "pipeline_fusion/fused_pool"),
    ) {
        (Some(unfused), Some(fused)) => (
            unfused.mean_ns / fused.mean_ns,
            // Fastest-sample ratio: robust against scheduler noise on
            // shared machines, where slow outliers inflate both means.
            unfused.min_ns / fused.min_ns,
        ),
        _ => (f64::NAN, f64::NAN),
    };
    let results = emma_bench::bench_json(&ms, ROWS as u64);
    let json = format!(
        "{{\n  \"bench\": \"pipeline_fusion\",\n  \"rows\": {ROWS},\n  \"stages\": 10,\n  \"threads\": {threads},\n  \"speedup_fused_vs_unfused\": {speedup:.3},\n  \"speedup_fused_vs_unfused_min\": {speedup_min:.3},\n  \"results\": [\n{results}\n  ]\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_pipeline_fusion.json"
    );
    std::fs::write(path, &json).expect("write BENCH_pipeline_fusion.json");
    println!("\nwrote {path}");
    println!(
        "fused_pool vs unfused_pool speedup: {speedup:.2}x mean, {speedup_min:.2}x fastest-sample ({threads} threads)"
    );
}
