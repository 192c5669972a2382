//! Wall-clock cost of fault-tolerant execution. Three configurations of
//! the same map→filter→aggregate workload on the persistent worker pool:
//!
//! * `no_faults` — engine without a fault config;
//! * `faults_disabled` — engine carrying [`FaultConfig::disabled`], i.e.
//!   the per-dispatch injection check runs but every probability is zero;
//! * `chaos` — [`FaultConfig::chaos`] rates: injected task failures with
//!   retry recomputation, stragglers, and cache evictions.
//!
//! The headline number is `overhead_disabled_vs_none`: panic containment
//! (every partition task runs under `catch_unwind`) plus the disabled-config
//! check must cost at most a few percent over the no-config engine. The
//! `chaos` row quantifies what recovery costs in real time when injection
//! is actually on — interesting for calibration, not a regression gate.
//!
//! Writes `BENCH_fault_injection.json` at the repository root.

use criterion::{criterion_group, take_measurements, Criterion, Measurement};
use emma::prelude::*;

/// Large enough that per-partition task work dominates and the pool is
/// engaged (above the parallelism gate) on every operator.
const ROWS: i64 = 400_000;

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn lit(k: i64) -> ScalarExpr {
    ScalarExpr::lit(k)
}

/// Narrow chain into a grouped aggregate: covers the fused per-partition
/// pipeline path and the shuffle/aggregate task sites, so containment cost
/// is paid at every dispatch shape the engine has.
fn program() -> CompiledProgram {
    let t0 = || var("t").get(0);
    let t1 = || var("t").get(1);
    let p = Program::new(vec![
        Stmt::write(
            "out",
            BagExpr::read("xs")
                .map(Lambda::new(
                    ["t"],
                    ScalarExpr::Tuple(vec![
                        t0().mul(lit(3)).add(t1()).rem(lit(1_009)),
                        t1().mul(lit(7)).sub(t0()).rem(lit(997)),
                    ]),
                ))
                .filter(Lambda::new(["t"], t0().add(t1()).rem(lit(13)).ne(lit(0))))
                .map(Lambda::new(
                    ["t"],
                    ScalarExpr::Tuple(vec![t0().rem(lit(64)), t1()]),
                ))
                .group_by(Lambda::new(["t"], t0()))
                .map(Lambda::new(
                    ["g"],
                    ScalarExpr::Tuple(vec![
                        var("g").get(0),
                        BagExpr::of_value(var("g").get(1))
                            .map(Lambda::new(["t"], t1()))
                            .sum(),
                    ]),
                )),
        ),
        Stmt::val(
            "total",
            BagExpr::read("xs")
                .map(Lambda::new(["t"], var("t").get(1)))
                .sum(),
        ),
    ]);
    parallelize(&p, &OptimizerFlags::all())
}

fn configs() -> [(&'static str, Option<FaultConfig>); 3] {
    [
        ("no_faults", None),
        ("faults_disabled", Some(FaultConfig::disabled())),
        ("chaos", Some(FaultConfig::chaos(0xFA17))),
    ]
}

fn bench_fault_injection(c: &mut Criterion) {
    let catalog = Catalog::new().with(
        "xs",
        (0..ROWS)
            .map(|i| Value::tuple(vec![Value::Int(i % 4_096), Value::Int((i * 11) % 8_192)]))
            .collect::<Vec<_>>(),
    );
    let prog = program();
    let mut group = c.benchmark_group("fault_injection");
    group.sample_size(10);
    for (name, faults) in configs() {
        let mut engine = Engine::sparrow();
        if let Some(cfg) = faults {
            engine = engine.with_faults(cfg);
        }
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(engine.run(&prog, &catalog).expect("run")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fault_injection);

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
    let none = mean_of(&ms, "fault_injection/no_faults");
    let disabled = mean_of(&ms, "fault_injection/faults_disabled");
    let chaos = mean_of(&ms, "fault_injection/chaos");
    let (overhead, overhead_min) = match (none, disabled) {
        (Some(n), Some(d)) => (d.mean_ns / n.mean_ns, d.min_ns / n.min_ns),
        _ => (f64::NAN, f64::NAN),
    };
    let chaos_slowdown = match (none, chaos) {
        (Some(n), Some(ch)) => ch.mean_ns / n.mean_ns,
        _ => f64::NAN,
    };
    let results = emma_bench::bench_json(&ms, ROWS as u64);
    let json = format!(
        "{{\n  \"bench\": \"fault_injection\",\n  \"rows\": {ROWS},\n  \"threads\": {threads},\n  \"overhead_disabled_vs_none\": {overhead:.3},\n  \"overhead_disabled_vs_none_min\": {overhead_min:.3},\n  \"slowdown_chaos_vs_none\": {chaos_slowdown:.3},\n  \"results\": [\n{results}\n  ]\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fault_injection.json"
    );
    std::fs::write(path, &json).expect("write BENCH_fault_injection.json");
    println!("\nwrote {path}");
    println!(
        "faults_disabled vs no_faults overhead: {overhead:.3}x mean, {overhead_min:.3}x fastest-sample; chaos slowdown: {chaos_slowdown:.2}x ({threads} threads)"
    );
}
