//! Wall-clock and simulated-time cost of speculative execution. Four
//! configurations of the same map→filter→aggregate workload on the
//! persistent worker pool:
//!
//! * `no_faults` — engine without a fault config;
//! * `stragglers` — straggler-heavy chaos ([`FaultConfig::chaos`] with
//!   `straggler_p = 0.3`, 4-second injected delays), speculation off;
//! * `speculation` — the same schedule with backup tasks cloned for every
//!   straggler ([`FaultConfig::with_speculation`]);
//! * `speculation_quantile` — same, but only stragglers slower than the
//!   wave's 75th-percentile delay are cloned
//!   (`SpeculationPolicy::Quantile(0.75)`).
//!
//! The wall-clock rows show what the speculation bookkeeping costs in real
//! time (the backup race is settled on the driver from the deterministic
//! fate schedule, so it should be noise). The headline numbers are in the
//! simulated clock: `retry_sim_secs` with speculation on versus off — the
//! paper-world benefit of cloning stragglers — plus the duplicate work the
//! clones burn (`speculation_wasted_secs`).
//!
//! Writes `BENCH_speculation.json` at the repository root.

use criterion::{criterion_group, take_measurements, Criterion, Measurement};
use emma::prelude::*;
use emma_engine::SpeculationPolicy;

/// Large enough that per-partition task work dominates and the pool is
/// engaged (above the parallelism gate) on every operator.
const ROWS: i64 = 400_000;

const SEED: u64 = 0xFA17;

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn lit(k: i64) -> ScalarExpr {
    ScalarExpr::lit(k)
}

/// Same shape as the fault-injection bench: a narrow fused chain into a
/// grouped aggregate, touching every dispatch site speculation guards.
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

fn straggler_heavy() -> FaultConfig {
    FaultConfig::chaos(SEED)
        .with_straggler_p(0.3)
        .with_straggler_secs(4.0)
}

fn configs() -> [(&'static str, Option<FaultConfig>); 4] {
    [
        ("no_faults", None),
        ("stragglers", Some(straggler_heavy())),
        (
            "speculation",
            Some(straggler_heavy().with_speculation(true)),
        ),
        // Quantile policy: only stragglers slower than the wave's 75th
        // percentile get a backup clone — less duplicate work, most of the
        // straggler savings.
        (
            "speculation_quantile",
            Some(
                straggler_heavy()
                    .with_speculation(true)
                    .with_speculation_policy(SpeculationPolicy::Quantile(0.75)),
            ),
        ),
    ]
}

fn engine_for(faults: Option<FaultConfig>) -> Engine {
    let engine = Engine::sparrow();
    match faults {
        Some(cfg) => engine.with_faults(cfg),
        None => engine,
    }
}

fn bench_speculation(c: &mut Criterion) {
    let catalog = catalog();
    let prog = program();
    let mut group = c.benchmark_group("speculation");
    group.sample_size(10);
    for (name, faults) in configs() {
        let engine = engine_for(faults);
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(engine.run(&prog, &catalog).expect("run")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_speculation);

fn catalog() -> Catalog {
    Catalog::new().with(
        "xs",
        (0..ROWS)
            .map(|i| Value::tuple(vec![Value::Int(i % 4_096), Value::Int((i * 11) % 8_192)]))
            .collect::<Vec<_>>(),
    )
}

fn mean_of<'a>(ms: &'a [Measurement], id: &str) -> Option<&'a Measurement> {
    ms.iter().find(|m| m.id == id)
}

fn main() {
    let mut criterion = Criterion::default();
    benches(&mut criterion);
    criterion.final_summary();

    // One deterministic run per fault config for the simulated-clock story
    // (wall samples above measure the bookkeeping, not the modeled delays).
    let catalog = catalog();
    let prog = program();
    let off = engine_for(Some(straggler_heavy()))
        .run(&prog, &catalog)
        .expect("stragglers run");
    let on = engine_for(Some(straggler_heavy().with_speculation(true)))
        .run(&prog, &catalog)
        .expect("speculation run");
    let quantile = engine_for(Some(
        straggler_heavy()
            .with_speculation(true)
            .with_speculation_policy(SpeculationPolicy::Quantile(0.75)),
    ))
    .run(&prog, &catalog)
    .expect("quantile run");

    let ms = take_measurements();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let wall_overhead = match (
        mean_of(&ms, "speculation/stragglers"),
        mean_of(&ms, "speculation/speculation"),
    ) {
        (Some(s), Some(sp)) => sp.mean_ns / s.mean_ns,
        _ => f64::NAN,
    };
    let results = emma_bench::bench_json(&ms, ROWS as u64);
    let json = format!(
        "{{\n  \"bench\": \"speculation\",\n  \"rows\": {ROWS},\n  \"threads\": {threads},\n  \"wall_overhead_speculation_vs_stragglers\": {wall_overhead:.3},\n  \"sim_secs_stragglers\": {:.6},\n  \"sim_secs_speculation\": {:.6},\n  \"sim_secs_speculation_quantile\": {:.6},\n  \"retry_sim_secs_stragglers\": {:.6},\n  \"retry_sim_secs_speculation\": {:.6},\n  \"retry_sim_secs_speculation_quantile\": {:.6},\n  \"tasks_speculated\": {},\n  \"tasks_speculated_quantile\": {},\n  \"speculation_wins\": {},\n  \"speculation_wins_quantile\": {},\n  \"speculation_wasted_secs\": {:.6},\n  \"speculation_wasted_secs_quantile\": {:.6},\n  \"results\": [\n{results}\n  ]\n}}\n",
        off.stats.simulated_secs,
        on.stats.simulated_secs,
        quantile.stats.simulated_secs,
        off.stats.retry_sim_secs,
        on.stats.retry_sim_secs,
        quantile.stats.retry_sim_secs,
        on.stats.tasks_speculated,
        quantile.stats.tasks_speculated,
        on.stats.speculation_wins,
        quantile.stats.speculation_wins,
        on.stats.speculation_wasted_secs,
        quantile.stats.speculation_wasted_secs,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_speculation.json");
    std::fs::write(path, &json).expect("write BENCH_speculation.json");
    println!("\nwrote {path}");
    println!(
        "simulated: {:.1}s stragglers -> {:.1}s with speculation ({} wins / {} clones, {:.1}s duplicate work); wall overhead {wall_overhead:.3}x ({threads} threads)",
        off.stats.simulated_secs,
        on.stats.simulated_secs,
        on.stats.speculation_wins,
        on.stats.tasks_speculated,
        on.stats.speculation_wasted_secs,
    );
    println!(
        "quantile(0.75) policy: {:.1}s with {} clones ({:.1}s duplicate work) vs clone-everything's {} clones",
        quantile.stats.simulated_secs,
        quantile.stats.tasks_speculated,
        quantile.stats.speculation_wasted_secs,
        on.stats.tasks_speculated,
    );
}
