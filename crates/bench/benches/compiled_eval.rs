//! Wall-clock benchmark of the compiled-evaluator tier: the same
//! lambda-heavy narrow chain ([`emma_bench::lambda_chain`]) executed
//! (a) through the tree-walking reference interpreter and (b) through the
//! slot-based evaluators that `EvalTier::Compiled` lowers every UDF into once
//! per run. Both configurations run fused on the persistent worker pool, so
//! the only difference is how each row is evaluated on the host: AST walk
//! with name-resolved environment lookups versus a flat postfix program
//! over indexed slots with closed subtrees pre-folded.
//!
//! Besides printing the usual criterion summary, the harness writes
//! `BENCH_compiled_eval.json` at the repository root with the raw
//! measurements and the headline compiled-vs-interpreted speedup. The
//! deterministic *simulated* time is identical in both configurations by
//! construction (see `tests/compiled_equivalence.rs`); everything measured
//! here is real elapsed time.

use criterion::{criterion_group, take_measurements, Criterion, Measurement};
use emma::prelude::*;
use emma_bench::lambda_chain::{self, ROWS, STAGES};

/// Both configurations run the identical fused plan on the worker pool;
/// only the evaluation tier differs.
fn configs() -> [(&'static str, EvalTier); 2] {
    [
        ("interp_fused_pool", EvalTier::Interp),
        ("compiled_fused_pool", EvalTier::Compiled),
    ]
}

fn bench_compiled_eval(c: &mut Criterion) {
    let catalog = lambda_chain::catalog();
    let engine = Engine::sparrow();
    let mut group = c.benchmark_group("compiled_eval");
    group.sample_size(8);
    for (name, tier) in configs() {
        let prog = lambda_chain::program(tier);
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(engine.run(&prog, &catalog).expect("run")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compiled_eval);

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
        mean_of(&ms, "compiled_eval/interp_fused_pool"),
        mean_of(&ms, "compiled_eval/compiled_fused_pool"),
    ) {
        (Some(interp), Some(compiled)) => (
            interp.mean_ns / compiled.mean_ns,
            // Fastest-sample ratio: robust against scheduler noise on
            // shared machines, where slow outliers inflate both means.
            interp.min_ns / compiled.min_ns,
        ),
        _ => (f64::NAN, f64::NAN),
    };
    let results = emma_bench::bench_json(&ms, ROWS as u64);
    let json = format!(
        "{{\n  \"bench\": \"compiled_eval\",\n  \"rows\": {ROWS},\n  \"stages\": {STAGES},\n  \"threads\": {threads},\n  \"speedup_compiled_vs_interp\": {speedup:.3},\n  \"speedup_compiled_vs_interp_min\": {speedup_min:.3},\n  \"results\": [\n{results}\n  ]\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_compiled_eval.json"
    );
    std::fs::write(path, &json).expect("write BENCH_compiled_eval.json");
    println!("\nwrote {path}");
    println!(
        "compiled_fused_pool vs interp_fused_pool speedup: {speedup:.2}x mean, {speedup_min:.2}x fastest-sample ({threads} threads)"
    );
}
