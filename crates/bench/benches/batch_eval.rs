//! Wall-clock benchmark of the vectorized batch-evaluation tier: the
//! lambda-heavy narrow chain ([`emma_bench::lambda_chain`], 1 M `(i64,
//! i64)` rows through thirteen fused Map/Filter operators) executed
//! (a) row-at-a-time through the slot-based scalar compiled evaluators and
//! (b) in typed columnar batches (`EvalTier::Vectorized`).
//! Both configurations run the identical fused plan on the persistent
//! worker pool; the only difference is batch-at-a-time kernel dispatch
//! versus per-row postfix interpretation, so the ratio is the headline
//! number for the vectorized tier.
//!
//! Besides the criterion summary, the harness writes
//! `BENCH_batch_eval.json` at the repository root with the raw
//! measurements, per-configuration `records_per_sec`, and the headline
//! `speedup_vectorized_vs_scalar`. The interpreter tier is included as a
//! third configuration so the report shows the full tier ladder. The
//! deterministic *simulated* time is identical in all configurations by
//! construction (see `tests/compiled_equivalence.rs`); everything measured
//! here is real elapsed time.

use criterion::{criterion_group, take_measurements, Criterion, Measurement};
use emma::prelude::*;
use emma_bench::lambda_chain::{self, ROWS, STAGES};
use emma_bench::string_filter;

/// Batch size for the vectorized configuration (the `BatchConfig` default).
const BATCH_ROWS: usize = 1_024;

const VECTORIZED: EvalTier = EvalTier::Vectorized(BatchConfig {
    batch_rows: BATCH_ROWS,
});

/// The three tiers, each running the identical fused plan on the pool.
fn configs() -> [(&'static str, EvalTier); 3] {
    [
        ("interp_fused_pool", EvalTier::Interp),
        ("scalar_compiled_pool", EvalTier::Compiled),
        ("vectorized_pool", VECTORIZED),
    ]
}

fn bench_batch_eval(c: &mut Criterion) {
    let catalog = lambda_chain::catalog();
    let engine = Engine::sparrow();
    let mut group = c.benchmark_group("batch_eval");
    group.sample_size(8);
    for (name, tier) in configs() {
        let prog = lambda_chain::program(tier);
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(engine.run(&prog, &catalog).expect("run")))
        });
    }
    group.finish();
}

/// The string-workload leg: the email-domain `contains` filter chain
/// ([`emma_bench::string_filter`], 1 M `(i64, Str)` rows) through the same
/// three tiers. The head stage scans every email for `gmail.com` and keeps
/// ~15 %; the ratio is the headline number for the string kernels.
fn bench_batch_eval_strings(c: &mut Criterion) {
    let catalog = string_filter::catalog();
    let engine = Engine::sparrow();
    let mut group = c.benchmark_group("batch_eval_strings");
    group.sample_size(8);
    for (name, tier) in configs() {
        let prog = string_filter::program(tier);
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(engine.run(&prog, &catalog).expect("run")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_eval, bench_batch_eval_strings);

fn mean_of<'a>(ms: &'a [Measurement], id: &str) -> Option<&'a Measurement> {
    ms.iter().find(|m| m.id == id)
}

fn main() {
    // The measured chain must actually vectorize end-to-end: no silent
    // fallback may turn the headline into a scalar-vs-scalar comparison.
    let catalog = lambda_chain::catalog();
    let run = Engine::sparrow()
        .run(&lambda_chain::program(VECTORIZED), &catalog)
        .expect("vectorized run");
    assert!(
        run.stats.rows_vectorized >= ROWS as u64 && run.stats.vector_fallbacks == 0,
        "lambda chain must fully vectorize (got {}r vectorized, {} fallbacks)",
        run.stats.rows_vectorized,
        run.stats.vector_fallbacks
    );
    drop(run);
    drop(catalog);
    // Same preflight for the string chain: the `contains` head, the string
    // comparison, and the `strlen` collapse must all run in the batch tier,
    // and no wide operator may quietly fall off the vectorized key path.
    let catalog = string_filter::catalog();
    let run = Engine::sparrow()
        .run(&string_filter::program(VECTORIZED), &catalog)
        .expect("vectorized string run");
    assert!(
        run.stats.rows_vectorized >= string_filter::ROWS as u64
            && run.stats.vector_fallbacks == 0
            && run.stats.key_path_fallbacks == 0,
        "string chain must fully vectorize (got {}r vectorized, {} fallbacks, {} key fallbacks)",
        run.stats.rows_vectorized,
        run.stats.vector_fallbacks,
        run.stats.key_path_fallbacks
    );
    drop(run);
    drop(catalog);

    let mut criterion = Criterion::default();
    benches(&mut criterion);
    criterion.final_summary();

    let ms = take_measurements();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let tier_speedups = |group: &str| match (
        mean_of(&ms, &format!("{group}/scalar_compiled_pool")),
        mean_of(&ms, &format!("{group}/vectorized_pool")),
    ) {
        (Some(scalar), Some(vectorized)) => (
            scalar.mean_ns / vectorized.mean_ns,
            // Fastest-sample ratio: robust against scheduler noise on
            // shared machines, where slow outliers inflate both means.
            scalar.min_ns / vectorized.min_ns,
        ),
        _ => (f64::NAN, f64::NAN),
    };
    let (speedup, speedup_min) = tier_speedups("batch_eval");
    let (str_speedup, str_speedup_min) = tier_speedups("batch_eval_strings");
    let results = emma_bench::bench_json(&ms, ROWS as u64);
    let json = format!(
        "{{\n  \"bench\": \"batch_eval\",\n  \"rows\": {ROWS},\n  \"stages\": {STAGES},\n  \"batch_rows\": {BATCH_ROWS},\n  \"threads\": {threads},\n  \"speedup_vectorized_vs_scalar\": {speedup:.3},\n  \"speedup_vectorized_vs_scalar_min\": {speedup_min:.3},\n  \"string_rows\": {},\n  \"string_stages\": {},\n  \"speedup_vectorized_vs_scalar_strings\": {str_speedup:.3},\n  \"speedup_vectorized_vs_scalar_strings_min\": {str_speedup_min:.3},\n  \"results\": [\n{results}\n  ]\n}}\n",
        string_filter::ROWS,
        string_filter::STAGES,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch_eval.json");
    std::fs::write(path, &json).expect("write BENCH_batch_eval.json");
    println!("\nwrote {path}");
    println!(
        "vectorized_pool vs scalar_compiled_pool speedup: {speedup:.2}x mean, {speedup_min:.2}x fastest-sample ({threads} threads, batch {BATCH_ROWS})"
    );
    println!("string leg: {str_speedup:.2}x mean, {str_speedup_min:.2}x fastest-sample");
    // CI smoke gates. The fastest-sample ratio is the headline on shared
    // runners: slow outliers inflate both means, but the best sample of
    // each configuration is comparable.
    assert!(
        speedup.max(speedup_min) >= 1.2,
        "vectorized tier must deliver >= 1.2x wall speedup over the scalar \
         compiled tier on the lambda-heavy chain, got {speedup:.3}x mean / \
         {speedup_min:.3}x fastest-sample"
    );
    assert!(
        str_speedup.max(str_speedup_min) >= 1.2,
        "string kernels must deliver >= 1.2x wall speedup over the scalar \
         compiled tier on the email-domain chain, got {str_speedup:.3}x mean / \
         {str_speedup_min:.3}x fastest-sample"
    );
}
