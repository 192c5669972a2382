//! Skew-aware shuffle: hot-partition splitting vs. the plain hash shuffle
//! on Zipf-keyed wide operators, at three skew levels.
//!
//! Two workloads on the paper-scaled cluster (DOP 320, 2 MiB worker
//! memory):
//!
//! * `groupby/s{0.8,1.1,1.4}` — a raw `groupBy` over Zipf-keyed events.
//!   Under heavy skew the hot key's partition dominates the per-record
//!   critical path (and, on larger rows, the spill penalty); splitting it
//!   lets the two-phase merge pay balanced sub-reducer time instead.
//! * `join/s1.4` — a repartition join probing the same skewed events
//!   against a dimension table too large to broadcast. Splitting the probe
//!   side replicates the (small) build buckets across the sub-partitions.
//!
//! Wall-clock rows measure the real bookkeeping cost of the split path;
//! the headline is in the simulated cluster clock, where the rebalanced
//! schedule's critical path shrinks: `speedup_split_vs_unsplit` is the
//! sim-clock ratio on the most skewed `groupBy` chain and must clear 1.2×.
//!
//! Writes `BENCH_skew.json` at the repository root.

use criterion::{criterion_group, take_measurements, Criterion, Measurement};
use emma::prelude::*;
use emma_datagen::distributions::{self, KeyDistribution};
use emma_engine::dataset::value_hash;
use emma_engine::skew::{self, SkewConfig};

/// Sized so the hot partition under Zipf(1.4) holds ~30% of all rows —
/// a ~100× skew ratio over the mean partition at DOP 320.
const ROWS: usize = 200_000;
const KEYS: i64 = 1_000;
const SEED: u64 = 0x5157;

/// The skew exponents benchmarked: mild, moderate, heavy.
const SKEW_LEVELS: [f64; 3] = [0.8, 1.1, 1.4];

/// The headline level: the most skewed groupBy chain.
const HEADLINE_S: f64 = 1.4;

fn t0() -> ScalarExpr {
    ScalarExpr::var("t").get(0)
}

/// Raw `groupBy` chain: map → groupBy, plus a driver fold. The group
/// materialization on the hot reducer is what splitting rescues.
fn groupby_program() -> CompiledProgram {
    let p = Program::new(vec![
        Stmt::write(
            "groups",
            BagExpr::read("events")
                .map(Lambda::new(
                    ["t"],
                    ScalarExpr::Tuple(vec![
                        t0(),
                        ScalarExpr::var("t").get(1).mul(ScalarExpr::lit(3)),
                    ]),
                ))
                .group_by(Lambda::new(["t"], t0())),
        ),
        Stmt::val(
            "total",
            BagExpr::read("events")
                .map(Lambda::new(["t"], ScalarExpr::var("t").get(1)))
                .sum(),
        ),
    ]);
    parallelize(&p, &OptimizerFlags::all())
}

/// Repartition join: the dimension payload pushes the build side past the
/// paper-scaled 32 KiB broadcast threshold, so the probe side shuffles —
/// and under skew, splits.
fn join_program() -> CompiledProgram {
    // Guard orientation matters: the eq's left operand names the probe
    // side, so `o.0 == d.0` keeps the skewed events on the probe.
    let join_inner = BagExpr::read("dims")
        .filter(Lambda::new(
            ["d"],
            ScalarExpr::var("o").get(0).eq(ScalarExpr::var("d").get(0)),
        ))
        .map(Lambda::new(
            ["d"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::var("o").get(0),
                ScalarExpr::var("o").get(1).add(ScalarExpr::var("d").get(1)),
            ]),
        ));
    let p = Program::new(vec![Stmt::write(
        "joined",
        BagExpr::read("events").flat_map(BagLambda::new("o", join_inner)),
    )]);
    parallelize(&p, &OptimizerFlags::all())
}

fn catalog(s: f64) -> Catalog {
    let dims: Vec<Value> = (0..KEYS)
        .map(|k| {
            Value::tuple(vec![
                Value::Int(k),
                Value::Int(k * 10),
                Value::str("d".repeat(64)),
            ])
        })
        .collect();
    Catalog::new()
        .with(
            "events",
            distributions::keyed_tuples(ROWS, KEYS, KeyDistribution::Zipf(s), SEED),
        )
        .with("dims", dims)
}

fn engine(split: bool) -> Engine {
    let e = Engine::sparrow();
    if split {
        e.with_skew_splitting(SkewConfig::default())
    } else {
        e
    }
}

fn bench_skew_split(c: &mut Criterion) {
    let groupby = groupby_program();
    let mut group = c.benchmark_group("skew_groupby");
    group.sample_size(10);
    for s in SKEW_LEVELS {
        let catalog = catalog(s);
        for (cfg, split) in [("unsplit", false), ("split", true)] {
            let e = engine(split);
            group.bench_function(format!("s{s}_{cfg}"), |b| {
                b.iter(|| std::hint::black_box(e.run(&groupby, &catalog).expect("run")))
            });
        }
    }
    group.finish();

    let join = join_program();
    let catalog = catalog(HEADLINE_S);
    let mut group = c.benchmark_group("skew_join");
    group.sample_size(10);
    for (cfg, split) in [("unsplit", false), ("split", true)] {
        let e = engine(split);
        group.bench_function(format!("s{HEADLINE_S}_{cfg}"), |b| {
            b.iter(|| std::hint::black_box(e.run(&join, &catalog).expect("run")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_skew_split);

/// Hot-partition row counts before/after splitting, computed on the exact
/// layout the engine's hash shuffle produces.
fn layout_numbers(s: f64) -> (u64, u64, f64) {
    let spec = ClusterSpec::paper_scaled();
    let dop = spec.nodes * spec.cores_per_node;
    let rows = distributions::keyed_tuples(ROWS, KEYS, KeyDistribution::Zipf(s), SEED);
    let mut sizes = vec![0u64; dop];
    for row in &rows {
        let key = row.field(0).expect("keyed tuple").clone();
        sizes[(value_hash(&key) % dop as u64) as usize] += 1;
    }
    let pre_max = *sizes.iter().max().unwrap_or(&0);
    let post_max = match skew::plan_splits(&SkewConfig::default(), &sizes) {
        Some(plan) => sizes
            .iter()
            .zip(&plan.ways)
            .map(|(&n, &w)| n.div_ceil(w as u64))
            .max()
            .unwrap_or(0),
        None => pre_max,
    };
    (pre_max, post_max, skew::skew_ratio(&sizes))
}

fn mean_of<'a>(ms: &'a [Measurement], id: &str) -> Option<&'a Measurement> {
    ms.iter().find(|m| m.id == id)
}

fn main() {
    let mut criterion = Criterion::default();
    benches(&mut criterion);
    criterion.final_summary();

    // Deterministic sim-clock runs per skew level: the wall samples above
    // measure split bookkeeping; the modeled cluster time is the story.
    let groupby = groupby_program();
    let join = join_program();
    let mut levels = String::new();
    let mut headline = f64::NAN;
    for (i, s) in SKEW_LEVELS.into_iter().enumerate() {
        let catalog = catalog(s);
        let off = engine(false).run(&groupby, &catalog).expect("unsplit run");
        let on = engine(true).run(&groupby, &catalog).expect("split run");
        assert_eq!(off.scalars, on.scalars, "splitting changed results");
        let speedup = off.stats.simulated_secs / on.stats.simulated_secs;
        if s == HEADLINE_S {
            headline = speedup;
        }
        let (pre_max, post_max, ratio) = layout_numbers(s);
        if i > 0 {
            levels.push_str(",\n");
        }
        levels.push_str(&format!(
            "    {{\"s\": {s}, \"sim_secs_unsplit\": {:.6}, \"sim_secs_split\": {:.6}, \"speedup\": {speedup:.3}, \"partitions_split\": {}, \"split_rows_moved\": {}, \"max_skew_ratio\": {:.3}, \"bytes_spilled_unsplit\": {}, \"bytes_spilled_split\": {}, \"max_part_rows_unsplit\": {pre_max}, \"max_part_rows_split\": {post_max}}}",
            off.stats.simulated_secs,
            on.stats.simulated_secs,
            on.stats.partitions_split,
            on.stats.split_rows_moved,
            on.stats.max_skew_ratio,
            off.stats.bytes_spilled,
            on.stats.bytes_spilled,
        ));
        println!(
            "groupby s={s}: {:.1}s -> {:.1}s sim ({speedup:.2}x), layout skew {ratio:.1}, hot partition {pre_max} -> {post_max} rows, {} splits",
            off.stats.simulated_secs, on.stats.simulated_secs, on.stats.partitions_split,
        );
    }

    let jcat = catalog(HEADLINE_S);
    let joff = engine(false).run(&join, &jcat).expect("join unsplit");
    let jon = engine(true).run(&join, &jcat).expect("join split");
    assert_eq!(joff.writes, jon.writes, "splitting changed join rows");
    let join_speedup = joff.stats.simulated_secs / jon.stats.simulated_secs;
    println!(
        "join s={HEADLINE_S}: {:.1}s -> {:.1}s sim ({join_speedup:.2}x), {} splits, {} rows moved",
        joff.stats.simulated_secs,
        jon.stats.simulated_secs,
        jon.stats.partitions_split,
        jon.stats.split_rows_moved,
    );

    let ms = take_measurements();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let wall_overhead = match (
        mean_of(&ms, &format!("skew_groupby/s{HEADLINE_S}_unsplit")),
        mean_of(&ms, &format!("skew_groupby/s{HEADLINE_S}_split")),
    ) {
        (Some(u), Some(sp)) => sp.mean_ns / u.mean_ns,
        _ => f64::NAN,
    };
    let results = emma_bench::bench_json(&ms, ROWS as u64);
    let json = format!(
        "{{\n  \"bench\": \"skew_split\",\n  \"rows\": {ROWS},\n  \"keys\": {KEYS},\n  \"threads\": {threads},\n  \"speedup_split_vs_unsplit\": {headline:.3},\n  \"join_speedup_split_vs_unsplit\": {join_speedup:.3},\n  \"wall_overhead_split_vs_unsplit\": {wall_overhead:.3},\n  \"join_sim_secs_unsplit\": {:.6},\n  \"join_sim_secs_split\": {:.6},\n  \"levels\": [\n{levels}\n  ],\n  \"results\": [\n{results}\n  ]\n}}\n",
        joff.stats.simulated_secs,
        jon.stats.simulated_secs,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_skew.json");
    std::fs::write(path, &json).expect("write BENCH_skew.json");
    println!("\nwrote {path}");
    println!(
        "headline: groupby s={HEADLINE_S} split speedup {headline:.2}x sim (target >= 1.2x); wall overhead {wall_overhead:.3}x ({threads} threads)"
    );
    assert!(
        headline >= 1.2,
        "skew splitting must deliver >= 1.2x simulated speedup on the skewed groupBy chain, got {headline:.3}x"
    );
}
