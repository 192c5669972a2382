//! Pinned-clock regression suite for the `aggBy` combiner/merge path.
//!
//! A fused group-aggregate carries its partials as unboxed
//! `(hash, key, acc)` triples from the combiner through the partial shuffle
//! to the merge, and sums the shuffled bytes without building the
//! `(key, acc)` rows it charges for. These tests pin what that path must
//! never move:
//!
//! 1. **Clock bits and counters**: the Fig. 5 group aggregation, TPC-H Q1
//!    and PageRank each reproduce the recorded sink rows,
//!    `simulated_secs` bits, `bytes_shuffled`, `records_processed` and
//!    `stages` on 1, 2 and 4 threads, with skew splitting off and on (the
//!    "on" legs run the split branch of the partial shuffle).
//! 2. **Merge-phase first error**: a `uni` that fails only when partials
//!    from two partitions meet surfaces the recorded error on every thread
//!    count, with and without injected task failures; the failure-free
//!    twin of that program replays its recorded rows, clock bits and
//!    `tasks_failed` under injected failures, which re-run merge tasks.
//!
//! The pinned values come from partials boxed as `(key, acc)` rows; the
//! unboxed representation must reproduce every one of them.

#[allow(dead_code)]
#[path = "../../../src/algorithms/groupagg.rs"]
mod groupagg;
#[allow(dead_code)]
#[path = "../../../src/algorithms/pagerank.rs"]
mod pagerank;
#[allow(dead_code)]
#[path = "../../../src/algorithms/tpch.rs"]
mod tpch;

use emma_compiler::bag_expr::BagExpr;
use emma_compiler::expr::{FoldOp, Lambda, ScalarExpr};
use emma_compiler::interp::Catalog;
use emma_compiler::pipeline::{parallelize, CompiledProgram, OptimizerFlags};
use emma_compiler::program::{Program, Stmt};
use emma_compiler::value::{Value, ValueError};
use emma_datagen::distributions::KeyDistribution;
use emma_datagen::graph::GraphSpec;
use emma_datagen::tpch::TpchSpec;
use emma_engine::cluster::{ClusterSpec, Personality};
use emma_engine::exec::EngineRun;
use emma_engine::{Engine, ExecError, FaultConfig, SkewConfig};

/// The thread counts every pin must hold on.
const THREADS: [usize; 3] = [1, 2, 4];

/// What a run must reproduce bit for bit.
#[derive(Debug, PartialEq)]
struct Pin {
    /// FNV-1a over the `Debug` rendering of every sink, in sink-name order.
    rows: u64,
    sim_bits: u64,
    bytes_shuffled: u64,
    records_processed: u64,
    stages: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn rows_fingerprint(run: &EngineRun) -> u64 {
    let mut sinks: Vec<_> = run.writes.iter().collect();
    sinks.sort_by(|a, b| a.0.cmp(b.0));
    fnv1a(format!("{sinks:?}").as_bytes())
}

fn pin_of(run: &EngineRun) -> Pin {
    Pin {
        rows: rows_fingerprint(run),
        sim_bits: run.stats.simulated_secs.to_bits(),
        bytes_shuffled: run.stats.bytes_shuffled,
        records_processed: run.stats.records_processed,
        stages: run.stats.stages,
    }
}

/// The benchmark's engine, fanning out even at these small sizes.
fn engine(threads: usize, skew: bool) -> Engine {
    let e = Engine::sparrow()
        .with_worker_threads(Some(threads))
        .with_parallelism_threshold(0);
    if skew {
        e.with_skew_splitting(SkewConfig::default().with_min_part_rows(64))
    } else {
        e
    }
}

/// Runs `program` on every thread count with skew splitting off and on and
/// checks each run against its pin; the skew legs must actually split.
fn assert_pinned(program: &Program, catalog: &Catalog, off: Pin, on: Pin) {
    let compiled = parallelize(program, &OptimizerFlags::all());
    assert!(compiled.report.fold_group_fused > 0, "no aggBy to pin");
    for threads in THREADS {
        let run = engine(threads, false).run(&compiled, catalog).expect("run");
        assert_eq!(pin_of(&run), off, "skew off, {threads} threads");
        let run = engine(threads, true).run(&compiled, catalog).expect("run");
        assert!(run.stats.partitions_split > 0, "skew leg did not split");
        assert_eq!(pin_of(&run), on, "skew on, {threads} threads");
    }
}

#[test]
fn groupagg_pins_clock_bits_and_counters() {
    let catalog = groupagg::catalog(20_000, 500, KeyDistribution::Uniform, 7);
    assert_pinned(
        &groupagg::program(),
        &catalog,
        Pin {
            rows: 2585650391912793194,
            sim_bits: 4605620692319801338,
            bytes_shuffled: 600992,
            records_processed: 59281,
            stages: 3,
        },
        Pin {
            rows: 7953470469551893968,
            sim_bits: 4605066946378216138,
            bytes_shuffled: 600992,
            records_processed: 59281,
            stages: 3,
        },
    );
}

#[test]
fn tpch_q1_pins_clock_bits_and_counters() {
    let catalog = tpch::catalog(&TpchSpec {
        scale: 3.0,
        seed: 7,
    });
    assert_pinned(
        &tpch::q1_program(),
        &catalog,
        Pin {
            rows: 7660601844741010272,
            sim_bits: 4608791126597762548,
            bytes_shuffled: 246480,
            records_processed: 54959,
            stages: 3,
        },
        Pin {
            rows: 7660601844741010272,
            sim_bits: 4608350033456463348,
            bytes_shuffled: 246480,
            records_processed: 54959,
            stages: 3,
        },
    );
}

#[test]
fn pagerank_pins_clock_bits_and_counters() {
    let spec = GraphSpec {
        vertices: 400,
        avg_degree: 8,
        skew: GraphSpec::default().skew,
        seed: 7,
    };
    let params = pagerank::PagerankParams {
        damping: 0.85,
        iterations: 3,
        num_pages: spec.vertices,
    };
    assert_pinned(
        &pagerank::program(&params),
        &pagerank::catalog(&spec),
        Pin {
            rows: 13944309546011703193,
            sim_bits: 4615836753210549417,
            bytes_shuffled: 288576,
            records_processed: 34929,
            stages: 15,
        },
        Pin {
            rows: 8334206185824970181,
            sim_bits: 4615813575065631248,
            bytes_shuffled: 288576,
            records_processed: 34929,
            stages: 15,
        },
    );
}

// ---------------------------------------------------------------------------
// Merge-phase first error
// ---------------------------------------------------------------------------

/// `for (g <- rows.groupBy(_.0)) yield (g.key, fold(null, _.1, uni))` with
/// `uni(a, b) = if a == null then b else a + b`: a partition holding one
/// non-numeric value for a key combines fine (`null` absorbs it), and the
/// failure waits for the merge, where it meets another partition's `Int`.
fn merge_error_program() -> CompiledProgram {
    let fold = FoldOp::custom(
        ScalarExpr::lit(Value::Null),
        Lambda::new(["x"], ScalarExpr::var("x")),
        Lambda::new(
            ["a", "b"],
            ScalarExpr::If(
                Box::new(ScalarExpr::var("a").eq_null()),
                Box::new(ScalarExpr::var("b")),
                Box::new(ScalarExpr::var("a").add(ScalarExpr::var("b"))),
            ),
        ),
    );
    let agg = BagExpr::read("rows")
        .group_by(Lambda::new(["t"], ScalarExpr::var("t").get(0)))
        .map(Lambda::new(
            ["g"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::var("g").get(0),
                BagExpr::of_value(ScalarExpr::var("g").get(1))
                    .map(Lambda::new(["t"], ScalarExpr::var("t").get(1)))
                    .fold(fold),
            ]),
        ));
    let compiled = parallelize(
        &Program::new(vec![Stmt::write("agg", agg)]),
        &OptimizerFlags::all(),
    );
    assert_eq!(compiled.report.fold_group_fused, 1);
    compiled
}

/// 64 rows, so the tiny cluster's 8 source partitions hold 8 rows each.
/// Keys 100 and 200 take `Int`s in partitions 0 and 2; with `poison`,
/// partition 5 adds a `Str` for key 100 and partition 7 a `Bool` for key
/// 200, so two merge tasks fail with distinguishable errors.
fn merge_error_catalog(poison: bool) -> Catalog {
    let row = |k: i64, v: Value| Value::tuple(vec![Value::Int(k), v]);
    let rows = (0..64i64)
        .map(|i| match (i / 8, i % 8) {
            (0, 0..=3) => row(100, Value::Int(i)),
            (2, 0..=3) => row(200, Value::Int(i)),
            (5, 0) if poison => row(100, Value::str("x")),
            (7, 0) if poison => row(200, Value::Bool(true)),
            _ => row(i % 10, Value::Int(i)),
        })
        .collect();
    Catalog::new().with("rows", rows)
}

fn tiny_engine(threads: usize) -> Engine {
    Engine::new(ClusterSpec::tiny(), Personality::sparrow())
        .with_worker_threads(Some(threads))
        .with_parallelism_threshold(0)
}

fn chaos() -> FaultConfig {
    FaultConfig::chaos(0xA66B).with_task_fail_p(0.3)
}

#[test]
fn merge_phase_first_error_is_pinned() {
    let compiled = merge_error_program();
    let catalog = merge_error_catalog(true);
    for threads in THREADS {
        for faults in [false, true] {
            let e = tiny_engine(threads);
            let e = if faults { e.with_faults(chaos()) } else { e };
            let err = e.run(&compiled, &catalog).expect_err("merge must fail");
            assert!(
                matches!(
                    err,
                    ExecError::Eval(ValueError::TypeMismatch {
                        expected: "Float",
                        found: "Str",
                    })
                ),
                "{threads} threads, faults {faults}: {err:?}"
            );
        }
    }
}

#[test]
fn merge_phase_retries_are_pinned() {
    let compiled = merge_error_program();
    let catalog = merge_error_catalog(false);
    let clean = tiny_engine(1).run(&compiled, &catalog).expect("run");
    for threads in THREADS {
        let run = tiny_engine(threads)
            .with_faults(chaos())
            .run(&compiled, &catalog)
            .expect("retries recover");
        assert_eq!(run.writes, clean.writes, "{threads} threads");
        assert_eq!(
            (
                rows_fingerprint(&run),
                run.stats.simulated_secs.to_bits(),
                run.stats.tasks_failed,
            ),
            (3752661475837066763, 4618989532542921734, 13),
            "{threads} threads"
        );
    }
}
