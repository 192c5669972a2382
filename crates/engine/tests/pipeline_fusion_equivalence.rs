//! Property tests: executing a fused `Plan::Pipeline` must be observably
//! identical to executing the unfused operator chain — same output rows in
//! the same order, and bit-identical deterministic counters (`ExecStats`
//! equality covers `simulated_secs` via the exact attosecond accumulator,
//! all byte/record counters, stages, and cache hit/miss counts).
//!
//! The same invariance must hold across thread counts and the fan-out gate:
//! a 4-thread worker pool, the default engine, and serial execution below
//! the fan-out threshold may not change any output or counter.

use emma_compiler::bag_expr::BagExpr;
use emma_compiler::expr::{FoldOp, Lambda, ScalarExpr};
use emma_compiler::interp::Catalog;
use emma_compiler::physical_pipeline::apply_pipeline_fusion;
use emma_compiler::pipeline::{CStmt, CompiledProgram, EvalTier, OptimizationReport};
use emma_compiler::plan::Plan;
use emma_compiler::value::Value;
use emma_engine::{Engine, EngineRun};
use proptest::prelude::*;

/// One randomly drawn narrow operator over `Int` rows.
#[derive(Clone, Copy, Debug)]
enum NarrowOp {
    /// `x => x + k`
    MapAdd(i64),
    /// `x => x * k`
    MapMul(i64),
    /// `x => x > k`
    FilterGt(i64),
    /// `x => x < k`
    FilterLt(i64),
    /// `x => {x + 0, x + 1}` — doubles the row count.
    FlatMapPair,
    /// `x => {d <- {1,2,3} | d > x mod-ish bound}` via literal deltas,
    /// mapped through `x*2 + d` — variable fan-out incl. empty.
    FlatMapDeltas(i64),
}

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn lit(k: i64) -> ScalarExpr {
    ScalarExpr::lit(k)
}

impl NarrowOp {
    fn apply(self, input: Plan) -> Plan {
        let input = Box::new(input);
        match self {
            NarrowOp::MapAdd(k) => Plan::Map {
                input,
                f: Lambda::new(["x"], var("x").add(lit(k))),
            },
            NarrowOp::MapMul(k) => Plan::Map {
                input,
                f: Lambda::new(["x"], var("x").mul(lit(k))),
            },
            NarrowOp::FilterGt(k) => Plan::Filter {
                input,
                p: Lambda::new(["x"], var("x").gt(lit(k))),
            },
            NarrowOp::FilterLt(k) => Plan::Filter {
                input,
                p: Lambda::new(["x"], var("x").lt(lit(k))),
            },
            NarrowOp::FlatMapPair => Plan::FlatMap {
                input,
                param: "x".into(),
                body: BagExpr::values(vec![Value::Int(0), Value::Int(1)])
                    .map(Lambda::new(["d"], var("x").add(var("d")))),
            },
            NarrowOp::FlatMapDeltas(k) => Plan::FlatMap {
                input,
                param: "x".into(),
                body: BagExpr::values(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
                    .filter(Lambda::new(["d"], var("d").gt(lit(k))))
                    .map(Lambda::new(["d"], var("x").mul(lit(2)).add(var("d")))),
            },
        }
    }
}

fn op_strategy() -> impl Strategy<Value = NarrowOp> {
    prop_oneof![
        (-10i64..10).prop_map(NarrowOp::MapAdd),
        (-3i64..4).prop_map(NarrowOp::MapMul),
        (-50i64..50).prop_map(NarrowOp::FilterGt),
        (-50i64..50).prop_map(NarrowOp::FilterLt),
        Just(NarrowOp::FlatMapPair),
        (0i64..4).prop_map(NarrowOp::FlatMapDeltas),
    ]
}

/// Wraps a chain of narrow ops over `Source(xs)` into a one-write program.
fn chain_program(ops: &[NarrowOp]) -> CompiledProgram {
    let mut plan = Plan::Source { name: "xs".into() };
    for op in ops {
        plan = op.apply(plan);
    }
    CompiledProgram {
        body: vec![CStmt::Write {
            sink: "out".into(),
            plan,
        }],
        report: OptimizationReport::default(),
        eval_tier: EvalTier::Compiled,
    }
}

fn fused_clone(prog: &CompiledProgram) -> CompiledProgram {
    let mut fused = prog.clone();
    apply_pipeline_fusion(&mut fused.body, &mut fused.report);
    fused
}

fn run(engine: &Engine, prog: &CompiledProgram, catalog: &Catalog) -> EngineRun {
    engine.run(prog, catalog).expect("run failed")
}

/// Output rows and the deterministic counters must match exactly.
fn assert_equivalent(a: &EngineRun, b: &EngineRun, what: &str) {
    assert_eq!(a.writes, b.writes, "{what}: sink rows differ");
    assert_eq!(a.scalars, b.scalars, "{what}: scalars differ");
    assert_eq!(a.stats, b.stats, "{what}: deterministic counters differ");
    assert_eq!(
        a.stats.simulated_secs.to_bits(),
        b.stats.simulated_secs.to_bits(),
        "{what}: simulated time not bit-identical"
    );
}

/// A pool engine that fans out even on a single-core machine and for tiny
/// inputs, so the worker-pool paths are actually exercised.
fn pool_engine() -> Engine {
    Engine::sparrow()
        .with_worker_threads(Some(4))
        .with_parallelism_threshold(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_equals_unfused(
        rows in prop::collection::vec(-100i64..100, 0..200),
        ops in prop::collection::vec(op_strategy(), 2..7),
    ) {
        let catalog =
            Catalog::new().with("xs", rows.into_iter().map(Value::Int).collect::<Vec<_>>());
        let unfused = chain_program(&ops);
        let fused = fused_clone(&unfused);
        prop_assert!(
            fused.report.pipelines_fused >= 1,
            "a {}-op narrow chain must fuse", ops.len()
        );
        let engine = pool_engine();
        assert_equivalent(
            &run(&engine, &fused, &catalog),
            &run(&engine, &unfused, &catalog),
            "fused vs unfused",
        );
    }

    #[test]
    fn pool_equals_default_engine(
        rows in prop::collection::vec(-100i64..100, 0..200),
        ops in prop::collection::vec(op_strategy(), 1..7),
    ) {
        let catalog =
            Catalog::new().with("xs", rows.into_iter().map(Value::Int).collect::<Vec<_>>());
        let prog = fused_clone(&chain_program(&ops));
        assert_equivalent(
            &run(&pool_engine(), &prog, &catalog),
            &run(&Engine::sparrow(), &prog, &catalog),
            "pool vs default engine",
        );
    }

    #[test]
    fn serial_below_threshold_equals_parallel(
        rows in prop::collection::vec(-100i64..100, 0..80),
        ops in prop::collection::vec(op_strategy(), 2..6),
    ) {
        let catalog =
            Catalog::new().with("xs", rows.into_iter().map(Value::Int).collect::<Vec<_>>());
        let prog = fused_clone(&chain_program(&ops));
        let serial = pool_engine().with_parallelism_threshold(u64::MAX);
        assert_equivalent(
            &run(&pool_engine(), &prog, &catalog),
            &run(&serial, &prog, &catalog),
            "parallel vs serial gate",
        );
    }
}

/// Fusion across a chain whose head consumes grouped rows: the first Map
/// folds over each group's nested bag (the `charge_nested_bag_folds` path,
/// where the fused pass must reproduce the per-boundary byte maxima the
/// unfused operators would have charged).
#[test]
fn grouped_input_pipeline_matches_unfused() {
    // groupBy(_.0) → map(g => (g.0, sum(g.1[_.1]))) → filter(t => t.1 > 5)
    //             → map(t => t.1)
    let grouped = Plan::GroupBy {
        input: Box::new(Plan::Source { name: "kv".into() }),
        key: Lambda::new(["t"], var("t").get(0)),
    };
    let agg = Plan::Map {
        input: Box::new(grouped),
        f: Lambda::new(
            ["g"],
            ScalarExpr::Tuple(vec![
                var("g").get(0),
                BagExpr::of_value(var("g").get(1))
                    .map(Lambda::new(["t"], var("t").get(1)))
                    .fold(FoldOp::sum()),
            ]),
        ),
    };
    let filtered = Plan::Filter {
        input: Box::new(agg),
        p: Lambda::new(["t"], var("t").get(1).gt(lit(5))),
    };
    let projected = Plan::Map {
        input: Box::new(filtered),
        f: Lambda::new(["t"], var("t").get(1)),
    };
    let unfused = CompiledProgram {
        body: vec![CStmt::Write {
            sink: "out".into(),
            plan: projected,
        }],
        report: OptimizationReport::default(),
        eval_tier: EvalTier::Compiled,
    };
    let fused = fused_clone(&unfused);
    assert_eq!(fused.report.pipelines_fused, 1);
    assert_eq!(fused.report.pipeline_stages_fused, 3);

    let rows: Vec<Value> = (0..500)
        .map(|i| Value::tuple(vec![Value::Int(i % 37), Value::Int(i % 11)]))
        .collect();
    let catalog = Catalog::new().with("kv", rows);
    for engine in [pool_engine(), Engine::sparrow()] {
        assert_equivalent(
            &run(&engine, &fused, &catalog),
            &run(&engine, &unfused, &catalog),
            "grouped-head pipeline",
        );
    }
}

/// An empty source exercises the zero-partition / zero-row edges of the
/// fused pass and the pool's gate.
#[test]
fn empty_input_pipeline_matches_unfused() {
    let ops = [
        NarrowOp::MapAdd(1),
        NarrowOp::FlatMapPair,
        NarrowOp::FilterGt(0),
    ];
    let catalog = Catalog::new().with("xs", Vec::<Value>::new());
    let unfused = chain_program(&ops);
    let fused = fused_clone(&unfused);
    let engine = pool_engine();
    assert_equivalent(
        &run(&engine, &fused, &catalog),
        &run(&engine, &unfused, &catalog),
        "empty input",
    );
}
