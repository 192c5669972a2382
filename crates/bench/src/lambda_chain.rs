//! The lambda-heavy narrow chain shared by the evaluation-tier wall-clock
//! benchmarks (`benches/compiled_eval.rs` and `benches/batch_eval.rs`).
//!
//! A branchy tuple-rewrite head followed by an expression-dense
//! integer-hashing tail: thirteen narrow operators whose bodies together
//! walk ~300 expression nodes per row in the interpreter — repeated field
//! accesses, a branch, builtin calls, and closed constant subtrees the
//! compiled tier folds away at compile time. This is the per-row shape of
//! real scoring/cleaning UDFs (Fig. 4's spam features), isolated from wide
//! operators so evaluation cost is the whole story. Every operator body is
//! integer/bool arithmetic over `(i64, i64)` tuples, so the chain is also
//! fully specializable by the vectorized batch tier — making it the
//! reference workload for the scalar-vs-vectorized headline number.

use emma::prelude::*;
use emma_compiler::expr::BuiltinFn;
use emma_compiler::physical_pipeline::apply_pipeline_fusion;
use emma_compiler::pipeline::{CStmt, CompiledProgram, EvalTier, OptimizationReport};

/// Rows in the benchmark dataset — large enough that per-row evaluation
/// dominates the run and fixed per-run costs (compilation, pool spin-up)
/// vanish into the noise.
pub const ROWS: i64 = 1_000_000;

/// Number of narrow operators in the fused chain.
pub const STAGES: usize = 13;

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn lit(k: i64) -> ScalarExpr {
    ScalarExpr::lit(k)
}

/// The thirteen-operator Map/Filter chain over `(i64, i64)` tuple rows.
pub fn plan() -> Plan {
    let t0 = || var("t").get(0);
    let t1 = || var("t").get(1);
    let mut plan = Plan::Source { name: "xs".into() };
    // Branchy tuple rewrite. The else-branch offset `(3*7+2) % 5` is closed:
    // the interpreter re-evaluates it for every row, the compiled evaluator
    // folds it into a single constant at compile time.
    plan = Plan::Map {
        input: Box::new(plan),
        f: Lambda::new(
            ["t"],
            ScalarExpr::If(
                Box::new(t0().rem(lit(3)).eq(lit(0))),
                Box::new(ScalarExpr::Tuple(vec![
                    t0().mul(lit(2)).add(t1()).sub(lit(7)),
                    t1().add(lit(1)),
                ])),
                Box::new(ScalarExpr::Tuple(vec![
                    t0().add(lit(3).mul(lit(7)).add(lit(2)).rem(lit(5))),
                    t1().mul(lit(3)).rem(lit(101)),
                ])),
            ),
        ),
    };
    // Multi-term validity predicate that keeps nearly every row.
    plan = Plan::Filter {
        input: Box::new(plan),
        p: Lambda::new(
            ["t"],
            t0().add(t1())
                .rem(lit(17))
                .ne(lit(3))
                .and(t0().mul(lit(3)).sub(t1()).gt(lit(-1_000_000))),
        ),
    };
    // Polynomial feature map: (x*2+1) * (x%7+3) + |x - y|, min'd against a
    // cap, carried alongside a rescaled second field.
    plan = Plan::Map {
        input: Box::new(plan),
        f: Lambda::new(
            ["t"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::call(
                    BuiltinFn::MinOf,
                    vec![
                        t0().mul(lit(2))
                            .add(lit(1))
                            .mul(t0().rem(lit(7)).add(lit(3)))
                            .add(ScalarExpr::call(BuiltinFn::Abs, vec![t0().sub(t1())])),
                        lit(1 << 20),
                    ],
                ),
                t1().mul(lit(13)).rem(lit(997)),
            ]),
        ),
    };
    plan = Plan::Filter {
        input: Box::new(plan),
        p: Lambda::new(["t"], t0().rem(lit(251)).ne(lit(0)).or(t1().lt(lit(500)))),
    };
    // Collapse to a scalar score per row.
    plan = Plan::Map {
        input: Box::new(plan),
        f: Lambda::new(
            ["t"],
            t0().add(t1().mul(lit(31)))
                .rem(lit(1_000_003))
                .mul(lit(2))
                .add(t0().rem(lit(2))),
        ),
    };
    // Four rounds of integer feature hashing over the scalar score — the
    // expression-dense tail where row transport is a single machine word
    // and per-row cost is almost pure UDF evaluation.
    for (a, b, m) in [
        (3, 11, 65_521),
        (7, 29, 32_749),
        (5, 17, 16_381),
        (13, 41, 8_191),
    ] {
        plan = Plan::Map {
            input: Box::new(plan),
            f: Lambda::new(["x"], hash_round(a, b, m)),
        };
        plan = Plan::Filter {
            input: Box::new(plan),
            p: Lambda::new(
                ["x"],
                var("x")
                    .rem(lit(m - 1))
                    .ne(lit(m / 2))
                    .or(var("x").ge(lit(0))),
            ),
        };
    }
    plan
}

/// One round of integer feature hashing: several multiplicative mixes of
/// `x` summed and reduced mod `m`, with a closed salt `(a*b + 2) % 19` the
/// compiled tier folds to one constant.
fn hash_round(a: i64, b: i64, m: i64) -> ScalarExpr {
    let x = || var("x");
    x().mul(lit(a))
        .add(lit(b))
        .rem(lit(m))
        .add(x().mul(lit(b)).add(lit(a)).rem(lit(m - 2)))
        .add(x().rem(lit(7)).mul(x().rem(lit(13))).add(x().rem(lit(29))))
        .add(ScalarExpr::call(BuiltinFn::Abs, vec![x().sub(lit(m / 2))]))
        .rem(lit(m))
        .add(lit(a).mul(lit(b)).add(lit(2)).rem(lit(19)))
}

/// The chain as a fused single-sink program on the requested evaluation
/// tier.
pub fn program(eval_tier: EvalTier) -> CompiledProgram {
    let mut prog = CompiledProgram {
        body: vec![CStmt::Write {
            sink: "out".into(),
            plan: plan(),
        }],
        report: OptimizationReport::default(),
        eval_tier,
    };
    apply_pipeline_fusion(&mut prog.body, &mut prog.report);
    assert_eq!(prog.report.pipelines_fused, 1, "chain must fuse");
    prog
}

/// The `(i64, i64)` input rows under the source name `xs`.
pub fn catalog() -> Catalog {
    Catalog::new().with(
        "xs",
        (0..ROWS)
            .map(|i| Value::tuple(vec![Value::Int(i % 10_000), Value::Int((i * 7) % 1_000)]))
            .collect::<Vec<_>>(),
    )
}
