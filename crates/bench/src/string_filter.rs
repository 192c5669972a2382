//! The email-domain string filter chain for the batch-evaluation tier
//! benchmark (`benches/batch_eval.rs`, string leg).
//!
//! One million `(i64 id, Str email)` rows flow through a fused five-stage
//! pipeline whose head is a `contains("gmail.com")` scan keeping ~15 % of
//! rows — the byte-weighted builtin must sit at stage 0, where it charges
//! against the materialized input and still vectorizes (a byte-weighted
//! builtin *past* the head would be a visible fallback). The tail mixes the
//! string kernels (`!=` over `Str`, `strlen`) into plain integer hashing, so
//! the leg measures the string column representation end-to-end: arena
//! loading, containment scans, comparisons, and length extraction, batch at
//! a time under selection vectors.

use emma::prelude::*;
use emma_compiler::expr::BuiltinFn;
use emma_compiler::physical_pipeline::apply_pipeline_fusion;
use emma_compiler::pipeline::{CStmt, CompiledProgram, EvalTier, OptimizationReport};

/// Rows in the email dataset.
pub const ROWS: i64 = 1_000_000;

/// Number of fused operators in the string chain.
pub const STAGES: usize = 5;

/// The needle the head filter scans for; three of the twenty generated
/// domains carry it, so ~15 % of emails match.
pub const NEEDLE: &str = "gmail.com";

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn lit(k: i64) -> ScalarExpr {
    ScalarExpr::lit(k)
}

/// The five-stage string chain over `(i64, Str)` email rows.
pub fn plan() -> Plan {
    let t0 = || var("t").get(0);
    let t1 = || var("t").get(1);
    let mut plan = Plan::Source { name: "xs".into() };
    // Stage 0: the byte-weighted domain scan — head position is mandatory
    // for full vectorization (see the pipeline's `need_bytes` gating).
    plan = Plan::Filter {
        input: Box::new(plan),
        p: Lambda::new(
            ["t"],
            ScalarExpr::call(
                BuiltinFn::StrContains,
                vec![t1(), ScalarExpr::lit(Value::str(NEEDLE))],
            ),
        ),
    };
    // Stage 1: a string-comparison kernel that keeps every surviving row.
    plan = Plan::Filter {
        input: Box::new(plan),
        p: Lambda::new(["t"], t1().ne(ScalarExpr::lit(Value::str("")))),
    };
    // Stage 2: collapse to an integer feature — address length mixed with
    // the id. From here on, row transport is a single machine word.
    plan = Plan::Map {
        input: Box::new(plan),
        f: Lambda::new(
            ["t"],
            ScalarExpr::call(BuiltinFn::StrLen, vec![t1()])
                .mul(lit(31))
                .add(t0().rem(lit(97))),
        ),
    };
    // Stages 3–4: one round of integer hashing plus a keep-nearly-all guard,
    // matching the arithmetic tail of the numeric chain.
    plan = Plan::Map {
        input: Box::new(plan),
        f: Lambda::new(
            ["x"],
            var("x")
                .mul(lit(7))
                .add(lit(13))
                .rem(lit(65_521))
                .add(var("x").rem(lit(29)).mul(var("x").rem(lit(11)))),
        ),
    };
    plan = Plan::Filter {
        input: Box::new(plan),
        p: Lambda::new(
            ["x"],
            var("x").rem(lit(251)).ne(lit(0)).or(var("x").ge(lit(0))),
        ),
    };
    plan
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
    assert_eq!(prog.report.pipelines_fused, 1, "string chain must fuse");
    prog
}

/// The `(i64, Str)` email rows under the source name `xs`: deterministic
/// synthetic addresses over a 20-domain pool, three of which are Gmail-like
/// (≈15 % needle hit rate).
pub fn catalog() -> Catalog {
    const DOMAINS: [&str; 20] = [
        "gmail.com",
        "old.gmail.com",
        "mail.gmail.com",
        "yahoo.com",
        "outlook.com",
        "corp.example",
        "dev.null",
        "mail.net",
        "inbox.io",
        "post.org",
        "acme.co",
        "univ.edu",
        "lab.sci",
        "shop.biz",
        "news.info",
        "blue.sky",
        "green.hill",
        "red.rock",
        "gray.sea",
        "gold.sun",
    ];
    Catalog::new().with(
        "xs",
        (0..ROWS)
            .map(|i| {
                // Multiplicative mixing spreads the domain choice evenly and
                // deterministically across the id range.
                let d = DOMAINS[((i as u64).wrapping_mul(2_654_435_761) % 20) as usize];
                Value::tuple(vec![Value::Int(i), Value::str(format!("user{i}@{d}"))])
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needle_hit_rate_is_about_fifteen_percent() {
        let catalog = catalog();
        let rows = catalog.get("xs").expect("xs");
        let hits = rows
            .iter()
            .filter(|r| {
                r.field(1)
                    .and_then(|v| v.as_str())
                    .map(|s| s.contains(NEEDLE))
                    .unwrap_or(false)
            })
            .count();
        let frac = hits as f64 / rows.len() as f64;
        assert!(
            (0.10..=0.20).contains(&frac),
            "needle hit rate {frac} outside ~15 % band"
        );
    }
}
