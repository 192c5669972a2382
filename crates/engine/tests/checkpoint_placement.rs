//! Cost-driven checkpoint placement: determinism, policy identity, and the
//! placement quality the policy exists for.
//!
//! The invariants under test:
//!
//! 1. **`EveryN` is the pre-policy engine**: the fixed-interval policy never
//!    consults the scoring machinery, keeps the new placement counters at
//!    zero, and a raw `EveryN(0)` written directly into the config (past the
//!    `every()` clamp) is clamped at the use site instead of panicking on
//!    the modulo.
//! 2. **Cost-driven placement is a pure function of driver-ordered state**:
//!    the persisted set, both placement counters, and the simulated clock
//!    replay bit-identically across 1/2/4 worker threads and chaos on/off.
//! 3. **The budget auto-tunes with eviction risk**: zero risk ⇒ zero budget
//!    ⇒ nothing persisted (a checkpoint that can never be restored is pure
//!    write cost); full risk ⇒ the budget opens up.
//! 4. **Scoring spends the byte budget better than the blind interval**: on
//!    a heterogeneous loop (deep rank chain + shallow per-iteration monitor
//!    snapshots, equal bytes per site) under full eviction pressure, the
//!    cost-driven policy persists the deep sites the evictor actually
//!    punishes and recovers with fewer `recomputed_plan_nodes` *and* fewer
//!    `bytes_written_storage` than `EveryN(2)`.

use emma_compiler::bag_expr::BagExpr;
use emma_compiler::expr::{Lambda, ScalarExpr};
use emma_compiler::interp::Catalog;
use emma_compiler::pipeline::{parallelize, CompiledProgram, OptimizerFlags};
use emma_compiler::program::{Program, Stmt};
use emma_compiler::value::Value;
use emma_engine::cluster::{ClusterSpec, Personality};
use emma_engine::skew::SkewConfig;
use emma_engine::{CheckpointConfig, CheckpointPolicy, CostDrivenConfig, Engine, FaultConfig};
use proptest::prelude::*;

fn tiny_engine() -> Engine {
    Engine::new(ClusterSpec::tiny(), Personality::sparrow()).with_parallelism_threshold(0)
}

fn kv_rows(n: i64, keys: i64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::tuple(vec![Value::Int(i % keys), Value::Int(i)]))
        .collect()
}

/// `Value::approx_bytes` of one `(Int, Int)` row: 8 (tuple) + 8 + 8.
const ROW_BYTES: u64 = 24;

const HET_ROWS: i64 = 300;

/// Bytes of one cache site of the heterogeneous workload — every site
/// (ranks, snap, audit) materializes exactly `HET_ROWS` `(Int, Int)` rows.
const SITE_BYTES: u64 = HET_ROWS as u64 * ROW_BYTES;

/// An iterative workload with *heterogeneous* cache sites, all of equal
/// byte size: each iteration rebinds a deep `ranks` chain (four map +
/// tautological-filter steps — maps alone would be composed into one
/// operator by the logical optimizer, but a map→filter alternation survives
/// as eight distinct pipeline stages of lineage) and two shallow monitor
/// bindings (`snap`, `audit`, single-map plans that are forced once and
/// never re-read). A blind interval spends storage on the shallow sites;
/// scoring by lineage depth does not.
fn heterogeneous_loop_workload(iters: i64) -> (CompiledProgram, Catalog) {
    let x0 = || ScalarExpr::var("x").get(0);
    let x1 = || ScalarExpr::var("x").get(1);
    let step = |e: BagExpr| {
        e.map(Lambda::new(
            ["x"],
            ScalarExpr::Tuple(vec![x0(), x1().add(ScalarExpr::lit(1i64))]),
        ))
        // Keeps every row (values only ever grow), so all sites stay at
        // exactly `HET_ROWS` rows — byte-identical, lineage-heterogeneous.
        .filter(Lambda::new(["x"], x1().gt(ScalarExpr::lit(i64::MIN))))
    };
    let shallow = |name: &str| {
        BagExpr::var(name).map(Lambda::new(["x"], ScalarExpr::Tuple(vec![x0(), x1()])))
    };
    let p = Program::new(vec![
        Stmt::val("ranks", step(BagExpr::read("xs"))),
        Stmt::val("snap", shallow("ranks")),
        Stmt::val("audit", shallow("snap")),
        Stmt::var("i", ScalarExpr::lit(0i64)),
        Stmt::var("acc", ScalarExpr::lit(0i64)),
        Stmt::while_loop(
            ScalarExpr::var("i").lt(ScalarExpr::lit(iters)),
            vec![
                Stmt::assign("snap", shallow("ranks")),
                Stmt::assign("audit", shallow("snap")),
                // Forces audit → snap → this iteration's ranks; the next
                // iteration's rebind then re-reads the ranks memo — the
                // eviction opportunity the checkpoints exist for.
                Stmt::assign(
                    "acc",
                    ScalarExpr::var("acc")
                        .add(BagExpr::var("audit").map(Lambda::new(["x"], x1())).sum()),
                ),
                Stmt::assign("ranks", step(step(step(step(BagExpr::var("ranks")))))),
                Stmt::assign("i", ScalarExpr::var("i").add(ScalarExpr::lit(1i64))),
            ],
        ),
    ]);
    let catalog = Catalog::new().with("xs", kv_rows(HET_ROWS, 7));
    (parallelize(&p, &OptimizerFlags::all()), catalog)
}

/// A cost-driven config that discriminates the heterogeneous workload's
/// sites: the shallow monitors score ≤ 3 × bytes (lineage ≤ 3), the deep
/// rank rebinds ≥ 5 × bytes, so a threshold at 3.9 × bytes (at risk 1.0)
/// persists exactly the deep sites. The budget is sized so it never gates.
fn discriminating_cost() -> CostDrivenConfig {
    CostDrivenConfig::default()
        .with_score_threshold(3.9 * SITE_BYTES as f64)
        .with_budget_bytes_per_site(SITE_BYTES)
}

#[test]
fn every_n_keeps_the_placement_counters_at_zero() {
    let (prog, catalog) = heterogeneous_loop_workload(12);
    let run = tiny_engine()
        .with_faults(FaultConfig::chaos(9))
        .with_checkpoints(CheckpointConfig::every(2))
        .run(&prog, &catalog)
        .expect("every-n under chaos");
    assert!(run.stats.checkpoints_written > 0, "{}", run.stats);
    assert_eq!(run.stats.checkpoints_skipped_low_score, 0, "{}", run.stats);
    assert_eq!(run.stats.checkpoint_budget_bytes, 0, "{}", run.stats);
}

#[test]
fn interval_zero_written_directly_is_clamped_not_a_panic() {
    // Regression: `CheckpointConfig`'s fields are public, so a raw zero can
    // bypass the `every()` clamp. The use site must clamp instead of
    // panicking on `event % 0`.
    let (prog, catalog) = heterogeneous_loop_workload(8);
    let raw = CheckpointConfig {
        policy: CheckpointPolicy::EveryN(0),
        min_lineage: 2,
    };
    let zero = tiny_engine()
        .with_faults(FaultConfig::disabled().with_cache_evict_p(0.5))
        .with_checkpoints(raw)
        .run(&prog, &catalog)
        .expect("interval 0 must not panic");
    let one = tiny_engine()
        .with_faults(FaultConfig::disabled().with_cache_evict_p(0.5))
        .with_checkpoints(CheckpointConfig::every(1))
        .run(&prog, &catalog)
        .expect("interval 1");
    assert!(zero.stats.checkpoints_written > 0, "{}", zero.stats);
    assert_eq!(zero.scalars, one.scalars);
    assert_eq!(zero.stats, one.stats);
    assert_eq!(
        zero.stats.simulated_secs.to_bits(),
        one.stats.simulated_secs.to_bits(),
        "EveryN(0) must behave exactly like every(1)"
    );
}

#[test]
fn zero_risk_collapses_the_budget_and_persists_nothing() {
    // No fault config ⇒ no eviction prior, no observed evictions ⇒ risk 0
    // ⇒ budget 0 and score 0 at every site: the policy correctly refuses to
    // pay for checkpoints that can never be restored.
    let (prog, catalog) = heterogeneous_loop_workload(10);
    let plain = tiny_engine().run(&prog, &catalog).expect("plain");
    let cd = tiny_engine()
        .with_checkpoints(
            CheckpointConfig::default()
                .with_policy(CheckpointPolicy::CostDriven(CostDrivenConfig::default())),
        )
        .run(&prog, &catalog)
        .expect("risk-free cost-driven");
    assert_eq!(cd.scalars, plain.scalars);
    assert_eq!(cd.stats.checkpoints_written, 0, "{}", cd.stats);
    assert!(cd.stats.checkpoints_skipped_low_score > 0, "{}", cd.stats);
    assert_eq!(cd.stats.checkpoint_budget_bytes, 0, "{}", cd.stats);
    assert_eq!(
        cd.stats.bytes_written_storage, plain.stats.bytes_written_storage,
        "a policy that persists nothing must write nothing"
    );
}

#[test]
fn cost_driven_beats_the_blind_interval_on_heterogeneous_sites() {
    let (prog, catalog) = heterogeneous_loop_workload(24);
    let evict_all = FaultConfig::disabled().with_cache_evict_p(1.0);
    let run = |ck: CheckpointConfig| {
        tiny_engine()
            .with_faults(evict_all)
            .with_checkpoints(ck)
            .run(&prog, &catalog)
            .expect("placement run")
    };
    let truth = tiny_engine().run(&prog, &catalog).expect("fault-free");
    let fixed = run(CheckpointConfig::every(2));
    let cd = run(CheckpointConfig::default()
        .with_policy(CheckpointPolicy::CostDriven(discriminating_cost())));
    assert_eq!(fixed.scalars["acc"], truth.scalars["acc"]);
    assert_eq!(cd.scalars["acc"], truth.scalars["acc"]);
    // Both policies persisted something; cost-driven also skipped the
    // shallow monitors (two per iteration).
    assert!(fixed.stats.checkpoints_written > 0, "{}", fixed.stats);
    assert!(cd.stats.checkpoints_written > 0, "{}", cd.stats);
    assert!(
        cd.stats.checkpoints_skipped_low_score >= 2 * 20,
        "{}",
        cd.stats
    );
    assert!(cd.stats.checkpoint_budget_bytes > 0, "{}", cd.stats);
    // The headline trade: strictly fewer storage bytes spent, strictly less
    // lineage re-derived. The blind interval wastes half its writes on
    // monitor snapshots that are never re-read, and leaves half the deep
    // rank sites unpersisted for the evictor to punish.
    assert!(
        cd.stats.bytes_written_storage < fixed.stats.bytes_written_storage,
        "cost-driven must not outspend the interval: {} vs {}",
        cd.stats.bytes_written_storage,
        fixed.stats.bytes_written_storage
    );
    assert!(
        cd.stats.recomputed_plan_nodes < fixed.stats.recomputed_plan_nodes,
        "cost-driven must recover cheaper: {} vs {}",
        cd.stats.recomputed_plan_nodes,
        fixed.stats.recomputed_plan_nodes
    );
}

/// A skewed groupBy whose materialization triggers hot-partition splitting,
/// cached because it is read twice. 90% of rows share one key, so one of the
/// eight tiny-cluster partitions holds ~90% of the data.
fn skewed_group_workload(rows: i64) -> (CompiledProgram, Catalog) {
    let t0 = || ScalarExpr::var("t").get(0);
    let p = Program::new(vec![
        Stmt::val(
            "hot",
            BagExpr::read("events")
                .map(Lambda::new(
                    ["t"],
                    ScalarExpr::Tuple(vec![t0(), ScalarExpr::var("t").get(1)]),
                ))
                .group_by(Lambda::new(["t"], t0())),
        ),
        Stmt::val(
            "a",
            BagExpr::var("hot")
                .map(Lambda::new(["g"], ScalarExpr::lit(1i64)))
                .sum(),
        ),
        Stmt::val(
            "b",
            BagExpr::var("hot")
                .map(Lambda::new(["g"], ScalarExpr::lit(1i64)))
                .sum(),
        ),
    ]);
    let events: Vec<Value> = (0..rows)
        .map(|i| {
            let key = if i % 10 == 0 { i } else { -1 };
            Value::tuple(vec![Value::Int(key), Value::Int(i)])
        })
        .collect();
    let catalog = Catalog::new().with("events", events);
    (parallelize(&p, &OptimizerFlags::all()), catalog)
}

#[test]
fn skew_boost_rescues_sites_downstream_of_a_split() {
    let (prog, catalog) = skewed_group_workload(4_000);
    let faults = FaultConfig::disabled().with_cache_evict_p(0.5);
    let skew = SkewConfig::default().with_min_part_rows(16);
    let written = |boost: f64, split: bool, threshold_scale: f64| {
        let cost = CostDrivenConfig::default()
            .with_skew_boost(boost)
            .with_budget_bytes_per_site(u64::MAX / 1_000_000)
            .with_score_threshold(threshold_scale);
        let mut e = tiny_engine().with_faults(faults).with_checkpoints(
            CheckpointConfig::default().with_policy(CheckpointPolicy::CostDriven(cost)),
        );
        if split {
            e = e.with_skew_splitting(skew);
        }
        let run = e.run(&prog, &catalog).expect("skewed run");
        (run.stats.checkpoints_written, run.stats.partitions_split)
    };
    // Scan thresholds across orders of magnitude: the boost doubles the
    // score of split-downstream sites, so for every threshold the boosted
    // config persists at least as much, and for the thresholds that fall
    // between `score` and `2 × score` strictly more.
    let thresholds: Vec<f64> = (8..30).map(|k| (1u64 << k) as f64).collect();
    let mut strictly_more = false;
    for &t in &thresholds {
        let (boosted, splits) = written(2.0, true, t);
        let (flat, _) = written(1.0, true, t);
        assert!(splits > 0, "the workload must actually split");
        assert!(
            boosted >= flat,
            "boost can only admit more sites: {boosted} vs {flat} at threshold {t}"
        );
        strictly_more |= boosted > flat;
        // Without splitting nothing is downstream of a split: the boost
        // knob must be inert.
        let (boosted_nosplit, no_splits) = written(2.0, false, t);
        let (flat_nosplit, _) = written(1.0, false, t);
        assert_eq!(no_splits, 0);
        assert_eq!(boosted_nosplit, flat_nosplit);
    }
    assert!(
        strictly_more,
        "some threshold must separate boosted from unboosted placement"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Any (seed, eviction rate, chaos flag) point: cost-driven placement —
    // counters, budget, and the clock — replays bit-identically across
    // 1/2/4 worker threads, and EveryN does too.
    #[test]
    fn placement_replays_bit_identically_across_threads(
        seed in any::<u64>(),
        evict_pct in 0u32..80,
        chaos in any::<bool>(),
    ) {
        let (prog, catalog) = heterogeneous_loop_workload(8);
        let faults = if chaos {
            FaultConfig::chaos(seed)
        } else {
            FaultConfig::disabled()
                .with_seed(seed)
                .with_cache_evict_p(f64::from(evict_pct) / 100.0)
        };
        let baseline = tiny_engine().run(&prog, &catalog).expect("baseline");
        for ck in [
            CheckpointConfig::default()
                .with_policy(CheckpointPolicy::CostDriven(discriminating_cost())),
            CheckpointConfig::every(3),
        ] {
            let mut runs = Vec::new();
            for threads in [1usize, 2, 4] {
                let engine = tiny_engine()
                    .with_worker_threads(Some(threads))
                    .with_faults(faults)
                    .with_checkpoints(ck);
                runs.push(engine.run(&prog, &catalog).expect("placement run"));
            }
            for r in &runs {
                prop_assert_eq!(&r.scalars, &baseline.scalars);
            }
            for r in &runs[1..] {
                prop_assert_eq!(&runs[0].stats, &r.stats);
                prop_assert_eq!(
                    runs[0].stats.simulated_secs.to_bits(),
                    r.stats.simulated_secs.to_bits(),
                    "checkpoint placement leaked scheduling state"
                );
            }
        }
    }
}
