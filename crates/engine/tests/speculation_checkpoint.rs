//! Speculative execution and simulated checkpointing: determinism,
//! correctness, and recovery-cost accounting.
//!
//! The invariants under test:
//!
//! 1. **Off means off**: with `FaultConfig::speculation` false and no
//!    `CheckpointConfig`, every deterministic counter is bit-identical to
//!    the pre-speculation engine (the existing fault suites enforce this
//!    transitively; here we pin the knife-edge cases — speculation enabled
//!    but never triggered, checkpointing enabled but never restoring).
//! 2. **Speculation cuts straggler cost without touching results or the
//!    primary schedule**: same failures, same stragglers, same rows — only
//!    the wave charges shrink, and the duplicate work is accounted.
//! 3. **Checkpoint recovery is O(delta)**: under full cache eviction a deep
//!    iterative lineage recovers from the nearest checkpoint, not from the
//!    source, observable as `recomputed_plan_nodes` growing linearly with
//!    the iteration count instead of quadratically.
//! 4. **Everything replays bit-identically** across thread counts, with
//!    both features on.

use emma_compiler::bag_expr::{BagExpr, BagLambda};
use emma_compiler::expr::{Lambda, ScalarExpr};
use emma_compiler::interp::Catalog;
use emma_compiler::pipeline::{parallelize, CompiledProgram, OptimizerFlags};
use emma_compiler::program::{Program, Stmt};
use emma_compiler::value::Value;
use emma_engine::cluster::{ClusterSpec, Personality};
use emma_engine::{CheckpointConfig, Engine, FaultConfig, SpeculationPolicy};
use proptest::prelude::*;

fn tiny_engine() -> Engine {
    Engine::new(ClusterSpec::tiny(), Personality::sparrow()).with_parallelism_threshold(0)
}

fn kv_rows(n: i64, keys: i64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::tuple(vec![Value::Int(i % keys), Value::Int(i)]))
        .collect()
}

/// Join + filter + fold: several task sites per run, so straggler-heavy
/// schedules hit waves of every dispatch shape.
fn workload() -> (CompiledProgram, Catalog) {
    let catalog = Catalog::new()
        .with("orders", kv_rows(400, 11))
        .with("items", kv_rows(300, 11));
    let inner = BagExpr::read("items")
        .filter(Lambda::new(
            ["i"],
            ScalarExpr::var("o").get(0).eq(ScalarExpr::var("i").get(0)),
        ))
        .map(Lambda::new(
            ["i"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::var("o").get(0),
                ScalarExpr::var("o").get(1).add(ScalarExpr::var("i").get(1)),
            ]),
        ));
    let p = Program::new(vec![
        Stmt::write(
            "joined",
            BagExpr::read("orders")
                .flat_map(BagLambda::new("o", inner))
                .filter(Lambda::new(
                    ["t"],
                    ScalarExpr::var("t").get(1).gt(ScalarExpr::lit(5i64)),
                )),
        ),
        Stmt::val(
            "total",
            BagExpr::read("orders")
                .map(Lambda::new(["x"], ScalarExpr::var("x").get(1)))
                .sum(),
        ),
    ]);
    (parallelize(&p, &OptimizerFlags::all()), catalog)
}

/// An iterative program whose cached bag is *rebound* every iteration, so
/// the lineage forms a chain `ranks_k → ranks_{k-1} → … → source`: exactly
/// the shape where eviction recovery is O(depth) without checkpoints and
/// O(delta) with them.
fn deep_loop_workload(iters: i64) -> (CompiledProgram, Catalog) {
    let x0 = || ScalarExpr::var("x").get(0);
    let x1 = || ScalarExpr::var("x").get(1);
    let p = Program::new(vec![
        Stmt::val(
            "ranks",
            BagExpr::read("xs").map(Lambda::new(
                ["x"],
                ScalarExpr::Tuple(vec![x0(), x1().mul(ScalarExpr::lit(2i64))]),
            )),
        ),
        Stmt::var("i", ScalarExpr::lit(0i64)),
        Stmt::var("acc", ScalarExpr::lit(0i64)),
        Stmt::while_loop(
            ScalarExpr::var("i").lt(ScalarExpr::lit(iters)),
            vec![
                // Forces this iteration's `ranks`, whose plan re-reads the
                // previous iteration's memo — the eviction opportunity.
                Stmt::assign(
                    "acc",
                    ScalarExpr::var("acc")
                        .add(BagExpr::var("ranks").map(Lambda::new(["x"], x1())).sum()),
                ),
                Stmt::assign(
                    "ranks",
                    BagExpr::var("ranks").map(Lambda::new(
                        ["x"],
                        ScalarExpr::Tuple(vec![x0(), x1().add(ScalarExpr::lit(1i64))]),
                    )),
                ),
                Stmt::assign("i", ScalarExpr::var("i").add(ScalarExpr::lit(1i64))),
            ],
        ),
    ]);
    let catalog = Catalog::new().with("xs", kv_rows(300, 7));
    (parallelize(&p, &OptimizerFlags::all()), catalog)
}

#[test]
fn speculation_without_stragglers_is_bit_identical() {
    // Speculation only ever races stragglers; with straggler_p = 0 the
    // backup stream must never be consulted and the clock must not move.
    let (prog, catalog) = workload();
    let base = FaultConfig::chaos(21).with_straggler_p(0.0);
    let a = tiny_engine()
        .with_faults(base)
        .run(&prog, &catalog)
        .expect("no speculation");
    let b = tiny_engine()
        .with_faults(base.with_speculation(true))
        .run(&prog, &catalog)
        .expect("idle speculation");
    assert_eq!(a.writes, b.writes);
    assert_eq!(a.scalars, b.scalars);
    assert_eq!(a.stats, b.stats);
    assert_eq!(
        a.stats.simulated_secs.to_bits(),
        b.stats.simulated_secs.to_bits(),
        "idle speculation must be free"
    );
    assert_eq!(b.stats.tasks_speculated, 0);
}

#[test]
fn speculation_cuts_straggler_cost_without_changing_results() {
    let (prog, catalog) = workload();
    let baseline = tiny_engine().run(&prog, &catalog).expect("baseline");
    let heavy = FaultConfig::disabled()
        .with_seed(5)
        .with_task_fail_p(0.05)
        .with_straggler_p(0.4)
        .with_straggler_secs(5.0)
        .with_max_task_retries(12);
    let off = tiny_engine()
        .with_faults(heavy)
        .run(&prog, &catalog)
        .expect("speculation off");
    let on = tiny_engine()
        .with_faults(heavy.with_speculation(true))
        .run(&prog, &catalog)
        .expect("speculation on");
    // Results are identical to the fault-free run either way.
    assert_eq!(off.writes, baseline.writes);
    assert_eq!(on.writes, baseline.writes);
    assert_eq!(on.scalars, baseline.scalars);
    // The primary schedule is untouched: same failures, same stragglers.
    assert_eq!(on.stats.straggler_delays, off.stats.straggler_delays);
    assert_eq!(on.stats.tasks_failed, off.stats.tasks_failed);
    assert_eq!(on.stats.tasks_retried, off.stats.tasks_retried);
    // Every straggler raced a backup; enough of them won to matter.
    assert!(off.stats.straggler_delays > 0, "{}", off.stats);
    assert_eq!(on.stats.tasks_speculated, on.stats.straggler_delays);
    assert!(on.stats.speculation_wins > 0, "{}", on.stats);
    assert!(on.stats.speculation_wasted_secs > 0.0, "{}", on.stats);
    // The headline: straggler charges drop, and the run gets faster even
    // after paying for the duplicate work.
    assert!(
        on.stats.retry_sim_secs < off.stats.retry_sim_secs,
        "speculation did not cut straggler cost: {} vs {}",
        on.stats.retry_sim_secs,
        off.stats.retry_sim_secs
    );
    assert!(on.stats.simulated_secs < off.stats.simulated_secs);
    // And the race replays bit-identically.
    let again = tiny_engine()
        .with_faults(heavy.with_speculation(true))
        .run(&prog, &catalog)
        .expect("speculation again");
    assert_eq!(on.stats, again.stats);
    assert_eq!(
        on.stats.simulated_secs.to_bits(),
        again.stats.simulated_secs.to_bits()
    );
}

#[test]
fn quantile_policy_clones_fewer_backups_without_changing_results() {
    let (prog, catalog) = workload();
    let heavy = FaultConfig::disabled()
        .with_seed(5)
        .with_straggler_p(0.4)
        .with_straggler_secs(5.0)
        .with_speculation(true);
    let all = tiny_engine()
        .with_faults(heavy)
        .run(&prog, &catalog)
        .expect("clone-everything policy");
    let quantile = tiny_engine()
        .with_faults(heavy.with_speculation_policy(SpeculationPolicy::Quantile(0.75)))
        .run(&prog, &catalog)
        .expect("quantile policy");
    // Same rows, same scalars, same primary schedule.
    assert_eq!(quantile.writes, all.writes);
    assert_eq!(quantile.scalars, all.scalars);
    assert_eq!(quantile.stats.straggler_delays, all.stats.straggler_delays);
    // The default clones every straggler; the quantile policy only the worst
    // quartile of each wave — strictly fewer backups, but still some.
    assert_eq!(all.stats.tasks_speculated, all.stats.straggler_delays);
    assert!(
        quantile.stats.tasks_speculated < all.stats.tasks_speculated,
        "quantile must clone fewer: {} vs {}",
        quantile.stats.tasks_speculated,
        all.stats.tasks_speculated
    );
    assert!(quantile.stats.tasks_speculated > 0, "{}", quantile.stats);
    // And it replays bit-identically.
    let again = tiny_engine()
        .with_faults(heavy.with_speculation_policy(SpeculationPolicy::Quantile(0.75)))
        .run(&prog, &catalog)
        .expect("quantile replay");
    assert_eq!(quantile.stats, again.stats);
    assert_eq!(
        quantile.stats.simulated_secs.to_bits(),
        again.stats.simulated_secs.to_bits()
    );
}

#[test]
fn checkpointing_recovers_in_o_delta_not_o_depth() {
    let evict_all = FaultConfig::disabled().with_cache_evict_p(1.0);
    let run = |iters: i64, ck: Option<CheckpointConfig>| {
        let (prog, catalog) = deep_loop_workload(iters);
        let mut engine = tiny_engine().with_faults(evict_all);
        if let Some(ck) = ck {
            engine = engine.with_checkpoints(ck);
        }
        engine.run(&prog, &catalog).expect("eviction run")
    };
    let plain = |iters: i64| {
        let (prog, catalog) = deep_loop_workload(iters);
        tiny_engine().run(&prog, &catalog).expect("plain run")
    };

    let no24 = run(24, None);
    let no48 = run(48, None);
    let ck24 = run(24, Some(CheckpointConfig::every(1)));
    let ck48 = run(48, Some(CheckpointConfig::every(1)));
    let ck5 = run(48, Some(CheckpointConfig::every(5)));

    // Recovery never corrupts the answer, checkpointed or not.
    let truth = plain(48);
    assert_eq!(no48.scalars["acc"], truth.scalars["acc"]);
    assert_eq!(ck48.scalars["acc"], truth.scalars["acc"]);
    assert_eq!(ck5.scalars["acc"], truth.scalars["acc"]);

    // Without checkpoints every eviction walks the whole chain: doubling the
    // iteration count far more than doubles the re-derived lineage.
    assert!(
        no48.stats.recomputed_plan_nodes > 3 * no24.stats.recomputed_plan_nodes,
        "uncheckpointed recovery should be superlinear: {} vs {}",
        no48.stats.recomputed_plan_nodes,
        no24.stats.recomputed_plan_nodes
    );
    // With a checkpoint at every eligible write, recovery re-reads storage
    // instead of re-deriving lineage.
    assert!(ck48.stats.checkpoints_written > 0, "{}", ck48.stats);
    assert!(ck48.stats.checkpoint_restores > 0, "{}", ck48.stats);
    assert!(
        4 * ck48.stats.recomputed_plan_nodes < no48.stats.recomputed_plan_nodes,
        "checkpointed recovery should be far shallower: {} vs {}",
        ck48.stats.recomputed_plan_nodes,
        no48.stats.recomputed_plan_nodes
    );
    // ...and grows at most linearly with the iteration count (O(delta), the
    // delta being the checkpoint interval, not the lineage depth).
    assert!(
        ck48.stats.recomputed_plan_nodes <= 3 * ck24.stats.recomputed_plan_nodes + 64,
        "checkpointed recovery should be ~linear: {} vs {}",
        ck48.stats.recomputed_plan_nodes,
        ck24.stats.recomputed_plan_nodes
    );
    // A sparser interval sits in between: deeper deltas than every-write,
    // still far shallower than no checkpoints at all.
    assert!(ck5.stats.recomputed_plan_nodes >= ck48.stats.recomputed_plan_nodes);
    assert!(2 * ck5.stats.recomputed_plan_nodes < no48.stats.recomputed_plan_nodes);
    // The price is storage traffic, visible where it belongs. (Reads are
    // not compared: the uncheckpointed run re-scans the *source* on every
    // lineage walk, which is storage traffic too — the whole point is that
    // checkpoints bound how far back those walks go.)
    assert!(ck48.stats.bytes_written_storage > no48.stats.bytes_written_storage);
}

#[test]
fn checkpointing_without_faults_only_adds_the_write_cost() {
    let (prog, catalog) = deep_loop_workload(12);
    let plain = tiny_engine().run(&prog, &catalog).expect("plain");
    let ck = tiny_engine()
        .with_checkpoints(CheckpointConfig::every(1))
        .run(&prog, &catalog)
        .expect("checkpointed");
    // Same answer, same row/cache counters — only the persist cost moves.
    assert_eq!(plain.scalars, ck.scalars);
    assert_eq!(plain.stats.records_processed, ck.stats.records_processed);
    assert_eq!(plain.stats.cache_hits, ck.stats.cache_hits);
    assert_eq!(plain.stats.cache_misses, ck.stats.cache_misses);
    assert!(ck.stats.checkpoints_written > 0, "{}", ck.stats);
    assert_eq!(ck.stats.checkpoint_restores, 0, "{}", ck.stats);
    assert!(ck.stats.bytes_written_storage > plain.stats.bytes_written_storage);
    assert!(ck.stats.simulated_secs > plain.stats.simulated_secs);
    // Deterministically so.
    let again = tiny_engine()
        .with_checkpoints(CheckpointConfig::every(1))
        .run(&prog, &catalog)
        .expect("checkpointed again");
    assert_eq!(ck.stats, again.stats);
    assert_eq!(
        ck.stats.simulated_secs.to_bits(),
        again.stats.simulated_secs.to_bits()
    );
}

#[test]
fn speculation_and_checkpoints_replay_across_threads() {
    let (prog, catalog) = deep_loop_workload(16);
    let cfg = FaultConfig::chaos_speculative(17)
        .with_straggler_p(0.3)
        .with_straggler_secs(3.0);
    let mut runs = Vec::new();
    for threads in [1usize, 2, 4] {
        let engine = tiny_engine()
            .with_worker_threads(Some(threads))
            .with_faults(cfg)
            .with_checkpoints(CheckpointConfig::every(2));
        runs.push(engine.run(&prog, &catalog).expect("spec+ckpt run"));
    }
    assert!(runs[0].stats.tasks_speculated > 0, "{}", runs[0].stats);
    assert!(runs[0].stats.checkpoints_written > 0, "{}", runs[0].stats);
    for r in &runs[1..] {
        assert_eq!(runs[0].scalars, r.scalars);
        assert_eq!(runs[0].stats, r.stats);
        assert_eq!(
            runs[0].stats.simulated_secs.to_bits(),
            r.stats.simulated_secs.to_bits(),
            "speculation/checkpoint schedule leaked scheduling state"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Any (seed, straggler rate) point with speculation on: same stats
    // across 1/2/4 threads, and the fault-free results.
    #[test]
    fn speculation_determinism_holds_for_arbitrary_schedules(
        seed in any::<u64>(),
        straggle_pct in 5u32..45,
        fail_pct in 0u32..20,
    ) {
        let (prog, catalog) = workload();
        let baseline = tiny_engine().run(&prog, &catalog).expect("baseline");
        let cfg = FaultConfig::disabled()
            .with_seed(seed)
            .with_task_fail_p(f64::from(fail_pct) / 100.0)
            .with_straggler_p(f64::from(straggle_pct) / 100.0)
            .with_straggler_secs(2.5)
            .with_max_task_retries(12)
            .with_speculation(true);
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4] {
            let engine = tiny_engine()
                .with_worker_threads(Some(threads))
                .with_faults(cfg);
            runs.push(engine.run(&prog, &catalog).expect("speculative run"));
        }
        for r in &runs {
            prop_assert_eq!(&r.writes, &baseline.writes);
            prop_assert_eq!(&r.scalars, &baseline.scalars);
        }
        for r in &runs[1..] {
            prop_assert_eq!(&runs[0].stats, &r.stats);
            prop_assert_eq!(
                runs[0].stats.simulated_secs.to_bits(),
                r.stats.simulated_secs.to_bits()
            );
        }
    }
}
