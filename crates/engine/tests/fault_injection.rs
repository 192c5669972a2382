//! Fault-tolerant execution: determinism, correctness under injected
//! failures, and recovery accounting.
//!
//! The invariants under test, in order of importance:
//!
//! 1. **Off means off**: an engine with no fault config and an engine with a
//!    zero-probability config produce bit-identical deterministic counters
//!    (including `simulated_secs`) — the fault machinery must be free when
//!    disabled.
//! 2. **Same seed, same run**: with injection active, two runs with the same
//!    config produce bit-identical `ExecStats`, regardless of thread count
//!    — the failure schedule is a pure function of the driver-ordered
//!    identifiers, never of scheduling.
//! 3. **Failures don't corrupt**: with a sufficient retry budget, every
//!    injected failure schedule still yields exactly the fault-free sink
//!    rows and scalars.

use emma_compiler::bag_expr::{BagExpr, BagLambda};
use emma_compiler::expr::{Lambda, ScalarExpr};
use emma_compiler::interp::Catalog;
use emma_compiler::pipeline::{parallelize, CompiledProgram, OptimizerFlags};
use emma_compiler::program::{Program, Stmt};
use emma_compiler::value::Value;
use emma_engine::cluster::{ClusterSpec, Personality};
use emma_engine::{Engine, ExecError, FaultConfig};
use proptest::prelude::*;

fn tiny_engine() -> Engine {
    // Row counts here are small, so drop the fan-out gate to zero: the
    // parallel containment/retry paths must be exercised, not the serial
    // fallback.
    Engine::new(ClusterSpec::tiny(), Personality::sparrow()).with_parallelism_threshold(0)
}

fn kv_rows(n: i64, keys: i64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::tuple(vec![Value::Int(i % keys), Value::Int(i)]))
        .collect()
}

/// Map → filter → group-aggregate over a comprehension join: touches the
/// narrow pipeline, shuffle bucketing, join build/probe, and the aggBy
/// combiner/merge task sites in one program.
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

/// A cached bag re-read across loop iterations — the lineage-recompute
/// surface: every iteration's cache hit is an eviction opportunity.
fn cached_loop_workload() -> (CompiledProgram, Catalog) {
    let catalog = Catalog::new().with("xs", kv_rows(500, 13));
    let p = Program::new(vec![
        Stmt::val(
            "big",
            BagExpr::read("xs").map(Lambda::new(
                ["x"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("x").get(0),
                    ScalarExpr::var("x").get(1).mul(ScalarExpr::lit(3i64)),
                ]),
            )),
        ),
        Stmt::var("i", ScalarExpr::lit(0i64)),
        Stmt::var("acc", ScalarExpr::lit(0.0f64)),
        Stmt::while_loop(
            ScalarExpr::var("i").lt(ScalarExpr::lit(6i64)),
            vec![
                Stmt::assign(
                    "acc",
                    ScalarExpr::var("acc").add(
                        BagExpr::var("big")
                            .map(Lambda::new(["x"], ScalarExpr::var("x").get(1)))
                            .sum(),
                    ),
                ),
                Stmt::assign("i", ScalarExpr::var("i").add(ScalarExpr::lit(1i64))),
            ],
        ),
    ]);
    (parallelize(&p, &OptimizerFlags::all()), catalog)
}

#[test]
fn zero_probability_config_is_bit_identical_to_no_config() {
    let (prog, catalog) = workload();
    for personality in [Personality::sparrow(), Personality::flamingo()] {
        let plain =
            Engine::new(ClusterSpec::tiny(), personality.clone()).with_parallelism_threshold(0);
        let faulted = plain.clone().with_faults(FaultConfig::disabled());
        let also_faulted = plain.clone().with_faults(
            FaultConfig::chaos(7)
                .with_task_fail_p(0.0)
                .with_straggler_p(0.0)
                .with_cache_evict_p(0.0),
        );
        let a = plain.run(&prog, &catalog).expect("plain");
        for engine in [faulted, also_faulted] {
            let b = engine.run(&prog, &catalog).expect("zero-probability");
            assert_eq!(a.writes, b.writes);
            assert_eq!(a.scalars, b.scalars);
            assert_eq!(a.stats, b.stats);
            assert_eq!(
                a.stats.simulated_secs.to_bits(),
                b.stats.simulated_secs.to_bits(),
                "simulated clock must be bit-identical with injection off"
            );
            assert_eq!(b.stats.tasks_failed, 0);
            assert_eq!(b.stats.tasks_retried, 0);
            assert_eq!(b.stats.cache_evictions, 0);
        }
    }
}

#[test]
fn chaos_preserves_results_and_reruns_bit_identically() {
    let (prog, catalog) = workload();
    let baseline = tiny_engine().run(&prog, &catalog).expect("baseline");
    // Aggressive enough that failures certainly occur across the program's
    // task batches.
    let cfg = FaultConfig::chaos(42)
        .with_task_fail_p(0.3)
        .with_straggler_p(0.2);
    let a = tiny_engine()
        .with_faults(cfg)
        .run(&prog, &catalog)
        .expect("chaos a");
    let b = tiny_engine()
        .with_faults(cfg)
        .run(&prog, &catalog)
        .expect("chaos b");
    // Recovery is invisible in the results...
    assert_eq!(a.writes, baseline.writes);
    assert_eq!(a.scalars, baseline.scalars);
    // ...but visible in the failure counters.
    assert!(a.stats.tasks_failed > 0, "{}", a.stats);
    assert!(a.stats.tasks_retried > 0, "{}", a.stats);
    assert!(a.stats.straggler_delays > 0, "{}", a.stats);
    assert!(a.stats.retry_sim_secs > 0.0, "{}", a.stats);
    assert!(a.stats.simulated_secs > baseline.stats.simulated_secs);
    // Identical seed → identical run, down to the clock bits.
    assert_eq!(a.stats, b.stats);
    assert_eq!(
        a.stats.simulated_secs.to_bits(),
        b.stats.simulated_secs.to_bits()
    );
}

#[test]
fn failure_schedule_is_independent_of_threads() {
    let (prog, catalog) = workload();
    let cfg = FaultConfig::chaos(9).with_task_fail_p(0.25);
    let mut runs = Vec::new();
    for threads in [None, Some(1), Some(7), Some(4)] {
        let engine = tiny_engine().with_worker_threads(threads).with_faults(cfg);
        runs.push(engine.run(&prog, &catalog).expect("faulted run"));
    }
    for r in &runs[1..] {
        assert_eq!(runs[0].writes, r.writes);
        assert_eq!(runs[0].scalars, r.scalars);
        assert_eq!(runs[0].stats, r.stats);
        assert_eq!(
            runs[0].stats.simulated_secs.to_bits(),
            r.stats.simulated_secs.to_bits(),
            "schedule leaked scheduling state"
        );
    }
}

#[test]
fn certain_failure_exhausts_the_retry_budget() {
    let (prog, catalog) = workload();
    let cfg = FaultConfig::disabled()
        .with_task_fail_p(1.0)
        .with_max_task_retries(2);
    let err = tiny_engine()
        .with_faults(cfg)
        .run(&prog, &catalog)
        .expect_err("must exhaust retries");
    match err {
        ExecError::TaskFailed {
            partition,
            attempts,
        } => {
            assert_eq!(partition, 0, "lowest failed partition wins");
            assert_eq!(attempts, 3, "1 initial + 2 retries");
        }
        other => panic!("expected TaskFailed, got: {other}"),
    }
}

#[test]
fn backoff_is_charged_to_the_simulated_clock() {
    let (prog, catalog) = workload();
    // Same schedule, different backoff price: the clock must move by the
    // backoff delta alone, deterministically.
    let cheap = FaultConfig::chaos(3)
        .with_straggler_p(0.0)
        .with_retry_backoff_secs(0.0);
    let costly = cheap.with_retry_backoff_secs(2.0);
    let a = tiny_engine()
        .with_faults(cheap)
        .run(&prog, &catalog)
        .expect("cheap");
    let b = tiny_engine()
        .with_faults(costly)
        .run(&prog, &catalog)
        .expect("costly");
    assert_eq!(a.stats.tasks_retried, b.stats.tasks_retried);
    assert!(a.stats.tasks_retried > 0, "seed 3 must inject failures");
    assert_eq!(a.stats.retry_sim_secs, 0.0);
    assert!(b.stats.retry_sim_secs > 0.0);
    assert!(b.stats.simulated_secs > a.stats.simulated_secs);
}

#[test]
fn cache_eviction_recomputes_lineage_without_changing_results() {
    let (prog, catalog) = cached_loop_workload();
    let baseline = tiny_engine().run(&prog, &catalog).expect("baseline");
    assert!(baseline.stats.cache_hits >= 5, "{}", baseline.stats);
    let cfg = FaultConfig::disabled().with_cache_evict_p(1.0);
    let evicted = tiny_engine()
        .with_faults(cfg)
        .run(&prog, &catalog)
        .expect("evicted run");
    // Every would-be hit found its entry gone and re-derived the lineage.
    assert_eq!(evicted.stats.cache_hits, 0, "{}", evicted.stats);
    assert_eq!(
        evicted.stats.cache_evictions, baseline.stats.cache_hits,
        "{}",
        evicted.stats
    );
    assert!(evicted.stats.recomputed_partitions > 0);
    assert!(evicted.stats.recomputed_plan_nodes > 0);
    // Recomputation is pure: same answer, more simulated work.
    assert_eq!(evicted.scalars["acc"], baseline.scalars["acc"]);
    assert!(evicted.stats.simulated_secs > baseline.stats.simulated_secs);
    // And deterministic.
    let again = tiny_engine()
        .with_faults(cfg)
        .run(&prog, &catalog)
        .expect("evicted again");
    assert_eq!(evicted.stats, again.stats);
    assert_eq!(
        evicted.stats.simulated_secs.to_bits(),
        again.stats.simulated_secs.to_bits()
    );
}

#[test]
fn partial_eviction_rate_is_deterministic_and_correct() {
    let (prog, catalog) = cached_loop_workload();
    let baseline = tiny_engine().run(&prog, &catalog).expect("baseline");
    let cfg = FaultConfig::disabled()
        .with_seed(11)
        .with_cache_evict_p(0.5);
    let a = tiny_engine()
        .with_faults(cfg)
        .run(&prog, &catalog)
        .expect("a");
    let b = tiny_engine()
        .with_faults(cfg)
        .run(&prog, &catalog)
        .expect("b");
    assert!(a.stats.cache_evictions > 0, "{}", a.stats);
    assert!(a.stats.cache_hits > 0, "seed 11 should keep some hits");
    assert_eq!(a.scalars["acc"], baseline.scalars["acc"]);
    assert_eq!(a.stats, b.stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Any (seed, rates) point: the run completes, matches the fault-free
    // results, and reproduces itself bit-identically.
    #[test]
    fn retry_determinism_holds_for_arbitrary_schedules(
        seed in any::<u64>(),
        fail_pct in 0u32..35,
        straggle_pct in 0u32..25,
        evict_pct in 0u32..50,
    ) {
        let (prog, catalog) = workload();
        let baseline = tiny_engine().run(&prog, &catalog).expect("baseline");
        let cfg = FaultConfig::disabled()
            .with_seed(seed)
            .with_task_fail_p(f64::from(fail_pct) / 100.0)
            .with_straggler_p(f64::from(straggle_pct) / 100.0)
            .with_straggler_secs(1.5)
            .with_cache_evict_p(f64::from(evict_pct) / 100.0)
            .with_max_task_retries(12);
        let a = tiny_engine().with_faults(cfg).run(&prog, &catalog).expect("faulted a");
        let b = tiny_engine().with_faults(cfg).run(&prog, &catalog).expect("faulted b");
        prop_assert_eq!(&a.writes, &baseline.writes);
        prop_assert_eq!(&a.scalars, &baseline.scalars);
        prop_assert_eq!(&a.stats, &b.stats);
        prop_assert_eq!(
            a.stats.simulated_secs.to_bits(),
            b.stats.simulated_secs.to_bits()
        );
    }
}
