//! Acceptance check for the compiled-evaluator tiers: across the paper
//! workloads (Fig. 4 spam classifier, Fig. 5 group aggregation, TPC-H
//! Q1/Q4, PageRank), running UDFs through the slot-based compiled
//! evaluators must produce exactly the same sink rows, driver scalars, and
//! deterministic [`ExecStats`] counters — including bit-identical
//! `simulated_secs` — as the tree-walking interpreter. Compilation is an
//! evaluation tier, not a plan optimization: it may only change how fast a
//! row is evaluated on the host, never what is computed or what the cost
//! model charges.
//!
//! The vectorized batch tier is held to the same bar: compiled with
//! `EvalTier::Vectorized` (a small batch and the default one), every
//! workload must reproduce the scalar compiled tier's rows, scalars, and
//! cost-model counters exactly — the only counters allowed to move are the
//! vectorization telemetry fields — and rerunning the same configuration
//! (including under chaos faults and skew splitting) must replay those
//! telemetry counters bit-identically.

use emma::algorithms::{groupagg, pagerank, spam, tpch};
use emma::prelude::*;
use emma_bench::fig4;
use emma_datagen::emails::{classifiers, EmailSpec};
use emma_datagen::tpch::TpchSpec;
use emma_datagen::KeyDistribution;
use emma_engine::{BatchConfig, SkewConfig};

fn assert_compiled_invariant(
    what: &str,
    program: &Program,
    catalog: &Catalog,
    flags: &OptimizerFlags,
) {
    let compiled = parallelize(program, &flags.with_eval_tier(EvalTier::Compiled));
    let interpreted = parallelize(program, &flags.with_eval_tier(EvalTier::Interp));
    for engine in [Engine::sparrow(), Engine::flamingo()] {
        let a = engine.run(&compiled, catalog).expect(what);
        let b = engine.run(&interpreted, catalog).expect(what);
        assert_eq!(a.writes, b.writes, "{what}: sink rows differ");
        assert_eq!(a.scalars, b.scalars, "{what}: scalars differ");
        assert_eq!(a.stats, b.stats, "{what}: counters differ");
        assert_eq!(
            a.stats.simulated_secs.to_bits(),
            b.stats.simulated_secs.to_bits(),
            "{what}: simulated time not bit-identical"
        );
    }
    assert_vectorized_invariant(what, program, catalog, flags);
}

/// Strips the vectorization telemetry so two runs can be compared on every
/// *cost-model* counter: rows/bytes/stages/faults and the simulated clock
/// must be untouched by the batch tier; only the telemetry may differ.
fn without_vec_telemetry(stats: &ExecStats) -> ExecStats {
    let mut s = stats.clone();
    s.rows_vectorized = 0;
    s.batches_executed = 0;
    s.vector_fallbacks = 0;
    s.key_path_fallbacks = 0;
    s
}

/// The vectorized-tier acceptance bar, run against the scalar compiled
/// tier on both engines at two batch sizes (a small batch so multi-batch
/// replay is exercised, and the default batch size).
fn assert_vectorized_invariant(
    what: &str,
    program: &Program,
    catalog: &Catalog,
    flags: &OptimizerFlags,
) {
    let scalar = parallelize(program, &flags.with_eval_tier(EvalTier::Compiled));
    let small = parallelize(
        program,
        &flags.with_eval_tier(EvalTier::Vectorized(BatchConfig::new(64))),
    );
    let default = parallelize(program, &flags.with_vectorized_eval(true));
    for engine in [Engine::sparrow(), Engine::flamingo()] {
        let base = engine.run(&scalar, catalog).expect(what);
        let a = engine.run(&small, catalog).expect(what);
        let b = engine.run(&default, catalog).expect(what);
        for (leg, r) in [("batch 64", &a), ("default batch", &b)] {
            assert_eq!(r.writes, base.writes, "{what}/{leg}: sink rows differ");
            assert_eq!(r.scalars, base.scalars, "{what}/{leg}: scalars differ");
            assert_eq!(
                without_vec_telemetry(&r.stats),
                base.stats,
                "{what}/{leg}: cost-model counters moved under vectorization"
            );
            assert_eq!(
                r.stats.simulated_secs.to_bits(),
                base.stats.simulated_secs.to_bits(),
                "{what}/{leg}: simulated time not bit-identical"
            );
        }
        // No silent slow paths, no silent no-ops: with the tier on, every
        // workload either vectorizes rows or reports its fallbacks.
        assert!(
            a.stats.rows_vectorized + a.stats.vector_fallbacks > 0,
            "{what}: vectorized tier neither engaged nor reported a fallback"
        );
        // The specialization decision is taken on the driver from a
        // deterministic sample, so the telemetry itself must replay
        // bit-identically.
        let a2 = engine.run(&small, catalog).expect(what);
        assert_eq!(
            a.stats, a2.stats,
            "{what}: vectorization telemetry not reproducible"
        );
    }
}

#[test]
fn fig4_spam_workflow_counters_invariant_under_compiled_eval() {
    let (program, catalog) = fig4::workload();
    assert_compiled_invariant("fig4 optimized", &program, &catalog, &OptimizerFlags::all());
    // The figure's baseline lowering keeps a narrow fused chain — the tier
    // must also agree inside fused per-partition pipelines.
    let baseline = OptimizerFlags::all()
        .with_unnest_exists(false)
        .with_caching(false)
        .with_partition_pulling(false);
    assert_compiled_invariant("fig4 baseline", &program, &catalog, &baseline);
}

#[test]
fn fig4_small_scale_counters_invariant_under_compiled_eval() {
    let spec = EmailSpec {
        emails: 120,
        blacklist: 30,
        ip_domain: 200,
        body_bytes: 2_000,
        info_bytes: 500,
        seed: 7,
    };
    let program = spam::program(classifiers(2));
    let catalog = spam::catalog(&spec);
    let baseline = OptimizerFlags::all().with_unnest_exists(false);
    assert_compiled_invariant("fig4 small", &program, &catalog, &baseline);
}

#[test]
fn fig5_group_aggregation_counters_invariant_under_compiled_eval() {
    let program = groupagg::program();
    for dist in KeyDistribution::all() {
        let catalog = groupagg::catalog(4_000, 100, dist, 42);
        // Both the aggBy (fold-group fused) and groupBy shapes shuffle with
        // carried key hashes — cover each.
        for fold_group in [true, false] {
            let flags = OptimizerFlags::all().with_fold_group_fusion(fold_group);
            assert_compiled_invariant(&format!("fig5 {dist:?}"), &program, &catalog, &flags);
        }
    }
}

#[test]
fn tpch_q1_q4_counters_invariant_under_compiled_eval() {
    let catalog = tpch::catalog(&TpchSpec {
        scale: 30.0,
        seed: 42,
    });
    // Q1 exercises aggBy's prehashed combiner; Q4 the hash-reusing
    // repartition join plus a fused filter→flatMap chain.
    for (name, program) in [("Q1", tpch::q1_program()), ("Q4", tpch::q4_program())] {
        assert_compiled_invariant(name, &program, &catalog, &OptimizerFlags::all());
    }
}

#[test]
fn pagerank_counters_invariant_under_compiled_eval() {
    // Iterative workload: compiled UDFs are memoized across iterations, so
    // the same CompiledEval instance is re-bound and re-run every round.
    let params = pagerank::PagerankParams {
        num_pages: 200,
        iterations: 5,
        ..Default::default()
    };
    let program = pagerank::program(&params);
    let catalog = pagerank::catalog(&emma_datagen::graph::GraphSpec {
        vertices: params.num_pages,
        avg_degree: 4,
        skew: 1.0,
        seed: 42,
    });
    assert_compiled_invariant("pagerank", &program, &catalog, &OptimizerFlags::all());
}

#[test]
fn vectorized_counters_replay_bit_identically_under_chaos_and_skew() {
    // The hostile leg: chaos fault injection (task failures, cache
    // evictions, retries) plus eager skew splitting reshape which rows land
    // in which partition attempt — yet the vectorized tier's specialization
    // decision and telemetry are driver-side and deterministic, so two runs
    // of the same configuration must agree on *every* counter bit, and the
    // tier must still change nothing observable against the scalar runs
    // under the same chaos schedule.
    let program = groupagg::program();
    let catalog = groupagg::catalog(4_000, 100, KeyDistribution::Zipf(1.2), 42);
    let compiled = parallelize(&program, &OptimizerFlags::all());
    let vectorized = parallelize(
        &program,
        &OptimizerFlags::all().with_eval_tier(EvalTier::Vectorized(BatchConfig::new(128))),
    );
    for base in [Engine::sparrow(), Engine::flamingo()] {
        let hostile = base
            .with_faults(FaultConfig::chaos(1729))
            .with_skew_splitting(SkewConfig::default().with_min_part_rows(64));
        let scalar = hostile
            .run(&compiled, &catalog)
            .expect("scalar under chaos");
        let a = hostile
            .run(&vectorized, &catalog)
            .expect("vectorized under chaos");
        let b = hostile
            .run(&vectorized, &catalog)
            .expect("vectorized under chaos, replayed");
        assert_eq!(a.writes, scalar.writes, "chaos+skew: sink rows differ");
        assert_eq!(a.scalars, scalar.scalars, "chaos+skew: scalars differ");
        assert_eq!(
            without_vec_telemetry(&a.stats),
            scalar.stats,
            "chaos+skew: cost-model counters moved under vectorization"
        );
        assert_eq!(
            a.stats, b.stats,
            "chaos+skew: counters (incl. vectorization telemetry) must replay bit-identically"
        );
        assert_eq!(
            a.stats.simulated_secs.to_bits(),
            b.stats.simulated_secs.to_bits(),
            "chaos+skew: simulated time must replay bit-identically"
        );
    }
}
