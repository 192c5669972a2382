//! One benchmark run: set up a workload, run jobs in a closed loop for the
//! given time, check every job, and reduce the samples to metrics.
//!
//! A job is what a user of Emma runs: `parallelize` on each of the
//! workload's quoted programs, then `Engine::run` on the result. One client
//! submits a job, waits for it and submits the next.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use emma::emma_compiler::pipeline::{AuxDef, CRValue, CStmt};
use emma::emma_engine::WorkerPool;
use emma::prelude::*;

use crate::measure::{median, quartiles, usage};
use crate::trace::Tracer;
use crate::workloads::{self, Expected, Inputs, Size, Workload};

/// The engine pool never gets more threads than this, so hosts with more
/// cores measure the same configuration as the 2-core reference host.
pub const MAX_THREADS: usize = 2;

/// Times the inputs are generated per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Tasks in one `pool.wave_us` wave: the paper-scaled cluster's DOP, the
/// task count of one engine stage.
pub const POOL_WAVE_TASKS: usize = 320;

/// Operator kinds whose program-reported wall time becomes an
/// `exec.op.<kind>_s` metric. `GroupBy` is not among them: fold-group fusion turns every `groupBy` of
/// the four workloads into an `AggBy`.
pub const OP_KINDS: [&str; 7] = [
    "AggBy",
    "Join",
    "Pipeline",
    "Map",
    "Filter",
    "Source",
    "Repartition",
];

/// What one run measures.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input size.
    pub size: Size,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds of closed-loop jobs.
    pub seconds: f64,
    /// Per-layer run with spans (`true`) or end-to-end run (`false`).
    pub trace: bool,
}

/// A named metric with every sample it was reduced from.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Reported value.
    pub value: f64,
    /// The samples behind `value` (one for single measurements).
    pub samples: Vec<f64>,
}

impl Metric {
    fn median_of(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: median(&samples),
            samples,
        }
    }

    fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::median_of(name, unit, vec![value])
    }
}

/// The result of one run.
pub struct Outcome {
    /// Host and run facts, in print order.
    pub facts: Vec<(&'static str, String)>,
    /// Jobs attempted, the untimed first job included.
    pub attempted: u64,
    /// Jobs that returned an error, produced a wrong sink, or did not
    /// repeat the first job's deterministic counters.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

/// Counters one job reports through `OptimizationReport`, the compiled
/// plans and `ExecStats`, summed over the job's programs.
#[derive(Clone, Debug, Default, PartialEq)]
struct JobStats {
    sim_s: f64,
    op_wall_s: BTreeMap<&'static str, f64>,
    plan_nodes: u64,
    fold_group_fused: u64,
    exists_unnested: u64,
    pipeline_stages_fused: u64,
    cached: u64,
    records_processed: u64,
    bytes_shuffled: u64,
    bytes_broadcast: u64,
    bytes_spilled: u64,
    stages: u64,
    iterations: u64,
    cache_hits: u64,
    cache_misses: u64,
    tasks_failed: u64,
    tasks_retried: u64,
    rows_vectorized: u64,
    batches_executed: u64,
    vector_fallbacks: u64,
    key_path_fallbacks: u64,
}

impl JobStats {
    fn add_compiled(&mut self, c: &CompiledProgram) {
        self.plan_nodes += plan_nodes(&c.body);
        self.fold_group_fused += c.report.fold_group_fused as u64;
        self.exists_unnested += c.report.exists_unnested as u64;
        self.pipeline_stages_fused += c.report.pipeline_stages_fused as u64;
        self.cached += c.report.cached.len() as u64;
    }

    fn add_exec(&mut self, s: &ExecStats) {
        self.sim_s += s.simulated_secs;
        for (k, v) in &s.op_wall_secs {
            *self.op_wall_s.entry(k).or_default() += v;
        }
        self.records_processed += s.records_processed;
        self.bytes_shuffled += s.bytes_shuffled;
        self.bytes_broadcast += s.bytes_broadcast;
        self.bytes_spilled += s.bytes_spilled;
        self.stages += s.stages;
        self.iterations += s.iterations;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        self.tasks_failed += s.tasks_failed;
        self.tasks_retried += s.tasks_retried;
        self.rows_vectorized += s.rows_vectorized;
        self.batches_executed += s.batches_executed;
        self.vector_fallbacks += s.vector_fallbacks;
        self.key_path_fallbacks += s.key_path_fallbacks;
    }

    /// Every deterministic value: the simulated clock and the counts. Two
    /// jobs over the same inputs must agree on all of them bit for bit.
    fn deterministic(&self) -> Vec<(&'static str, &'static str, f64)> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        vec![
            ("compiler.plan_nodes", "count", self.plan_nodes as f64),
            (
                "compiler.fold_group_fused",
                "count",
                self.fold_group_fused as f64,
            ),
            (
                "compiler.exists_unnested",
                "count",
                self.exists_unnested as f64,
            ),
            (
                "compiler.pipeline_stages_fused",
                "count",
                self.pipeline_stages_fused as f64,
            ),
            ("compiler.cached", "count", self.cached as f64),
            ("exec.sim_s", "s", self.sim_s),
            (
                "exec.records_processed",
                "count",
                self.records_processed as f64,
            ),
            ("exec.bytes_shuffled", "B", self.bytes_shuffled as f64),
            ("exec.bytes_broadcast", "B", self.bytes_broadcast as f64),
            ("exec.bytes_spilled", "B", self.bytes_spilled as f64),
            ("exec.stages", "count", self.stages as f64),
            ("exec.iterations", "count", self.iterations as f64),
            ("exec.cache_hits", "count", self.cache_hits as f64),
            ("exec.cache_misses", "count", self.cache_misses as f64),
            (
                "exec.cache_hit_ratio",
                "ratio",
                ratio(self.cache_hits, self.cache_hits + self.cache_misses),
            ),
            ("exec.tasks_failed", "count", self.tasks_failed as f64),
            ("exec.tasks_retried", "count", self.tasks_retried as f64),
            ("vectorized.rows", "count", self.rows_vectorized as f64),
            ("vectorized.batches", "count", self.batches_executed as f64),
            (
                "vectorized.fallbacks",
                "count",
                self.vector_fallbacks as f64,
            ),
            (
                "vectorized.key_path_fallbacks",
                "count",
                self.key_path_fallbacks as f64,
            ),
            (
                "vectorized.coverage",
                "ratio",
                ratio(self.rows_vectorized, self.records_processed),
            ),
        ]
    }
}

/// Plan nodes across every dataflow of a compiled program.
fn plan_nodes(body: &[CStmt]) -> u64 {
    fn plan(p: &Plan) -> u64 {
        let mut n = 0;
        p.visit(&mut |_| n += 1);
        n
    }
    fn aux(pre: &[AuxDef]) -> u64 {
        pre.iter().map(|a| plan(&a.plan)).sum()
    }
    body.iter()
        .map(|s| match s {
            CStmt::Bind { value, .. } => match value {
                CRValue::Bag(p) => plan(p),
                CRValue::Scalar { pre, .. } => aux(pre),
            },
            CStmt::While { pre, body, .. } | CStmt::ForEach { pre, body, .. } => {
                aux(pre) + plan_nodes(body)
            }
            CStmt::If {
                pre,
                then_branch,
                else_branch,
                ..
            } => aux(pre) + plan_nodes(then_branch) + plan_nodes(else_branch),
            CStmt::Write { plan: p, .. } | CStmt::StatefulCreate { plan: p, .. } => plan(p),
            CStmt::StatefulUpdate { messages, .. } => plan(messages),
        })
        .sum()
}

/// One job's measurements.
struct Job {
    wall_s: f64,
    cpu_s: f64,
    run_s: f64,
    check_s: f64,
    traced: bool,
    result: Result<JobStats, String>,
}

fn run_job(
    cfg: &Config,
    inputs: &Inputs,
    engine: &Engine,
    expected: &Expected,
    tracer: &mut Tracer,
    id: u64,
) -> Job {
    let traced = tracer.enabled();
    let cpu0 = usage().cpu_s;
    let start = Instant::now();
    let mut run_s = 0.0;
    let mut stats = JobStats::default();
    let mut writes = HashMap::new();
    let ran: Result<(), String> = tracer.span("job", Some(id), |t| {
        for program in &inputs.programs {
            let compiled = t.span("parallelize", Some(id), |_| {
                parallelize(program, &inputs.flags)
            });
            stats.add_compiled(&compiled);
            let r0 = Instant::now();
            let run = t.span("engine.run", Some(id), |t| {
                let run = engine.run(&compiled, &inputs.catalog);
                if let Ok(run) = &run {
                    for (op, secs) in &run.stats.op_wall_secs {
                        t.annotate(format!("exec.op.{op}_s"), *secs);
                    }
                }
                run
            });
            run_s += r0.elapsed().as_secs_f64();
            let run = run.map_err(|e| format!("engine error: {e}"))?;
            stats.add_exec(&run.stats);
            writes.extend(run.writes);
        }
        Ok(())
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = usage().cpu_s - cpu0;
    let c0 = Instant::now();
    let result = tracer.span("check", Some(id), |_| {
        ran?;
        workloads::check(expected, &writes)?;
        if cfg.workload == Workload::Scan {
            preflight_vectorized(inputs.input_rows, &stats)?;
        }
        Ok(stats)
    });
    let check_s = c0.elapsed().as_secs_f64();
    Job {
        wall_s,
        cpu_s,
        run_s,
        check_s,
        traced,
        result,
    }
}

/// The scan workload measures the vectorized tier, so every row must go
/// through it and nothing may fall back to the scalar tier.
fn preflight_vectorized(input_rows: u64, s: &JobStats) -> Result<(), String> {
    if s.rows_vectorized >= input_rows && s.vector_fallbacks == 0 && s.key_path_fallbacks == 0 {
        Ok(())
    } else {
        Err(format!(
            "scan did not fully vectorize: {} of {input_rows} rows, {} fallbacks, {} key-path fallbacks",
            s.rows_vectorized, s.vector_fallbacks, s.key_path_fallbacks
        ))
    }
}

/// Median wall microseconds of one `WorkerPool::run` wave of no-op tasks,
/// on a pool sized the way the engine sizes its own.
fn pool_wave_us(threads: usize) -> Vec<f64> {
    let pool = WorkerPool::new(threads - 1);
    let task = |i: usize| {
        black_box(i);
    };
    for _ in 0..100 {
        pool.run(POOL_WAVE_TASKS, &task);
    }
    let start = Instant::now();
    let mut waves = Vec::new();
    while waves.len() < 200 || (waves.len() < 5_000 && start.elapsed().as_secs_f64() < 0.5) {
        let t = Instant::now();
        pool.run(POOL_WAVE_TASKS, &task);
        waves.push(t.elapsed().as_secs_f64() * 1e6);
    }
    waves
}

/// Microseconds to compile the job's programs, per call, over many calls.
fn parallelize_us(inputs: &Inputs) -> Vec<f64> {
    let start = Instant::now();
    let mut calls = Vec::new();
    while calls.len() < 20 || (calls.len() < 2_000 && start.elapsed().as_secs_f64() < 0.5) {
        let t = Instant::now();
        for p in &inputs.programs {
            black_box(parallelize(black_box(p), &inputs.flags));
        }
        calls.push(t.elapsed().as_secs_f64() * 1e6);
    }
    calls
}

/// Runs the benchmark once.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    let engine = Engine::sparrow().with_worker_threads(Some(threads));

    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous copy first so only one is resident.
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(tracer.span("setup", None, |_| {
            workloads::generate(cfg.workload, cfg.size, cfg.seed)
        }));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUP_REPS > 0");
    let expected = tracer.span("reference", None, |_| workloads::reference(&inputs));

    let mut facts = vec![
        ("workload", cfg.workload.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("worker_threads", threads.to_string()),
        ("input_rows", inputs.input_rows.to_string()),
        ("run_seconds", cfg.seconds.to_string()),
        ("load", "closed loop, 1 client".to_string()),
    ];
    let expected = match expected {
        Ok(e) => e,
        Err(e) => {
            return Outcome {
                facts,
                attempted: 1,
                failed: 1,
                failures: vec![format!("reference: {e}")],
                metrics: Vec::new(),
            }
        }
    };

    let (pool_us, compile_us) = if cfg.trace {
        (
            tracer.span("pool.probe", None, |_| pool_wave_us(threads)),
            tracer.span("parallelize.probe", None, |_| parallelize_us(&inputs)),
        )
    } else {
        (Vec::new(), Vec::new())
    };

    // The first job warms allocator and caches; it is checked but untimed.
    let mut jobs = vec![run_job(cfg, &inputs, &engine, &expected, tracer, 0)];
    let start = Instant::now();
    let mut timed: Vec<Job> = Vec::new();
    // A traced run needs one traced and one untraced job for the overhead.
    let min_jobs = if cfg.trace { 2 } else { 1 };
    loop {
        // Start no job that the previous one's duration says would end
        // past the deadline, so a run lasts about `seconds` for every
        // workload.
        let last = timed.last().unwrap_or(&jobs[0]).wall_s;
        if timed.len() >= min_jobs && start.elapsed().as_secs_f64() + last > cfg.seconds {
            break;
        }
        let id = jobs.len() as u64 + timed.len() as u64;
        // Traced runs alternate traced and untraced jobs, so the tracing
        // overhead is measured under the same conditions.
        tracer.set_enabled(cfg.trace && id % 2 == 1);
        timed.push(run_job(cfg, &inputs, &engine, &expected, tracer, id));
    }
    tracer.set_enabled(cfg.trace);
    jobs.extend(timed);
    let peak_rss_mb = usage().peak_rss_mb;

    let mut failures = Vec::new();
    let reference_stats = jobs.iter().find_map(|j| j.result.as_ref().ok()).cloned();
    for j in &jobs {
        let err = match (&j.result, &reference_stats) {
            (Err(e), _) => Some(e.clone()),
            (Ok(s), Some(first)) if s.deterministic() != first.deterministic() => {
                Some("deterministic counters differ from the first job".to_string())
            }
            _ => None,
        };
        failures.extend(err);
    }
    let attempted = jobs.len() as u64;
    let failed = failures.len() as u64;
    failures.truncate(5);
    let timed = &jobs[1..];
    facts.push(("jobs_timed", timed.len().to_string()));
    facts.push(("error_rate", (failed as f64 / attempted as f64).to_string()));

    let ok: Vec<&Job> = timed.iter().filter(|j| j.result.is_ok()).collect();
    let stats: Vec<&JobStats> = ok.iter().filter_map(|j| j.result.as_ref().ok()).collect();
    let per_job = |f: &dyn Fn(&Job) -> f64| ok.iter().map(|j| f(j)).collect::<Vec<f64>>();
    let untraced: Vec<&Job> = ok.iter().copied().filter(|j| !j.traced).collect();
    let job_s = untraced.iter().map(|j| j.wall_s).collect::<Vec<f64>>();

    let mut metrics = Vec::new();
    if !cfg.trace {
        let rows = inputs.input_rows as f64;
        metrics.push(Metric::median_of("job_s", "s", job_s.clone()));
        metrics.push(Metric::median_of(
            "rows_per_s",
            "rows/s",
            job_s.iter().map(|s| rows / s).collect(),
        ));
        metrics.push(Metric::median_of(
            "cpu_s",
            "s",
            untraced.iter().map(|j| j.cpu_s).collect(),
        ));
        metrics.push(Metric::median_of(
            "sim_s",
            "s",
            stats.iter().map(|s| s.sim_s).collect(),
        ));
        metrics.push(Metric::median_of("setup_s", "s", setup_s));
        metrics.push(Metric::single("peak_rss_mb", "MiB", peak_rss_mb));
        metrics.push(Metric::single(
            "success_rate",
            "ratio",
            (attempted - failed) as f64 / attempted as f64,
        ));
    } else {
        facts.push((
            "exec.op.*_s",
            "program-reported (ExecStats::op_wall_secs), median per job".to_string(),
        ));
        metrics.push(Metric::median_of(
            "compiler.parallelize_us",
            "us",
            compile_us,
        ));
        if let Some(first) = stats.first() {
            for (name, unit, value) in first.deterministic() {
                if name == "exec.sim_s" {
                    continue;
                }
                metrics.push(Metric::single(name, unit, value));
            }
        }
        metrics.push(Metric::median_of("exec.run_s", "s", per_job(&|j| j.run_s)));
        for op in OP_KINDS {
            metrics.push(Metric::median_of(
                format!("exec.op.{op}_s"),
                "s",
                stats
                    .iter()
                    .map(|s| s.op_wall_s.get(op).copied().unwrap_or(0.0))
                    .collect(),
            ));
        }
        metrics.push(Metric::median_of(
            "exec.driver_s",
            "s",
            ok.iter()
                .zip(&stats)
                .map(|(j, s)| j.run_s - s.op_wall_s.values().sum::<f64>())
                .collect(),
        ));
        metrics.push(Metric::median_of("pool.wave_us", "us", pool_us));
        metrics.push(Metric::median_of("check.s", "s", per_job(&|j| j.check_s)));
        let by_name = tracer.self_times_by_name();
        for (span, metric) in [
            ("job", "trace.self.job_s"),
            ("parallelize", "trace.self.parallelize_s"),
            ("engine.run", "trace.self.engine_run_s"),
            ("check", "trace.self.check_s"),
        ] {
            let samples = by_name.get(span).cloned().unwrap_or_default();
            metrics.push(Metric::median_of(metric, "s", samples));
        }
        let traced_job_s: Vec<f64> = ok.iter().filter(|j| j.traced).map(|j| j.wall_s).collect();
        metrics.push(Metric::single(
            "trace.overhead_s",
            "s",
            median(&traced_job_s) - median(&job_s),
        ));
        metrics.push(Metric::single(
            "trace.spans",
            "count",
            tracer.spans().len() as f64,
        ));
    }
    Outcome {
        facts,
        attempted,
        failed,
        failures,
        metrics,
    }
}

impl Outcome {
    /// Whether every job succeeded and matched the reference.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.metrics.is_empty()
    }

    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// A human-readable report: facts, then one line per metric with its
    /// sample count and quartiles.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.facts {
            out.push_str(&format!("# {k}: {v}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("# failure: {f}\n"));
        }
        for m in &self.metrics {
            let (q1, q3) = quartiles(&m.samples);
            out.push_str(&format!(
                "{:<34} {:>16} {:<7} n={} q1={} q3={}\n",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.samples.len(),
                q1,
                q3
            ));
        }
        out
    }

    /// The one-line JSON result. Non-finite values (a metric without
    /// samples) make the run incorrect instead of producing invalid JSON.
    pub fn result_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics = self
            .metrics
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct() && finite,
            self.attempted,
            self.failed
        )
    }
}
