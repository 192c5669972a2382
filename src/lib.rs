//! # Emma — implicit parallelism through deep language embedding
//!
//! A Rust reproduction of *"Implicit Parallelism through Deep Language
//! Embedding"* (Alexandrov et al., SIGMOD 2015): a language for parallel
//! data analysis whose programs look like ordinary driver code over a
//! `DataBag` abstraction, compiled holistically through a
//! monad-comprehension intermediate representation and executed on
//! interchangeable parallel runtimes.
//!
//! The workspace is organized exactly like the system in the paper:
//!
//! * [`emma_core`] — the typed, local `DataBag` (host-language execution):
//!   bags in union representation, structural recursion via `fold`,
//!   `group_by` with first-class nested bags, and `StatefulBag` for
//!   point-wise iterative refinement.
//! * [`emma_compiler`] — the deep embedding: quoted programs, comprehension
//!   recovery (MC⁻¹), normalization (fusion + exists-unnesting), fold-group
//!   fusion (banana split + fold-build fusion), combinator lowering
//!   (Fig. 2/3a), and the physical optimizations (caching, partition
//!   pulling, broadcast insertion).
//! * [`emma_engine`] — the simulated cluster substrate with two engine
//!   personalities: **Sparrow** (Spark-like) and **Flamingo** (Flink-like).
//! * [`emma_datagen`] — synthetic workloads mirroring the paper's datasets.
//! * [`algorithms`] — every program evaluated in the paper (k-means,
//!   PageRank, Connected Components, TPC-H Q1/Q4, the spam-classifier
//!   workflow, the Fig. 5 group aggregation), written once against the
//!   embedded language and reused by the examples, tests, and the
//!   figure/table-regenerating benchmark harness in `emma-bench`.
//!
//! ## Quickstart
//!
//! ```
//! use emma::prelude::*;
//!
//! // Quote a program: count words longer than 3 characters, per word.
//! let program = Program::new(vec![Stmt::write(
//!     "counts",
//!     BagExpr::read("words")
//!         .filter(Lambda::new(["w"], ScalarExpr::call(
//!             BuiltinFn::StrLen, vec![ScalarExpr::var("w")],
//!         ).gt(ScalarExpr::lit(3i64))))
//!         .group_by(Lambda::new(["w"], ScalarExpr::var("w")))
//!         .map(Lambda::new(["g"], ScalarExpr::Tuple(vec![
//!             ScalarExpr::var("g").get(0),
//!             BagExpr::of_value(ScalarExpr::var("g").get(1)).count(),
//!         ]))),
//! )]);
//!
//! let catalog = Catalog::new().with(
//!     "words",
//!     ["emma", "bag", "fold", "emma"].iter().map(|w| Value::str(*w)).collect(),
//! );
//!
//! // Compile (all optimizations) and run on the Spark-like engine.
//! let compiled = parallelize(&program, &OptimizerFlags::all());
//! assert_eq!(compiled.report.fold_group_fused, 1); // groupBy+count fused to aggBy
//! let run = Engine::sparrow().run(&compiled, &catalog).unwrap();
//! let counts = &run.writes["counts"];
//! assert!(counts.contains(&Value::tuple(vec![Value::str("emma"), Value::Int(2)])));
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod apis;

pub use emma_compiler;
pub use emma_core;
pub use emma_datagen;
pub use emma_engine;

/// Everything needed to write, compile, and run Emma programs.
pub mod prelude {
    pub use emma_compiler::bag_expr::{BagExpr, BagLambda};
    pub use emma_compiler::expr::{BinOp, BuiltinFn, FoldKind, FoldOp, Lambda, ScalarExpr, UnOp};
    pub use emma_compiler::interp::{Catalog, Interp, RunOutput};
    pub use emma_compiler::pipeline::{
        parallelize, CompiledProgram, EvalTier, OptimizationReport, OptimizerFlags,
    };
    pub use emma_compiler::plan::Plan;
    pub use emma_compiler::program::{Program, RValue, Stmt};
    pub use emma_compiler::value::{Value, ValueError};
    pub use emma_core::{DataBag, Grp, Keyed, StatefulBag};
    pub use emma_engine::{
        AdmissionDecision, BatchConfig, CheckpointConfig, CheckpointPolicy, ClusterSpec,
        CostDrivenConfig, Engine, EngineRun, ExecError, ExecStats, FaultConfig, Personality,
        ServiceConfig, ServiceStats, SessionService, SkewConfig,
    };
}
