//! The four workloads: seeded input generation, the quoted programs, and a
//! typed reference for every sink.
//!
//! The references are hand-written Rust over the generated rows. They never
//! go through `parallelize`, the engine or the interpreter, so a defect in
//! any of those shows up as a mismatch instead of being reproduced by the
//! check.

use std::collections::{HashMap, HashSet};

use emma::algorithms::{groupagg, pagerank, tpch};
use emma::emma_datagen::graph::{self, GraphSpec};
use emma::emma_datagen::tpch::{self as tpch_gen, lineitem as li, orders as ord, TpchSpec};
use emma::emma_datagen::KeyDistribution;
use emma::prelude::*;

/// Relative float tolerance, the one `tests/algorithms_differential.rs` uses.
pub const TOLERANCE: f64 = 1e-6;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5 group aggregation: `min` per key through a fused `aggBy`.
    GroupAgg,
    /// TPC-H Q1 then Q4 over one catalog.
    Tpch,
    /// Sec. 5.2 PageRank over a power-law graph.
    Pagerank,
    /// Narrow string and numeric chains on the vectorized tier.
    Scan,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::GroupAgg,
        Workload::Tpch,
        Workload::Pagerank,
        Workload::Scan,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GroupAgg => "groupagg",
            Workload::Tpch => "tpch",
            Workload::Pagerank => "pagerank",
            Workload::Scan => "scan",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is the benchmark, `Smoke` is a tiny version of every
/// workload for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `README.md` states.
    Full,
    /// A few thousand rows per workload.
    Smoke,
}

impl Size {
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// Generated inputs plus everything a job needs to compile and run them.
pub struct Inputs {
    /// The catalog the programs read.
    pub catalog: Catalog,
    /// Rows across every catalog dataset.
    pub input_rows: u64,
    /// The quoted programs one job compiles and runs, in order.
    pub programs: Vec<Program>,
    /// Optimizer flags every program is compiled with.
    pub flags: OptimizerFlags,
    /// Typed copies of the inputs the reference is computed from.
    typed: Typed,
}

enum Typed {
    GroupAgg,
    Tpch,
    Pagerank { params: pagerank::PagerankParams },
    Scan(ScanRows),
}

/// Generates the workload's inputs from `seed`: the datagen and catalog
/// builders whose wall time is the benchmark's `setup_s`.
pub fn generate(w: Workload, size: Size, seed: u64) -> Inputs {
    let flags = OptimizerFlags::all();
    match w {
        Workload::GroupAgg => {
            let rows = size.pick(1_000_000, 20_000);
            let keys = size.pick(10_000, 500);
            Inputs {
                catalog: groupagg::catalog(rows, keys, KeyDistribution::Uniform, seed),
                input_rows: rows as u64,
                programs: vec![groupagg::program()],
                flags,
                typed: Typed::GroupAgg,
            }
        }
        Workload::Tpch => {
            let catalog = tpch::catalog(&TpchSpec {
                scale: size.pick(150.0, 3.0),
                seed,
            });
            Inputs {
                input_rows: dataset_rows(&catalog, &["lineitem", "orders"]),
                catalog,
                programs: vec![tpch::q1_program(), tpch::q4_program()],
                flags,
                typed: Typed::Tpch,
            }
        }
        Workload::Pagerank => {
            let spec = GraphSpec {
                vertices: size.pick(12_000, 400),
                avg_degree: size.pick(30, 8),
                skew: GraphSpec::default().skew,
                seed,
            };
            let params = pagerank::PagerankParams {
                damping: 0.85,
                iterations: size.pick(5, 3),
                num_pages: spec.vertices,
            };
            let catalog = pagerank::catalog(&spec);
            Inputs {
                input_rows: dataset_rows(&catalog, &["vertices"]),
                catalog,
                programs: vec![pagerank::program(&params)],
                flags,
                typed: Typed::Pagerank { params },
            }
        }
        Workload::Scan => {
            let rows = scan_rows(size.pick(1_000_000, 20_000), seed);
            Inputs {
                catalog: rows.catalog(),
                input_rows: (rows.emails.len() + rows.pairs.len()) as u64,
                programs: vec![scan_program()],
                flags: flags.with_vectorized_eval(true),
                typed: Typed::Scan(rows),
            }
        }
    }
}

fn dataset_rows(catalog: &Catalog, names: &[&str]) -> u64 {
    names
        .iter()
        .map(|n| catalog.get(n).expect("generated dataset").len() as u64)
        .sum()
}

// ---------------------------------------------------------------------------
// The scan workload: the email-domain filter chain of the `batch_eval`
// string leg and an integer scoring chain, written as quoted statements.
// ---------------------------------------------------------------------------

/// Sink of the email-domain chain.
pub const SCAN_EMAIL_SINK: &str = "gmail";
/// Sink of the numeric scoring chain.
pub const SCAN_SCORE_SINK: &str = "scores";
const NEEDLE: &str = "gmail.com";
/// Three of twenty domains contain the needle, so ~15 % of emails pass.
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

struct ScanRows {
    emails: Vec<(i64, String)>,
    pairs: Vec<(i64, i64)>,
}

impl ScanRows {
    fn catalog(&self) -> Catalog {
        Catalog::new()
            .with(
                "emails",
                self.emails
                    .iter()
                    .map(|(id, e)| Value::tuple(vec![Value::Int(*id), Value::str(e)]))
                    .collect(),
            )
            .with(
                "pairs",
                self.pairs
                    .iter()
                    .map(|(a, b)| Value::tuple(vec![Value::Int(*a), Value::Int(*b)]))
                    .collect(),
            )
    }
}

/// SplitMix64: a seeded stream that needs no dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn scan_rows(n: usize, seed: u64) -> ScanRows {
    let mut rng = SplitMix(seed);
    let emails = (0..n as i64)
        .map(|id| {
            let domain = DOMAINS[rng.below(DOMAINS.len() as u64) as usize];
            (id, format!("user{}@{domain}", rng.below(1_000_000_000)))
        })
        .collect();
    let pairs = (0..n)
        .map(|_| (rng.below(10_000) as i64, rng.below(1_000) as i64))
        .collect();
    ScanRows { emails, pairs }
}

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn lit(k: i64) -> ScalarExpr {
    ScalarExpr::lit(k)
}

/// The scan program: two narrow chains, no wide operator.
///
/// Generator fusion substitutes each stage's head into every use of its
/// parameter in the later stages, so a chain whose stages each use their
/// parameter several times grows exponentially when compiled (the
/// `batch_eval` scoring chain does not finish compiling as quoted code).
/// The stages here use their parameter at most three times.
pub fn scan_program() -> Program {
    let t0 = || var("t").get(0);
    let t1 = || var("t").get(1);
    let x = || var("x");
    let emails = BagExpr::read("emails")
        .filter(Lambda::new(
            ["t"],
            ScalarExpr::call(
                BuiltinFn::StrContains,
                vec![t1(), ScalarExpr::lit(Value::str(NEEDLE))],
            ),
        ))
        .filter(Lambda::new(["t"], t1().ne(ScalarExpr::lit(Value::str("")))))
        .map(Lambda::new(
            ["t"],
            ScalarExpr::call(BuiltinFn::StrLen, vec![t1()])
                .mul(lit(31))
                .add(t0().rem(lit(97))),
        ))
        .map(Lambda::new(
            ["x"],
            x().mul(lit(7))
                .add(lit(13))
                .rem(lit(65_521))
                .add(x().rem(lit(29)).mul(x().rem(lit(11)))),
        ))
        .filter(Lambda::new(
            ["x"],
            x().rem(lit(251)).ne(lit(0)).or(x().ge(lit(0))),
        ));
    let scores = BagExpr::read("pairs")
        .map(Lambda::new(
            ["t"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::If(
                    Box::new(t0().rem(lit(3)).eq(lit(0))),
                    Box::new(t0().mul(lit(2)).add(lit(7))),
                    Box::new(t0().add(lit(3))),
                ),
                t1().mul(lit(3)).rem(lit(101)),
            ]),
        ))
        .filter(Lambda::new(["t"], t0().add(t1()).rem(lit(17)).ne(lit(3))))
        .map(Lambda::new(
            ["t"],
            ScalarExpr::call(
                BuiltinFn::MinOf,
                vec![t0().mul(lit(5)).add(lit(1)), lit(1 << 20)],
            )
            .mul(lit(31))
            .add(t1()),
        ))
        .filter(Lambda::new(["x"], x().rem(lit(251)).ne(lit(0))))
        .map(Lambda::new(
            ["x"],
            x().mul(lit(3)).add(lit(11)).rem(lit(65_521)),
        ))
        .map(Lambda::new(
            ["x"],
            x().mul(lit(7)).add(lit(29)).rem(lit(32_749)),
        ))
        .filter(Lambda::new(["x"], x().rem(lit(5)).ne(lit(1))))
        .map(Lambda::new(
            ["x"],
            ScalarExpr::call(BuiltinFn::Abs, vec![x().sub(lit(16_000))])
                .mul(lit(13))
                .rem(lit(8_191)),
        ))
        .filter(Lambda::new(["x"], x().rem(lit(7)).ne(lit(3))));
    Program::new(vec![
        Stmt::write(SCAN_EMAIL_SINK, emails),
        Stmt::write(SCAN_SCORE_SINK, scores),
    ])
}

fn email_ref(id: i64, email: &str) -> Option<i64> {
    if !email.contains(NEEDLE) || email.is_empty() {
        return None;
    }
    let x = email.len() as i64 * 31 + id.rem_euclid(97);
    let x = (x * 7 + 13).rem_euclid(65_521) + x.rem_euclid(29) * x.rem_euclid(11);
    (x.rem_euclid(251) != 0 || x >= 0).then_some(x)
}

fn score_ref(a: i64, b: i64) -> Option<i64> {
    let t0 = if a.rem_euclid(3) == 0 {
        a * 2 + 7
    } else {
        a + 3
    };
    let t1 = (b * 3).rem_euclid(101);
    if (t0 + t1).rem_euclid(17) == 3 {
        return None;
    }
    let x = (t0 * 5 + 1).min(1 << 20) * 31 + t1;
    if x.rem_euclid(251) == 0 {
        return None;
    }
    let x = (x * 3 + 11).rem_euclid(65_521);
    let x = (x * 7 + 29).rem_euclid(32_749);
    if x.rem_euclid(5) == 1 {
        return None;
    }
    let x = ((x - 16_000).abs() * 13).rem_euclid(8_191);
    (x.rem_euclid(7) != 3).then_some(x)
}

// ---------------------------------------------------------------------------
// Typed references and the checker.
// ---------------------------------------------------------------------------

/// The expected sinks of one job, computed once per seed.
pub enum Expected {
    /// `key -> min(value)`.
    GroupAgg(HashMap<i64, i64>),
    /// Q1 groups and Q4 counts.
    Tpch {
        /// `(returnFlag, lineStatus) -> [sum_qty, sum_base_price,
        /// sum_disc_price, sum_charge, sum_disc, count]`.
        q1: HashMap<(String, String), [f64; 6]>,
        /// `orderPriority -> count`.
        q4: HashMap<String, i64>,
    },
    /// `vertex -> rank`.
    Pagerank(HashMap<i64, f64>),
    /// Sorted outputs of the two chains.
    Scan {
        /// The email chain's sink, sorted.
        emails: Vec<i64>,
        /// The scoring chain's sink, sorted.
        scores: Vec<i64>,
    },
}

fn int(v: &Value, what: &str) -> Result<i64, String> {
    v.as_int().map_err(|e| format!("{what}: {e}"))
}

fn float(v: &Value, what: &str) -> Result<f64, String> {
    v.as_float().map_err(|e| format!("{what}: {e}"))
}

fn string(v: &Value, what: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .map_err(|e| format!("{what}: {e}"))
}

fn field(row: &Value, i: usize) -> Result<&Value, String> {
    row.field(i).map_err(|e| format!("field {i}: {e}"))
}

/// Computes the expected sinks from the generated rows.
pub fn reference(inputs: &Inputs) -> Result<Expected, String> {
    let rows = |name: &str| inputs.catalog.get(name).map_err(|e| e.to_string());
    Ok(match &inputs.typed {
        Typed::GroupAgg => {
            let mut min: HashMap<i64, i64> = HashMap::new();
            for row in rows("dataset")? {
                let k = int(field(row, 0)?, "key")?;
                let v = int(field(row, 1)?, "value")?;
                min.entry(k).and_modify(|m| *m = (*m).min(v)).or_insert(v);
            }
            Expected::GroupAgg(min)
        }
        Typed::Tpch => {
            let mut q1: HashMap<(String, String), [f64; 6]> = HashMap::new();
            let mut late_orders = HashSet::new();
            for l in rows("lineitem")? {
                let ship = int(field(l, li::SHIP_DATE)?, "shipDate")?;
                if int(field(l, li::COMMIT_DATE)?, "commitDate")?
                    < int(field(l, li::RECEIPT_DATE)?, "receiptDate")?
                {
                    late_orders.insert(int(field(l, li::ORDER_KEY)?, "orderKey")?);
                }
                if ship > tpch_gen::Q1_SHIP_CUTOFF {
                    continue;
                }
                let qty = float(field(l, li::QUANTITY)?, "quantity")?;
                let price = float(field(l, li::EXTENDED_PRICE)?, "price")?;
                let disc = float(field(l, li::DISCOUNT)?, "discount")?;
                let tax = float(field(l, li::TAX)?, "tax")?;
                let key = (
                    string(field(l, li::RETURN_FLAG)?, "returnFlag")?,
                    string(field(l, li::LINE_STATUS)?, "lineStatus")?,
                );
                let acc = q1.entry(key).or_insert([0.0; 6]);
                let disc_price = price * (1.0 - disc);
                acc[0] += qty;
                acc[1] += price;
                acc[2] += disc_price;
                acc[3] += disc_price * (1.0 + tax);
                acc[4] += disc;
                acc[5] += 1.0;
            }
            let mut q4: HashMap<String, i64> = HashMap::new();
            for o in rows("orders")? {
                let date = int(field(o, ord::ORDER_DATE)?, "orderDate")?;
                let key = int(field(o, ord::ORDER_KEY)?, "orderKey")?;
                if (tpch_gen::Q4_DATE_MIN..tpch_gen::Q4_DATE_MAX).contains(&date)
                    && late_orders.contains(&key)
                {
                    *q4.entry(string(field(o, ord::PRIORITY)?, "priority")?)
                        .or_default() += 1;
                }
            }
            Expected::Tpch { q1, q4 }
        }
        Typed::Pagerank { params } => {
            let mut adjacency = Vec::new();
            for row in rows("vertices")? {
                let id = int(field(row, graph::vertex::ID)?, "id")?;
                let nbrs = field(row, graph::vertex::NEIGHBORS)?
                    .as_bag()
                    .map_err(|e| e.to_string())?
                    .iter()
                    .map(|nb| int(nb, "neighbor"))
                    .collect::<Result<Vec<i64>, String>>()?;
                adjacency.push((id, nbrs));
            }
            let n = params.num_pages as f64;
            let mut ranks: HashMap<i64, f64> =
                adjacency.iter().map(|(id, _)| (*id, 1.0 / n)).collect();
            for _ in 0..params.iterations {
                let mut sums: HashMap<i64, f64> = HashMap::new();
                for (id, nbrs) in &adjacency {
                    if let Some(rank) = ranks.get(id) {
                        let share = rank / nbrs.len() as f64;
                        for nb in nbrs {
                            *sums.entry(*nb).or_default() += share;
                        }
                    }
                }
                // Vertices no message reaches leave the rank vector, as in
                // the quoted program's `groupBy` over messages.
                ranks = sums
                    .into_iter()
                    .map(|(v, s)| (v, (1.0 - params.damping) / n + params.damping * s))
                    .collect();
            }
            Expected::Pagerank(ranks)
        }
        Typed::Scan(scan) => {
            let mut emails: Vec<i64> = scan
                .emails
                .iter()
                .filter_map(|(id, e)| email_ref(*id, e))
                .collect();
            let mut scores: Vec<i64> = scan
                .pairs
                .iter()
                .filter_map(|(a, b)| score_ref(*a, *b))
                .collect();
            emails.sort_unstable();
            scores.sort_unstable();
            Expected::Scan { emails, scores }
        }
    })
}

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= TOLERANCE * (1.0 + x.abs().max(y.abs()))
}

fn sink<'a>(writes: &'a HashMap<String, Vec<Value>>, name: &str) -> Result<&'a [Value], String> {
    writes
        .get(name)
        .map(Vec::as_slice)
        .ok_or_else(|| format!("sink `{name}` missing"))
}

fn check_len(name: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("sink `{name}`: {got} rows, expected {want}"))
    }
}

/// Compares one job's sinks with the reference. `Err` names the first
/// mismatch.
pub fn check(expected: &Expected, writes: &HashMap<String, Vec<Value>>) -> Result<(), String> {
    match expected {
        Expected::GroupAgg(min) => {
            let rows = sink(writes, groupagg::SINK)?;
            check_len(groupagg::SINK, rows.len(), min.len())?;
            let mut seen = HashSet::new();
            for row in rows {
                let k = int(field(row, 0)?, "key")?;
                let v = int(field(row, 1)?, "min")?;
                if min.get(&k) != Some(&v) || !seen.insert(k) {
                    return Err(format!("groupagg: wrong row ({k}, {v})"));
                }
            }
        }
        Expected::Tpch { q1, q4 } => {
            let rows = sink(writes, tpch::Q1_SINK)?;
            check_len(tpch::Q1_SINK, rows.len(), q1.len())?;
            for row in rows {
                let key = (
                    string(field(row, 0)?, "flag")?,
                    string(field(row, 1)?, "status")?,
                );
                let want = q1
                    .get(&key)
                    .ok_or_else(|| format!("q1: unexpected group {key:?}"))?;
                let count = want[5];
                let wanted = [
                    want[0],
                    want[1],
                    want[2],
                    want[3],
                    want[0] / count,
                    want[1] / count,
                    want[4] / count,
                    count,
                ];
                for (i, w) in wanted.iter().enumerate() {
                    let got = float(field(row, i + 2)?, "aggregate")?;
                    if !close(got, *w) {
                        return Err(format!("q1 {key:?} column {}: {got} != {w}", i + 2));
                    }
                }
            }
            let rows = sink(writes, tpch::Q4_SINK)?;
            check_len(tpch::Q4_SINK, rows.len(), q4.len())?;
            for row in rows {
                let prio = string(field(row, 0)?, "priority")?;
                let got = int(field(row, 1)?, "count")?;
                if q4.get(&prio) != Some(&got) {
                    return Err(format!("q4 {prio}: {got} != {:?}", q4.get(&prio)));
                }
            }
        }
        Expected::Pagerank(ranks) => {
            let rows = sink(writes, pagerank::SINK)?;
            check_len(pagerank::SINK, rows.len(), ranks.len())?;
            let mut seen = HashSet::new();
            for row in rows {
                let v = int(field(row, 0)?, "vertex")?;
                let r = float(field(row, 1)?, "rank")?;
                match ranks.get(&v) {
                    Some(want) if close(r, *want) && seen.insert(v) => {}
                    want => return Err(format!("pagerank {v}: {r} != {want:?}")),
                }
            }
        }
        Expected::Scan { emails, scores } => {
            for (name, want) in [(SCAN_EMAIL_SINK, emails), (SCAN_SCORE_SINK, scores)] {
                let mut got = sink(writes, name)?
                    .iter()
                    .map(|v| int(v, name))
                    .collect::<Result<Vec<i64>, String>>()?;
                got.sort_unstable();
                if &got != want {
                    return Err(format!(
                        "sink `{name}`: {} rows differ from the {} expected",
                        got.len(),
                        want.len()
                    ));
                }
            }
        }
    }
    Ok(())
}
