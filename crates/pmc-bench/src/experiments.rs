//! Experiment runners (one per DESIGN.md experiment id).

use crate::table::{fmt_count, Table};
use crate::workloads;
use pmc_graph::{stoer_wagner_mincut, CutResult, Graph};
use pmc_mincut::{
    approx_mincut, approx_mincut_eps, exact_mincut, exact_mincut_in, greedy_tree_packing,
    naive_two_respecting, two_respecting_mincut, ApproxParams, Deadline, ExactParams,
    ExactResult, GraphContext, InterestStrategy, PackingParams, TreeContext, TwoRespectParams,
};
use pmc_monge::RowMinimaStrategy;
use pmc_parallel::meter::{CostKind, Meter};
use pmc_tree::{LcaStrategy, PathStrategy, RootedTree};
use std::sync::Arc;
use std::time::Instant;

fn lg(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

/// One metered exact solve of `g` (default parameters, no deadline).
fn exact_metered(g: &Graph, meter: &Meter) -> ExactResult {
    let ctx = GraphContext::build(g, meter);
    exact_mincut_in(&ctx, &ExactParams::default(), &Deadline::never(), meter)
}

/// T1 — Table 1: measured work of this paper's algorithm against the
/// measured "inspect everything" baseline (the work profile of the
/// pre-interest-filter era, standing in for GG18) and the analytic
/// curves of the three table rows.
pub fn run_table1(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new([
        "n",
        "m",
        "trees",
        "ours ops",
        "ours/(m·lg n)",
        "naive ops (est)",
        "naive/(m·lg⁴n)",
        "naive/ours",
    ]);
    for &n in sizes {
        let w = workloads::non_sparse(n, seed);
        let g = w.graph;
        let meter = Meter::enabled();
        let res = exact_metered(&g, &meter);
        let ours = meter.report().total_work();

        // Naive per-tree cost, measured on one spanning tree and scaled
        // by the tree count (the naive solver is identical per tree).
        let (gg, tree_edges) = workloads::graph_with_tree(n, 0.5, seed ^ 0x77);
        let tree = RootedTree::from_edge_list(gg.n(), &tree_edges, 0);
        let meter2 = Meter::enabled();
        let nv = naive_two_respecting(&gg, &tree, 0.25, &meter2);
        assert!(nv.cut.value > 0);
        let naive_est = meter2.report().total_work() * res.stats.num_trees.max(1) as u64;

        let m = g.m() as f64;
        let mlgn = m * lg(n);
        let mlg4n = m * lg(n).powi(4);
        t.row([
            n.to_string(),
            g.m().to_string(),
            res.stats.num_trees.to_string(),
            fmt_count(ours),
            format!("{:.2}", ours as f64 / mlgn),
            fmt_count(naive_est),
            format!("{:.2}", naive_est as f64 / mlg4n),
            format!("{:.1}x", naive_est as f64 / ours as f64),
        ]);
    }
    t
}

/// E-4.2 — Theorem 4.2 scaling: work of one 2-respecting solve against
/// `m log m + n log^3 n`.
pub fn run_two_respect_scaling(sizes: &[usize], density: f64, seed: u64) -> Table {
    let mut t = Table::new([
        "n",
        "m",
        "cut queries",
        "total ops",
        "ops/(m·lg m + n·lg³n)",
        "wall ms",
    ]);
    for &n in sizes {
        let (g, tree_edges) = workloads::graph_with_tree(n, density, seed);
        let tree = RootedTree::from_edge_list(g.n(), &tree_edges, 0);
        let meter = Meter::enabled();
        let t0 = Instant::now();
        let out = two_respecting_mincut(&g, &tree, &TwoRespectParams::default(), &meter);
        let wall = t0.elapsed();
        assert!(out.cut.value > 0);
        let rep = meter.report();
        let m = g.m() as f64;
        let bound = m * (m.max(2.0)).log2() + n as f64 * lg(n).powi(3);
        t.row([
            n.to_string(),
            g.m().to_string(),
            fmt_count(rep.work_of(CostKind::CutQuery)),
            fmt_count(rep.total_work()),
            format!("{:.3}", rep.total_work() as f64 / bound),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
        ]);
    }
    t
}

/// E-3.1 — Theorem 3.1 quality: the constant-factor estimate and the
/// `(1±ε)` refinement against the true minimum cut.
pub fn run_approx_quality(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new([
        "workload",
        "true λ",
        "approx λ̂",
        "λ̂/λ",
        "(1±¼) λ̂",
        "refined/λ",
        "matula(2.25)/λ",
    ]);
    for &n in sizes {
        for w in [workloads::heavy(n, seed), workloads::planted(n, 4, seed)] {
            let g = w.graph;
            let truth = if g.n() <= 700 {
                stoer_wagner_mincut(&g).value
            } else {
                exact_mincut(&g, &ExactParams::default()).cut.value
            };
            let params = ApproxParams::default();
            let a = approx_mincut(&g, &params, &Meter::disabled());
            let refined = approx_mincut_eps(&g, 0.25, &params, seed ^ 5, &Meter::disabled());
            let matula = pmc_graph::matula_approx(&g, 0.25);
            t.row([
                w.name.clone(),
                truth.to_string(),
                a.lambda.to_string(),
                format!("{:.3}", a.lambda as f64 / truth as f64),
                refined.to_string(),
                format!("{:.3}", refined as f64 / truth as f64),
                format!("{:.3}", matula as f64 / truth as f64),
            ]);
        }
    }
    t
}

/// E-4.24/25 + E-4.26 — the ε knob: range-structure work profile and
/// end-to-end effect on one 2-respecting solve, dense vs sparse.
pub fn run_eps_sweep(n: usize, eps_values: &[f64], seed: u64) -> Table {
    let mut t = Table::new([
        "regime",
        "eps",
        "build ops",
        "query ops",
        "total ops",
        "wall ms",
    ]);
    for (regime, density) in [("dense", 0.8), ("sparse", 0.15)] {
        let (g, tree_edges) = workloads::graph_with_tree(n, density, seed);
        let tree = std::sync::Arc::new(RootedTree::from_edge_list(g.n(), &tree_edges, 0));
        for &eps in eps_values {
            let params = TwoRespectParams { eps, ..TwoRespectParams::default() };
            let build_meter = Meter::enabled();
            // Separate build cost: a bare CutQuery build.
            let lca = pmc_tree::LcaEngine::build(&tree, LcaStrategy::Lifting, &build_meter);
            let _q = pmc_mincut::CutQuery::build(&g, &tree, &lca, eps, &build_meter);
            let build_ops = build_meter.report().work_of(CostKind::RangeNode);

            let meter = Meter::enabled();
            let t0 = Instant::now();
            let out = two_respecting_mincut(&g, &tree, &params, &meter);
            let wall = t0.elapsed();
            assert!(out.cut.value > 0);
            let rep = meter.report();
            let query_ops = rep.work_of(CostKind::RangeNode).saturating_sub(build_ops);
            t.row([
                regime.to_string(),
                format!("{eps:.2}"),
                fmt_count(build_ops),
                fmt_count(query_ops),
                fmt_count(rep.total_work()),
                format!("{:.1}", wall.as_secs_f64() * 1e3),
            ]);
        }
    }
    t
}

/// E-depth — Brent-based depth estimate: `T_p = W/p + D` measured at
/// `p = 1` and `p = max` gives `D ≈ (p·T_p − T_1)/(p − 1)`; the theorem
/// predicts `D = O(log^3 n)`, so `D̂ / lg³ n` should flatten.
pub fn run_depth_scaling(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(["n", "m", "T1 ms", "Tp ms", "p", "D̂ ms", "D̂/lg³n (µs)"]);
    let p = rayon::current_num_threads().max(2);
    for &n in sizes {
        let w = workloads::non_sparse(n, seed);
        let g = w.graph;
        let run = |threads: usize| -> f64 {
            let pool =
                rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            pool.install(|| {
                let t0 = Instant::now();
                let r = exact_mincut(&g, &ExactParams::default());
                assert!(r.cut.value > 0);
                t0.elapsed().as_secs_f64() * 1e3
            })
        };
        // Warm up, then take the best of 2 to damp noise.
        let t1 = run(1).min(run(1));
        let tp = run(p).min(run(p));
        let d_hat = ((p as f64 * tp - t1) / (p as f64 - 1.0)).max(0.0);
        t.row([
            n.to_string(),
            g.m().to_string(),
            format!("{t1:.1}"),
            format!("{tp:.1}"),
            p.to_string(),
            format!("{d_hat:.1}"),
            format!("{:.1}", d_hat * 1e3 / lg(n).powi(3)),
        ]);
    }
    t
}

/// One timed run of the exact pipeline under a `p`-thread pool.
/// Returns `(wall ms, cut value)`.
fn timed_exact(g: &Graph, p: usize) -> (f64, u64) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(p).build().expect("pool");
    pool.install(|| {
        let t0 = Instant::now();
        let r = exact_mincut(g, &ExactParams::default());
        assert!(r.cut.value > 0);
        (t0.elapsed().as_secs_f64() * 1e3, r.cut.value)
    })
}

/// Metered cut-query count of one exact solve (the "metered queries"
/// field of the recorded benchmark trajectory).
pub fn metered_exact_queries(g: &Graph) -> u64 {
    let meter = Meter::enabled();
    let r = exact_metered(g, &meter);
    assert!(r.cut.value > 0);
    meter.report().work_of(CostKind::CutQuery)
}

/// The measured E-speedup scaling curve (wall per thread count plus the
/// metered query count), the data behind both the printed table and the
/// `BENCH_speedup*.json` records.
#[derive(Debug, Clone)]
pub struct SpeedupCurve {
    pub workload: String,
    pub n: usize,
    pub m: usize,
    /// `(threads, wall ms)`; the first entry is the `p = 1` baseline.
    pub runs: Vec<(usize, f64)>,
    pub queries: u64,
    pub value: u64,
}

impl SpeedupCurve {
    /// Wall speedup of the last (widest) run over the 1-thread baseline.
    pub fn final_speedup(&self) -> f64 {
        // INVARIANT: `runs` always starts with the p=1 baseline entry.
        self.runs[0].1 / self.runs.last().expect("speedup curve has a baseline run").1
    }
}

/// Measure the scaling curve on one workload. The baseline is an
/// *explicit* `p = 1` run (best of two, to damp noise and warm
/// caches), independent of whatever the `threads` list starts with;
/// the cut value must agree across all thread counts.
pub fn measure_speedup_curve(w: &workloads::Workload, threads: &[usize]) -> SpeedupCurve {
    let g = &w.graph;
    let (wall_a, value) = timed_exact(g, 1);
    let (wall_b, value_b) = timed_exact(g, 1);
    assert_eq!(value, value_b, "exact_mincut value unstable at p=1");
    let mut runs = vec![(1usize, wall_a.min(wall_b))];
    for &p in threads {
        let (wall, v) = timed_exact(g, p);
        assert_eq!(v, value, "exact_mincut value changed at p={p}");
        runs.push((p, wall));
    }
    let queries = metered_exact_queries(g);
    SpeedupCurve { workload: w.name.clone(), n: g.n(), m: g.m(), runs, queries, value }
}

/// E-speedup — Brent scheduling: wall time of the exact pipeline as the
/// thread count grows, on the uniform non-sparse workload.
pub fn run_speedup(n: usize, threads: &[usize], seed: u64) -> (Table, SpeedupCurve) {
    let w = workloads::non_sparse(n, seed);
    let curve = measure_speedup_curve(&w, threads);
    let mut t = Table::new(["threads", "wall ms", "speedup vs p=1"]);
    let t1 = curve.runs[0].1;
    t.row(["1 (baseline)".to_string(), format!("{t1:.1}"), "1.00x".to_string()]);
    for &(p, wall) in &curve.runs[1..] {
        t.row([p.to_string(), format!("{wall:.1}"), format!("{:.2}x", t1 / wall)]);
    }
    (t, curve)
}

/// E-speedup smoke probe: best-of-three `T_1` and `T_p` on the given
/// workload (minimum over repeats damps shared-runner noise, which a
/// single sample would turn into a flaky CI gate), with the cut-value
/// agreement check. Returns `(t1 ms, tp ms)`.
pub fn measure_speedup_workload(w: &workloads::Workload, p: usize) -> (f64, f64) {
    const SAMPLES: usize = 3;
    let g = &w.graph;
    let best = |threads: usize| -> (f64, u64) {
        let mut wall = f64::INFINITY;
        let mut value = None;
        for _ in 0..SAMPLES {
            let (w_ms, v) = timed_exact(g, threads);
            assert_eq!(
                *value.get_or_insert(v),
                v,
                "exact_mincut value unstable at p={threads}"
            );
            wall = wall.min(w_ms);
        }
        // INVARIANT: SAMPLES >= 1, so the loop above set `value`.
        (wall, value.expect("at least one sample ran"))
    };
    let (t1, v1) = best(1);
    let (tp, vp) = best(p);
    assert_eq!(v1, vp, "exact_mincut value must not depend on the thread count");
    (t1, tp)
}

/// [`measure_speedup_workload`] on the uniform non-sparse workload.
pub fn measure_speedup(n: usize, p: usize, seed: u64) -> (f64, f64) {
    measure_speedup_workload(&workloads::non_sparse(n, seed), p)
}

/// One measured pass of the `E-amortize` probe.
#[derive(Debug, Clone)]
pub struct AmortizeProbe {
    /// Edges of the (coalesced) workload graph.
    pub m: usize,
    /// Distinct packed trees solved per pass.
    pub trees: usize,
    /// Wall time of the rebuild-per-tree baseline (best of samples).
    pub rebuild_ms: f64,
    /// Wall time of the shared-context engine path (best of samples).
    pub shared_ms: f64,
    /// The cut value (must agree between the two modes).
    pub value: u64,
}

impl AmortizeProbe {
    pub fn speedup(&self) -> f64 {
        self.rebuild_ms / self.shared_ms
    }
}

/// The pre-engine tree-context build profile: every sub-build
/// back-to-back on a fresh one-thread pool. The rebuild-per-tree
/// baseline of [`measure_amortize`].
fn build_sequential<'g>(
    g: &'g Graph,
    tree: Arc<RootedTree>,
    params: &TwoRespectParams,
    meter: &Meter,
) -> TreeContext<'g> {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    pool.install(|| TreeContext::build(g, tree, params, meter))
}

/// E-amortize — the two-level engine's Phase 5 profile on one fixed
/// tree packing:
///
/// * **rebuild-per-tree** (the pre-engine cost model, replicated
///   faithfully): one coalesce + connectivity check + degree scan per
///   solve invocation — what `exact_mincut` paid once around its Phase
///   5 loop — then, per packed tree, the tree-lifetime structures built
///   back-to-back on one thread (the old `two_respecting_mincut`
///   profile: LCA, then cut-query structure, then path decomposition,
///   then interest engine, sequentially).
/// * **shared-context**: one [`GraphContext`] for the whole loop, one
///   [`TreeContext`] per tree with its sub-builds forked under
///   `rayon::join`.
///
/// Both modes solve the same trees with the same (parallel) query
/// stages and must produce the same cut value; only construction
/// differs. Best-of-samples per mode damps shared-runner noise.
pub fn measure_amortize(n: usize, seed: u64) -> AmortizeProbe {
    const SAMPLES: usize = 3;
    let g = workloads::non_sparse(n, seed).graph;
    let m = Meter::disabled();
    let params = TwoRespectParams::default();
    // A bounded packing: the experiment measures per-tree context cost,
    // not packing cost, so a handful of distinct trees is enough.
    let packing = PackingParams {
        iterations_factor: 1.0,
        min_iterations: 8,
        max_iterations: 32,
        trees_factor: 1.0,
        min_trees: 8,
    };
    let (graph_m, trees) = {
        let ctx = GraphContext::build(&g, &m);
        (ctx.m(), greedy_tree_packing(ctx.graph(), &packing, &m))
    };

    let rebuild_pass = || -> (f64, u64) {
        let t0 = Instant::now();
        // The pre-engine per-invocation prelude: coalesce, one
        // connectivity pass, and (at the end) the min-degree scan —
        // shared across the invocation's trees, exactly as the old
        // Phase 5 loop shared `gc`.
        let gc = g.coalesced();
        assert!(gc.is_connected());
        let mut best = CutResult::infinite();
        for edges in &trees {
            let tree = Arc::new(RootedTree::from_edge_list(gc.n(), edges, 0));
            let tc = build_sequential(&gc, tree, &params, &m);
            best = best.min(tc.solve(&m).cut);
        }
        let (v, d) = gc.min_weighted_degree_vertex();
        best = best.min(CutResult { value: d, side: vec![v] });
        (t0.elapsed().as_secs_f64() * 1e3, best.value)
    };
    let shared_pass = || -> (f64, u64) {
        let t0 = Instant::now();
        let ctx = GraphContext::build(&g, &m);
        let mut best = CutResult::infinite();
        for edges in &trees {
            let tc = TreeContext::from_edges(ctx.graph(), edges, 0, &params, &m);
            best = best.min(tc.solve(&m).cut);
        }
        best = best.min(ctx.min_degree_cut());
        (t0.elapsed().as_secs_f64() * 1e3, best.value)
    };

    let best_of = |pass: &dyn Fn() -> (f64, u64)| -> (f64, u64) {
        let mut wall = f64::INFINITY;
        let mut value = None;
        for _ in 0..SAMPLES {
            let (w, v) = pass();
            assert_eq!(*value.get_or_insert(v), v, "cut value unstable across samples");
            wall = wall.min(w);
        }
        // INVARIANT: SAMPLES >= 1, so the loop above set `value`.
        (wall, value.expect("at least one sample ran"))
    };
    let (rebuild_ms, v_rebuild) = best_of(&rebuild_pass);
    let (shared_ms, v_shared) = best_of(&shared_pass);
    assert_eq!(v_rebuild, v_shared, "rebuild and shared modes must agree on the cut");
    AmortizeProbe { m: graph_m, trees: trees.len(), rebuild_ms, shared_ms, value: v_rebuild }
}

/// E-amortize table across sizes.
pub fn run_amortize(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(["n", "m", "trees", "rebuild ms", "shared ms", "shared speedup"]);
    for &n in sizes {
        let probe = measure_amortize(n, seed);
        t.row([
            n.to_string(),
            probe.m.to_string(),
            probe.trees.to_string(),
            format!("{:.1}", probe.rebuild_ms),
            format!("{:.1}", probe.shared_ms),
            format!("{:.2}x", probe.speedup()),
        ]);
    }
    t
}

/// Headline numbers of one E-ablate run: the default variant against
/// the naive all-pairs baseline (the pair the recorded trajectory
/// tracks), plus the substrate gauges the O(1)-query acceptance
/// criteria read (metered Monge entry evaluations per row-minima
/// engine, metered LCA steps per LCA substrate).
#[derive(Debug, Clone)]
pub struct AblationSummary {
    pub n: usize,
    pub m: usize,
    /// Wall and metered cut queries of the default variant.
    pub default_wall_ms: f64,
    pub default_queries: u64,
    /// Wall of the naive all-pairs baseline.
    pub naive_wall_ms: f64,
    /// Metered `MongeEntry` evaluations under SMAWK (the default) and
    /// under divide-and-conquer row minima — the pair the `--smoke`
    /// gate compares.
    pub smawk_monge_entries: u64,
    pub dc_monge_entries: u64,
    /// Metered `LcaStep` charges under the sparse-table substrate (one
    /// per query — the O(1) evidence) and under binary lifting
    /// (`levels()` per query, so it grows with depth).
    pub sparse_lca_steps: u64,
    pub lifting_lca_steps: u64,
}

/// E-ablate — design ablations on one fixed workload: interest-search
/// decomposition strategy (centroid vs heavy-path, metered side by
/// side), path decomposition, Monge engine (SMAWK vs divide-and-
/// conquer, `monge entries`), LCA substrate (sparse-table vs lifting,
/// `lca steps`), ε, and the no-filter baseline. The `interest qs`
/// column isolates the cut/coverage queries the arm tracing issues —
/// the quantity Claim 4.13 bounds.
pub fn run_ablation(n: usize, seed: u64) -> (Table, AblationSummary) {
    let (g, tree_edges) = workloads::graph_with_tree(n, 0.5, seed);
    let tree = RootedTree::from_edge_list(g.n(), &tree_edges, 0);
    let mut t = Table::new([
        "variant",
        "cut queries",
        "interest qs",
        "monge entries",
        "lca steps",
        "total ops",
        "wall ms",
    ]);
    let reference = naive_value(&g, &tree);
    // Per variant: (wall ms, cut queries, monge entries, lca steps).
    let mut run = |name: &str, params: TwoRespectParams| -> (f64, u64, u64, u64) {
        let meter = Meter::enabled();
        let t0 = Instant::now();
        let out = two_respecting_mincut(&g, &tree, &params, &meter);
        let wall = t0.elapsed();
        assert_eq!(out.cut.value, reference, "{name} disagrees with the oracle");
        let rep = meter.report();
        t.row([
            name.to_string(),
            fmt_count(rep.work_of(CostKind::CutQuery)),
            fmt_count(rep.work_of(CostKind::InterestQuery)),
            fmt_count(rep.work_of(CostKind::MongeEntry)),
            fmt_count(rep.work_of(CostKind::LcaStep)),
            fmt_count(rep.total_work()),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
        ]);
        (
            wall.as_secs_f64() * 1e3,
            rep.work_of(CostKind::CutQuery),
            rep.work_of(CostKind::MongeEntry),
            rep.work_of(CostKind::LcaStep),
        )
    };
    let (default_wall_ms, default_queries, smawk_monge_entries, sparse_lca_steps) =
        run("centroid + SMAWK + sparse LCA (default)", TwoRespectParams::default());
    run(
        "heavy-path interest + SMAWK",
        TwoRespectParams {
            interest_strategy: InterestStrategy::HeavyPath,
            ..TwoRespectParams::default()
        },
    );
    run(
        "bough + SMAWK",
        TwoRespectParams { strategy: PathStrategy::Bough, ..TwoRespectParams::default() },
    );
    let (_, _, dc_monge_entries, _) = run(
        "centroid + D&C monge",
        TwoRespectParams {
            monge_algo: RowMinimaStrategy::DivideConquer,
            ..TwoRespectParams::default()
        },
    );
    let (_, _, _, lifting_lca_steps) = run(
        "centroid + lifting LCA",
        TwoRespectParams { lca_strategy: LcaStrategy::Lifting, ..TwoRespectParams::default() },
    );
    run("eps = 0.10", TwoRespectParams { eps: 0.10, ..TwoRespectParams::default() });
    run("eps = 0.75", TwoRespectParams { eps: 0.75, ..TwoRespectParams::default() });
    // The no-structure baseline.
    let naive_wall_ms = {
        let meter = Meter::enabled();
        let t0 = Instant::now();
        let out = naive_two_respecting(&g, &tree, 0.25, &meter);
        let wall = t0.elapsed();
        assert_eq!(out.cut.value, reference);
        let rep = meter.report();
        t.row([
            "naive all-pairs (no filter)".to_string(),
            fmt_count(rep.work_of(CostKind::CutQuery)),
            fmt_count(rep.work_of(CostKind::InterestQuery)),
            fmt_count(rep.work_of(CostKind::MongeEntry)),
            fmt_count(rep.work_of(CostKind::LcaStep)),
            fmt_count(rep.total_work()),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
        ]);
        wall.as_secs_f64() * 1e3
    };
    let summary = AblationSummary {
        n: g.n(),
        m: g.m(),
        default_wall_ms,
        default_queries,
        naive_wall_ms,
        smawk_monge_entries,
        dc_monge_entries,
        sparse_lca_steps,
        lifting_lca_steps,
    };
    (t, summary)
}

fn naive_value(g: &Graph, tree: &RootedTree) -> u64 {
    naive_two_respecting(g, tree, 0.25, &Meter::disabled()).cut.value
}

/// E-4.18 — packing statistics on planted-cut workloads: tree counts and
/// whether the packing contains a tree that 2-respects the optimum.
pub fn run_packing_stats(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new([
        "workload",
        "iterations",
        "distinct trees",
        "2-respecting trees",
        "min crossings",
    ]);
    for &n in sizes {
        let w = workloads::planted(n, 4, seed);
        let g = w.graph;
        let packing = PackingParams::default();
        let trees = greedy_tree_packing(&g.coalesced(), &packing, &Meter::disabled());
        // The planted optimum: first half vs second half.
        let half = g.n() / 2;
        let crossings: Vec<usize> = trees
            .iter()
            .map(|tr| {
                tr.iter()
                    .filter(|&&(u, v)| ((u as usize) < half) != ((v as usize) < half))
                    .count()
            })
            .collect();
        let two_respecting = crossings.iter().filter(|&&c| c <= 2).count();
        t.row([
            w.name.clone(),
            packing.iterations(g.n()).to_string(),
            trees.len().to_string(),
            two_respecting.to_string(),
            crossings.iter().min().unwrap_or(&0).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_runs_small() {
        let t = run_table1(&[48, 64], 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn two_respect_scaling_runs() {
        let t = run_two_respect_scaling(&[64], 0.5, 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn approx_quality_runs() {
        let t = run_approx_quality(&[20], 3);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn eps_sweep_runs() {
        let t = run_eps_sweep(64, &[0.2, 0.8], 4);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn ablation_runs_and_agrees() {
        let (t, summary) = run_ablation(48, 5);
        assert_eq!(t.len(), 8);
        assert_eq!(summary.n, 48);
        assert!(summary.default_wall_ms > 0.0 && summary.naive_wall_ms > 0.0);
        assert!(summary.default_queries > 0);
        // Substrate gauges: SMAWK never pays more distinct entries than
        // divide-and-conquer (strictness is the --smoke gate's job at a
        // size where blocks are big enough), and the sparse table's
        // one-step queries cost strictly fewer LCA steps than lifting's
        // levels()-per-query on the same query stream.
        assert!(summary.smawk_monge_entries > 0);
        assert!(summary.smawk_monge_entries <= summary.dc_monge_entries);
        assert!(summary.sparse_lca_steps > 0);
        assert!(summary.sparse_lca_steps < summary.lifting_lca_steps);
    }

    #[test]
    fn speedup_curve_has_baseline_and_queries() {
        let w = workloads::non_sparse(64, 9);
        let curve = measure_speedup_curve(&w, &[2]);
        assert_eq!(curve.runs[0].0, 1, "first entry is the p=1 baseline");
        assert_eq!(curve.runs.len(), 2);
        assert!(curve.queries > 0);
        assert!(curve.final_speedup() > 0.0);
        assert_eq!(curve.n, 64);
    }

    #[test]
    fn packing_stats_runs() {
        let t = run_packing_stats(&[32], 6);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn amortize_probe_modes_agree() {
        // The value-agreement asserts live inside measure_amortize.
        let probe = measure_amortize(96, 7);
        assert!(probe.trees >= 1);
        assert!(probe.value > 0);
        assert!(probe.rebuild_ms > 0.0 && probe.shared_ms > 0.0);
    }
}
