//! The traced run: the exact pipeline rebuilt from its public phase
//! functions, and the query session, with a span around every call into
//! a layer and enabled meters read around the calls whose work counts
//! are reported. Every per-layer metric is measured here, from outside
//! the solver.

use crate::trace::{child, child_sum_max, covered_secs, SpanId, Tracer};
use crate::workload::Inputs;
use pmc_graph::{CutResult, Graph};
use pmc_mincut::engine::{GraphContext, TreeContext};
use pmc_mincut::{
    greedy_tree_packing, mincut_small_in, ApproxParams, ExactParams, TwoRespectParams,
};
use pmc_parallel::{CostKind, Meter};
use pmc_sparsify::certificate::k_certificate;
use pmc_sparsify::hierarchy::{CertificateHierarchy, ExclusiveHierarchy};
use pmc_sparsify::skeleton::{skeleton, skeleton_probability};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Per-layer metric values of one traced run, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What the traced pipeline computed, for comparison with the untraced
/// `exact_mincut` of the same input.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub cut: CutResult,
    pub lambda_estimate: u64,
    pub skeleton_p: f64,
    pub num_trees: usize,
}

pub struct TracedRun<T> {
    pub outcome: T,
    pub wall_s: f64,
    pub layers: Layers,
}

/// `exact_mincut` phase by phase, in the library's order and with its
/// parameters, so the result must equal the untraced call's.
pub fn exact_pipeline(
    g: &Graph,
    params: &ExactParams,
    tr: &Tracer,
    run: u32,
) -> TracedRun<Outcome> {
    let mut layers = Layers::new();
    let (root, outcome) = tr.span("exact_mincut", None, run, |root| {
        (root, phases(g, params, tr, run, root, &mut layers))
    });
    let spans = tr.snapshot();
    let secs =
        |parent: SpanId, name: &str| child(&spans, parent, name).map_or(0.0, |id| spans[id].secs());
    layers.insert("engine.graph_build_s", secs(root, "engine.graph_build"));
    if let Some(a) = child(&spans, root, "approx") {
        let (sum, max) = child_sum_max(&spans, a, "approx.layer_solve");
        layers.insert("approx.s", spans[a].secs());
        layers.insert("approx.hierarchy_s", secs(a, "approx.hierarchy"));
        layers.insert("approx.layer_solves_s", sum);
        layers.insert("approx.layer_solve_max_s", max);
    }
    layers.insert("sparsify.skeleton_s", secs(root, "sparsify.skeleton"));
    layers.insert("sparsify.certificate_s", secs(root, "sparsify.certificate"));
    layers.insert("packing.s", secs(root, "packing"));
    if let Some(t) = child(&spans, root, "trees") {
        let (build_sum, build_max) = child_sum_max(&spans, t, "engine.tree_build");
        let (solve_sum, solve_max) = child_sum_max(&spans, t, "two_respect.solve");
        layers.insert("engine.tree_build_s", build_sum);
        layers.insert("engine.tree_build_max_s", build_max);
        layers.insert("two_respect.s", solve_sum);
        layers.insert("two_respect.max_s", solve_max);
    }
    let wall_s = spans[root].secs();
    layers.insert("trace.coverage", covered_secs(&spans, root) / wall_s);
    TracedRun {
        outcome,
        wall_s,
        layers,
    }
}

fn phases(
    g: &Graph,
    params: &ExactParams,
    tr: &Tracer,
    run: u32,
    root: SpanId,
    layers: &mut Layers,
) -> Outcome {
    let off = Meter::disabled();
    let ctx = tr.span("engine.graph_build", Some(root), run, |_| {
        GraphContext::build(g, &off)
    });
    if let Some(cut) = ctx.trivial_cut() {
        return Outcome {
            cut,
            lambda_estimate: 0,
            skeleton_p: 0.0,
            num_trees: 0,
        };
    }
    let gc = ctx.graph();

    // Phase 1: the §3 approximation.
    let lambda_estimate = match params.lambda_hint {
        Some(l) => l.max(1),
        None => {
            let (lambda, num_layers, chosen) = tr.span("approx", Some(root), run, |id| {
                approx(&ctx, &params.approx, tr, run, id)
            });
            layers.insert("approx.layers", num_layers as f64);
            layers.insert("approx.layer_chosen", chosen as f64);
            (lambda / 2).max(1)
        }
    };
    let (n, eps, c) = (gc.n(), params.skeleton_eps, params.skeleton_c);
    let p_min_degree = skeleton_probability(n, eps, ctx.min_degree_cut().value.max(1), c);
    let p_estimate = skeleton_probability(n, eps, lambda_estimate, c);
    layers.insert(
        "approx.p_changed",
        f64::from(u8::from(p_estimate != p_min_degree)),
    );

    // Phases 2 and 3: skeleton (re-sampled denser while disconnected)
    // and certificate.
    let meter = Meter::enabled();
    let cap = (8.0 * (c * (n.max(2) as f64).ln() / (eps * eps)).ceil()) as u64;
    let (h, p, retries) = tr.span("sparsify.skeleton", Some(root), run, |_| {
        let mut p = p_estimate;
        let mut h = skeleton(gc, p, cap, params.seed, &meter);
        let mut retries = 0;
        while !h.is_connected() && p < 1.0 {
            p = (p * 2.0).min(1.0);
            retries += 1;
            h = skeleton(gc, p, cap, params.seed.wrapping_add(retries), &meter);
        }
        (h, p, retries)
    });
    layers.insert("sparsify.skeleton_p", p);
    layers.insert("sparsify.skeleton_retries", retries as f64);
    layers.insert("sparsify.kept_frac", h.m() as f64 / gc.m() as f64);
    let hc = tr.span("sparsify.certificate", Some(root), run, |_| {
        k_certificate(&h, 2 * cap, &meter)
    });
    layers.insert("sparsify.certificate_weight", hc.total_weight() as f64);

    // Phase 4: greedy packing.
    let mst_before = meter.get(CostKind::MstEdge);
    let trees = tr.span("packing", Some(root), run, |_| {
        greedy_tree_packing(&hc, &params.packing, &meter)
    });
    layers.insert("packing.trees", trees.len() as f64);
    layers.insert(
        "packing.mst_edges",
        (meter.get(CostKind::MstEdge) - mst_before) as f64,
    );

    // Phase 5: per tree, build its context and solve, in parallel.
    let tr_params = TwoRespectParams {
        interest_strategy: params.interest_strategy,
        ..params.two_respect
    };
    let solve_meter = Meter::enabled();
    let tree_cuts: Vec<CutResult> = tr.span("trees", Some(root), run, |id| {
        trees
            .par_iter()
            .map(|edges| {
                let tc = tr.span("engine.tree_build", Some(id), run, |_| {
                    TreeContext::from_edges(gc, edges, 0, &tr_params, &off)
                });
                tr.span("two_respect.solve", Some(id), run, |_| {
                    tc.solve(&solve_meter).cut
                })
            })
            .collect()
    });
    let count = |kind| solve_meter.get(kind) as f64;
    let queries = count(CostKind::CutQuery);
    layers.insert("two_respect.cut_queries", queries);
    layers.insert(
        "two_respect.interest_queries",
        count(CostKind::InterestQuery),
    );
    layers.insert("two_respect.monge_entries", count(CostKind::MongeEntry));
    layers.insert(
        "cutquery.range_nodes_per_query",
        count(CostKind::RangeNode) / queries.max(1.0),
    );
    layers.insert(
        "cutquery.lca_steps_per_query",
        count(CostKind::LcaStep) / queries.max(1.0),
    );

    let num_trees = tree_cuts.len();
    let cut = tree_cuts
        .iter()
        .cloned()
        .fold(CutResult::infinite(), CutResult::min)
        .min(ctx.min_degree_cut());
    let at_min = tree_cuts.iter().filter(|t| t.value == cut.value).count();
    layers.insert(
        "two_respect.trees_at_min_frac",
        at_min as f64 / num_trees.max(1) as f64,
    );
    Outcome {
        cut,
        lambda_estimate,
        skeleton_p: p,
        num_trees,
    }
}

/// `approx_mincut_in`, one span per hierarchy layer solve. Returns the
/// estimate, the number of layers, and the layer chosen.
fn approx(
    ctx: &GraphContext<'_>,
    params: &ApproxParams,
    tr: &Tracer,
    run: u32,
    id: SpanId,
) -> (u64, usize, usize) {
    if ctx.n() < 2 || !ctx.is_connected() {
        return (if ctx.n() < 2 { u64::MAX } else { 0 }, 0, 0);
    }
    let off = Meter::disabled();
    let g = ctx.graph();
    let certs = tr.span("approx.hierarchy", Some(id), run, |_| {
        let hierarchy = ExclusiveHierarchy::build(g, &params.hierarchy, &off);
        CertificateHierarchy::build(g, &hierarchy, &params.hierarchy, &off)
    });
    let values: Vec<u64> = (0..certs.num_levels())
        .into_par_iter()
        .map(|i| {
            tr.span("approx.layer_solve", Some(id), run, |_| {
                let uctx = GraphContext::adopt(certs.union_graph(g, i), &off);
                let c = mincut_small_in(&uctx, &params.two_respect, &params.packing, &off);
                if c.value == u64::MAX {
                    0
                } else {
                    c.value
                }
            })
        })
        .collect();
    let low = params.window_low(g.n());
    match values.iter().rposition(|&v| v >= low) {
        Some(s) => (values[s] << s, values.len(), s),
        None => (values.first().copied().unwrap_or(0), values.len(), 0),
    }
}

/// What a query session answered: the tree's minimum 2-respecting cut
/// and a checksum over every batch answer.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    pub cut: CutResult,
    pub checksum: u64,
}

/// Fold one batch's answers into a session checksum.
pub fn fold_checksum(acc: u64, out: &[u64]) -> u64 {
    out.iter()
        .fold(acc, |h, &v| (h ^ v).wrapping_mul(0x0100_0000_01B3))
}

/// The query workload's calls — context builds, one tree solve, then
/// `batches` batches — each inside a span.
pub fn query_session(
    inputs: &Inputs,
    batches: usize,
    tr: &Tracer,
    run: u32,
) -> TracedRun<SessionOutcome> {
    let off = Meter::disabled();
    let solve_meter = Meter::enabled();
    let batch_meter = Meter::enabled();
    let g = &inputs.graph;
    let (root, outcome, pairs) = tr.span("query_session", None, run, |root| {
        let _ctx = tr.span("engine.graph_build", Some(root), run, |_| {
            GraphContext::build(g, &off)
        });
        let tc = tr.span("engine.tree_build", Some(root), run, |_| {
            TreeContext::from_edges(g, &inputs.tree, 0, &TwoRespectParams::default(), &off)
        });
        let cut = tr.span("two_respect.solve", Some(root), run, |_| {
            tc.solve(&solve_meter).cut
        });
        let (checksum, pairs) = tr.span("cutquery.batches", Some(root), run, |_| {
            let mut out = Vec::new();
            let (mut checksum, mut pairs) = (0, 0);
            for batch in inputs.batches.iter().cycle().take(batches) {
                tc.cut_batch_into(batch, &mut out, &batch_meter);
                checksum = fold_checksum(checksum, &out);
                pairs += batch.len();
            }
            (checksum, pairs)
        });
        (root, SessionOutcome { cut, checksum }, pairs)
    });
    let spans = tr.snapshot();
    let secs = |name: &str| child(&spans, root, name).map_or(0.0, |id| spans[id].secs());
    let mut layers = Layers::new();
    let build = secs("engine.tree_build");
    layers.insert("engine.graph_build_s", secs("engine.graph_build"));
    layers.insert("engine.tree_build_s", build);
    layers.insert("engine.tree_build_max_s", build);
    layers.insert("two_respect.s", secs("two_respect.solve"));
    layers.insert("two_respect.max_s", secs("two_respect.solve"));
    layers.insert(
        "two_respect.cut_queries",
        solve_meter.get(CostKind::CutQuery) as f64,
    );
    layers.insert(
        "two_respect.interest_queries",
        solve_meter.get(CostKind::InterestQuery) as f64,
    );
    layers.insert(
        "two_respect.monge_entries",
        solve_meter.get(CostKind::MongeEntry) as f64,
    );
    layers.insert("two_respect.trees_at_min_frac", 1.0);
    let distinct = batch_meter.get(CostKind::CutQuery) as f64;
    layers.insert(
        "cutquery.range_nodes_per_query",
        batch_meter.get(CostKind::RangeNode) as f64 / distinct.max(1.0),
    );
    layers.insert(
        "cutquery.lca_steps_per_query",
        batch_meter.get(CostKind::LcaStep) as f64 / distinct.max(1.0),
    );
    layers.insert(
        "cutquery.distinct_pair_frac",
        distinct / pairs.max(1) as f64,
    );
    let wall_s = spans[root].secs();
    layers.insert("trace.coverage", covered_secs(&spans, root) / wall_s);
    TracedRun {
        outcome,
        wall_s,
        layers,
    }
}
