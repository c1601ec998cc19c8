//! The benchmark's workloads and their seeded set-up.
//!
//! The seed is the benchmark's argument; the solver only ever sees the
//! generated graph (and, for the query phase, a spanning tree and pair
//! batches drawn from the same seed).

use crate::check::Regime;
use pmc_bench::workloads;
use pmc_graph::{stoer_wagner_mincut, Graph};
use pmc_parallel::spanning_forest::spanning_forest;
use pmc_parallel::Meter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Pairs per `cut_batch_into` call.
pub const BATCH: usize = 20_000;
/// Distinct pre-drawn batches the query loop cycles through.
const BATCHES_DRAWN: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `workloads::non_sparse`, m ≈ n^1.5: the paper's target regime.
    NonSparse,
    /// `workloads::heavy`, a heavy cycle with chords: skeleton sampling engages.
    Heavy,
    /// One non-sparse graph with a spanning tree, queried in batches.
    Query,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::NonSparse, Kind::Heavy, Kind::Query];

    pub fn name(self) -> &'static str {
        match self {
            Kind::NonSparse => "nonsparse",
            Kind::Heavy => "heavy",
            Kind::Query => "query",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Vertices of the generated graph.
    pub fn n(self) -> usize {
        match self {
            Kind::NonSparse => 300,
            Kind::Heavy => 400,
            Kind::Query => 2000,
        }
    }

    /// The sampling regime the solve workloads must stay in; `None`
    /// for the query workload, which never runs `exact_mincut`.
    pub fn regime(self) -> Option<Regime> {
        match self {
            Kind::NonSparse => Some(Regime::Unsampled),
            Kind::Heavy => Some(Regime::Sampled),
            Kind::Query => None,
        }
    }
}

/// Everything a run needs, derived from the seed alone.
pub struct Inputs {
    pub graph: Graph,
    /// Edges of a spanning tree of `graph` (the query phase's tree).
    pub tree: Vec<(u32, u32)>,
    /// Pre-drawn request batches: `BATCH` pairs each, drawn with
    /// duplicates from a hot set of `n / 2` pairs.
    pub batches: Vec<Vec<(u32, u32)>>,
    /// Stoer–Wagner minimum cut, the solve workloads' reference.
    pub reference: Option<u64>,
    /// Wall time of the Stoer–Wagner reference.
    pub stoer_wagner_s: f64,
}

/// Generate the workload, compute its reference, and draw the pairs.
pub fn setup(kind: Kind, seed: u64) -> Inputs {
    let n = kind.n();
    let (graph, tree) = match kind {
        Kind::NonSparse => with_tree(workloads::non_sparse(n, seed).graph),
        Kind::Heavy => with_tree(workloads::heavy(n, seed).graph),
        Kind::Query => workloads::graph_with_tree(n, 0.5, seed),
    };
    let (reference, stoer_wagner_s) = if kind.regime().is_some() {
        let t = Instant::now();
        let value = stoer_wagner_mincut(&graph).value;
        (Some(value), t.elapsed().as_secs_f64())
    } else {
        (None, 0.0)
    };
    let batches = draw_batches(n as u32, seed);
    Inputs {
        graph,
        tree,
        batches,
        reference,
        stoer_wagner_s,
    }
}

fn with_tree(graph: Graph) -> (Graph, Vec<(u32, u32)>) {
    let tree = spanning_forest(&graph, &Meter::disabled())
        .iter()
        .map(|&i| {
            let e = graph.edge(i as usize);
            (e.u, e.v)
        })
        .collect();
    (graph, tree)
}

fn draw_batches(n: u32, seed: u64) -> Vec<Vec<(u32, u32)>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A1E_5EED);
    let hot: Vec<(u32, u32)> = (0..(n / 2).max(8))
        .map(|_| (rng.random_range(1..n), rng.random_range(1..n)))
        .collect();
    (0..BATCHES_DRAWN)
        .map(|_| {
            (0..BATCH)
                .map(|_| hot[rng.random_range(0..hot.len())])
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn batches_are_seeded() {
        assert_eq!(draw_batches(100, 7), draw_batches(100, 7));
        assert_ne!(draw_batches(100, 7), draw_batches(100, 8));
        let b = draw_batches(100, 7);
        assert!(b.iter().all(|batch| batch.len() == BATCH));
        assert!(b
            .iter()
            .flatten()
            .all(|&(e, f)| (1..100).contains(&e) && (1..100).contains(&f)));
    }
}
