//! E-depth (structural) — the critical-path gauges recorded by the
//! meters during one exact run: packing iterations (`O(log² n)`),
//! hierarchy levels (`<= log W`), range-tree height (`O(1/ε)`), and the
//! deepest packed-tree height. These are the quantities the depth
//! theorems bound, reported directly rather than via Brent inversion
//! (useful on low-core hosts; see EXPERIMENTS.md).
//!
//! `cargo run -p pmc-bench --release --bin gauges [full]`

use pmc_bench::workloads;
use pmc_bench::Table;
use pmc_mincut::{exact_mincut_in, Deadline, ExactParams, GraphContext};
use pmc_parallel::Meter;

fn main() {
    let full = std::env::args().any(|a| a == "full");
    let sizes: &[usize] = if full { &[128, 256, 512, 1024, 2048] } else { &[128, 256, 512] };
    let mut t = Table::new([
        "n",
        "lg²n",
        "packing iters",
        "hierarchy levels",
        "range height",
        "tree height",
        "graph build",
        "tree build",
    ]);
    for &n in sizes {
        let w = workloads::non_sparse(n, 99);
        let meter = Meter::enabled();
        let ctx = GraphContext::build(&w.graph, &meter);
        let r = exact_mincut_in(&ctx, &ExactParams::default(), &Deadline::never(), &meter);
        assert!(r.cut.value > 0);
        let rep = meter.report();
        let get = |k: &str| rep.depth.get(k).copied().unwrap_or(0).to_string();
        let lg = (n as f64).log2();
        t.row([
            n.to_string(),
            format!("{:.0}", lg * lg),
            get("packing:iterations"),
            get("approx:hierarchy_levels"),
            get("cutquery:range_height"),
            get("two_respect:tree_height"),
            get("engine:graph_build"),
            get("engine:tree_build"),
        ]);
    }
    t.print("Structural depth gauges (each bounded by the claimed polylog)");
    println!(
        "\nReading guide: packing iterations track lg²n; hierarchy levels are bounded by\n\
         lg(total weight); range height is O(1/ε) (constant in n at fixed ε); tree height\n\
         is the per-tree critical path of the cut-finding stage (max over packed trees);\n\
         graph/tree build are the engine's construction critical paths (DESIGN.md §8),\n\
         attributed separately from query depth."
    );
}
