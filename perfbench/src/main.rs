//! Benchmark of the exact minimum-cut solver and its batched cut queries.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nonsparse|heavy|query> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One caller, a closed loop: each call starts when the previous one
//! has returned. `--trace 0` times the public API with tracing off, on
//! one thread, and prints the end-to-end metrics; `--trace 1` runs the
//! traced pipeline in a rayon pool as wide as the machine's hardware
//! threads (and again on one thread) and prints the per-layer metrics. Every answer is checked;
//! the last stdout line is the JSON result, and the exit code is
//! non-zero when any answer was wrong. See `perfbench/README.md`.

mod check;
mod report;
mod timed;
mod trace;
mod traced;
mod workload;

use check::Checker;
use pmc_mincut::engine::{GraphContext, TreeContext};
use pmc_mincut::{exact_mincut, ExactParams, TwoRespectParams};
use pmc_parallel::Meter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use report::{median, object, quote};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use timed::timed;
use trace::Tracer;
use workload::{Inputs, Kind};

/// Batches inside one traced query session.
const TRACED_BATCHES: usize = 200;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child processes of an untraced run (see `timed`).
    part: Option<usize>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = std::env::args().skip(1);
        let (mut kind, mut seed, mut seconds, mut trace, mut part) = (None, None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .map_err(|_| format!("bad seconds {value}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                "--part" => part = Some(value.parse().map_err(|_| format!("bad part {value}"))?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} outside (0, 600]"));
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
            part,
        })
    }
}

/// The input facts every result is stamped with.
#[derive(Debug, Clone, Default)]
pub struct Stamp {
    pub n: usize,
    pub m: usize,
    pub min_degree: u64,
    /// The Stoer–Wagner minimum cut, where the workload computes it.
    pub lambda: Option<u64>,
}

impl Stamp {
    pub fn of(inputs: &Inputs) -> Stamp {
        let g = &inputs.graph;
        Stamp {
            n: g.n(),
            m: g.m(),
            min_degree: g.min_weighted_degree(),
            lambda: inputs.reference,
        }
    }
}

/// What a run measured.
struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    checker: Checker,
    stamp: Stamp,
    spans: Option<Vec<trace::Span>>,
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <nonsparse|heavy|query> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check::self_test() {
        eprintln!("error: checker self-test failed: {e}");
        return ExitCode::from(3);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The traced run's pool: the default width, capped at the hardware
    // thread count.
    let width = rayon::current_num_threads().clamp(1, nproc);
    if let Some(part) = args.part {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(timed::POOL_WIDTH)
            .build()
            .expect("a pool of width >= 1 always builds");
        let seed = timed::part_seed(args.seed, part);
        let samples = pool.install(|| timed::part(args.kind, seed, args.seconds));
        println!("{}", samples.encode());
        return ExitCode::SUCCESS;
    }

    let diag_before = rayon::pool_diagnostics();
    let (out, pool_width, mut quarantined) = if args.trace {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("a pool of width >= 1 always builds");
        (pool.install(|| traced_run(&args, width)), width, 0)
    } else {
        match timed::run(args.kind, args.seed, args.seconds) {
            Ok(p) => (
                Outcome {
                    metrics: p.metrics,
                    checker: p.checker,
                    stamp: p.stamp,
                    spans: None,
                },
                timed::POOL_WIDTH,
                p.quarantined,
            ),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(5);
            }
        }
    };
    let diag_after = rayon::pool_diagnostics();
    quarantined += diag_after
        .workers_quarantined
        .saturating_sub(diag_before.workers_quarantined) as u64;
    let mut metrics = out.metrics;
    metrics.insert("rayon.threads", width as f64);
    metrics.insert("rayon.workers_quarantined", quarantined as f64);
    metrics.insert("check.fail_frac", out.checker.fail_frac());

    let s = &out.stamp;
    let diag = |d: &rayon::PoolDiagnostics| {
        object(&[
            ("workers_live", d.workers_live.to_string()),
            ("workers_quarantined", d.workers_quarantined.to_string()),
        ])
    };
    let env = object(&[
        ("workload", quote(args.kind.name())),
        ("seed", args.seed.to_string()),
        (
            "input_seeds",
            format!(
                "{:?}",
                (0..if args.trace { 1 } else { timed::PARTS })
                    .map(|p| timed::part_seed(args.seed, p))
                    .collect::<Vec<_>>()
            ),
        ),
        ("seconds", format!("{:?}", args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        (
            "processes",
            if args.trace { 1 } else { timed::PARTS }.to_string(),
        ),
        ("nproc", nproc.to_string()),
        ("pool_width", pool_width.to_string()),
        ("workers_quarantined", quarantined.to_string()),
        ("pool_diagnostics_before", diag(&diag_before)),
        ("pool_diagnostics_after", diag(&diag_after)),
        ("n", s.n.to_string()),
        ("m", s.m.to_string()),
        ("min_degree", s.min_degree.to_string()),
        ("lambda", s.lambda.map_or("null".into(), |l| l.to_string())),
        ("git_commit", quote(&report::git_commit())),
    ]);
    println!("{}", object(&[("env", env.clone())]));
    println!(
        "fail_frac: {} frac ({} failed of {} attempted)",
        out.checker.fail_frac(),
        out.checker.failed,
        out.checker.attempted
    );
    let catalogue: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    for &(name, unit) in catalogue {
        println!(
            "{name}: {} {unit}",
            metrics.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    if let Some(spans) = &out.spans {
        let path = format!(".bench_trace/{}-seed{}.json", args.kind.name(), args.seed);
        let doc = object(&[("env", env), ("spans", trace::spans_json(spans))]);
        match std::fs::create_dir_all(".bench_trace").and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }

    let correct = out.checker.failed == 0 && out.checker.attempted > 0;
    match report::result_line(
        correct,
        out.checker.attempted,
        out.checker.failed,
        catalogue,
        &metrics,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(4);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Tracing on: repeated until `--seconds` have passed, one round of
/// the untraced calls, the traced pipeline (or query session) at the
/// pool's width, and the same on one thread. Each traced round must
/// reproduce the untraced answers. Every per-layer metric is the median
/// over the full-width traced rounds.
fn traced_run(args: &Args, width: usize) -> Outcome {
    // The traced run measures the input of the untraced run's first part.
    let seed = timed::part_seed(args.seed, 0);
    let inputs = workload::setup(args.kind, seed);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a 1-thread pool always builds");
    let tr = Tracer::new();
    let mut chk = Checker::new();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xC4EC);
    let g = &inputs.graph;
    let params = ExactParams::default();
    let mut runs: Vec<traced::Layers> = Vec::new();
    let (mut untraced, mut walls, mut walls_1t) = (Vec::new(), Vec::new(), Vec::new());
    let mut run_id = 0u32;

    while runs.is_empty() || Instant::now() < deadline {
        let (untraced_s, at_width, at_one) = match (args.kind.regime(), inputs.reference) {
            (Some(regime), Some(reference)) => {
                let (r, secs) = timed(|| exact_mincut(g, &params));
                chk.exact(g, reference, &r, regime);
                let want = traced::Outcome {
                    cut: r.cut,
                    lambda_estimate: r.stats.lambda_estimate,
                    skeleton_p: r.stats.skeleton_p,
                    num_trees: r.stats.num_trees,
                };
                let at_width = traced::exact_pipeline(g, &params, &tr, run_id);
                let at_one = one.install(|| traced::exact_pipeline(g, &params, &tr, run_id + 1));
                for t in [&at_width, &at_one] {
                    chk.record(
                        "traced pipeline vs exact_mincut",
                        &outcome_diff(&t.outcome, &want),
                    );
                }
                (secs, (at_width.wall_s, at_width.layers), at_one.wall_s)
            }
            _ => {
                let (want, secs) = untraced_session(&inputs, &mut chk, &mut rng);
                let at_width = traced::query_session(&inputs, TRACED_BATCHES, &tr, run_id);
                let at_one =
                    one.install(|| traced::query_session(&inputs, TRACED_BATCHES, &tr, run_id + 1));
                for t in [&at_width, &at_one] {
                    let problems = if t.outcome == want {
                        vec![]
                    } else {
                        vec!["traced session differs from untraced".into()]
                    };
                    chk.record("traced query session", &problems);
                }
                (secs, (at_width.wall_s, at_width.layers), at_one.wall_s)
            }
        };
        run_id += 2;
        untraced.push(untraced_s);
        walls.push(at_width.0);
        runs.push(at_width.1);
        walls_1t.push(at_one);
    }

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(name, _) in report::PER_LAYER.iter() {
        let values: Vec<f64> = runs
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0))
            .collect();
        metrics.insert(name, median(&values));
    }
    let (untraced_s, traced_s, traced_1t_s) =
        (median(&untraced), median(&walls), median(&walls_1t));
    metrics.insert("rayon.speedup_1t", traced_1t_s / traced_s);
    metrics.insert("trace.overhead", traced_s / untraced_s);
    metrics.insert("trace.untraced_s", untraced_s);
    metrics.insert("trace.traced_s", traced_s);
    metrics.insert("trace.traced_1t_s", traced_1t_s);
    metrics.insert("trace.runs", runs.len() as f64);
    if inputs.reference.is_some() {
        metrics.insert("oracle.stoer_wagner_s", inputs.stoer_wagner_s);
        metrics.insert("oracle.solve_ratio", untraced_s / inputs.stoer_wagner_s);
    }
    if metrics["trace.coverage"] < 0.95 {
        eprintln!(
            "FLAG: trace.coverage {} < 0.95: the top-level spans miss part of the traced wall time",
            metrics["trace.coverage"]
        );
    }
    eprintln!(
        "{}: {} traced runs at width {width} and 1, {:.1} s measured",
        args.kind.name(),
        runs.len(),
        start.elapsed().as_secs_f64()
    );
    Outcome {
        metrics,
        checker: chk,
        stamp: Stamp::of(&inputs),
        spans: Some(tr.snapshot()),
    }
}

/// The query session's calls without tracing or metering: the answers
/// the traced sessions must reproduce, and the wall time of the calls.
fn untraced_session(
    inputs: &Inputs,
    chk: &mut Checker,
    rng: &mut StdRng,
) -> (traced::SessionOutcome, f64) {
    let off = Meter::disabled();
    let g = &inputs.graph;
    let mut wall = 0.0;
    let ((_ctx, tc), secs) = timed(|| {
        (
            GraphContext::build(g, &off),
            TreeContext::from_edges(g, &inputs.tree, 0, &TwoRespectParams::default(), &off),
        )
    });
    wall += secs;
    let (solved, secs) = timed(|| tc.solve(&off));
    wall += secs;
    let mut out = Vec::new();
    let mut checksum = 0;
    let mut upper = u64::MAX;
    for (i, batch) in inputs
        .batches
        .iter()
        .cycle()
        .take(TRACED_BATCHES)
        .enumerate()
    {
        let ((), secs) = timed(|| tc.cut_batch_into(batch, &mut out, &off));
        wall += secs;
        checksum = traced::fold_checksum(checksum, &out);
        upper = upper.min(out.iter().copied().min().unwrap_or(u64::MAX));
        chk.batch(
            &tc,
            batch,
            &out,
            rng,
            i.is_multiple_of(check::DEEP_CHECK_EVERY),
        );
    }
    chk.tree_solve(g, &solved.cut, upper);
    (
        traced::SessionOutcome {
            cut: solved.cut,
            checksum,
        },
        wall,
    )
}

/// Where a traced pipeline's outcome differs from the untraced result.
fn outcome_diff(got: &traced::Outcome, want: &traced::Outcome) -> Vec<String> {
    let mut problems = Vec::new();
    if got.lambda_estimate != want.lambda_estimate {
        problems.push(format!(
            "lambda_estimate {} != {}",
            got.lambda_estimate, want.lambda_estimate
        ));
    }
    if got.skeleton_p != want.skeleton_p {
        problems.push(format!(
            "skeleton_p {} != {}",
            got.skeleton_p, want.skeleton_p
        ));
    }
    if got.num_trees != want.num_trees {
        problems.push(format!("num_trees {} != {}", got.num_trees, want.num_trees));
    }
    if got.cut != want.cut {
        problems.push(format!(
            "cut {} != {} (or sides differ)",
            got.cut.value, want.cut.value
        ));
    }
    problems
}
