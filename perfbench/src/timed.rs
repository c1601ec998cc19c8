//! The untraced run: the public API timed with tracing off, every
//! answer checked.
//!
//! A run is split across [`PARTS`] child processes of this binary, run
//! one after another, each measuring its share of `--seconds`; the
//! parent pools their samples. Where a process's heap and code happen
//! to land moves its timings by several percent for its whole life, so
//! pooling several processes keeps one layout from setting a run's
//! figures.

use crate::check::{Checker, DEEP_CHECK_EVERY};
use crate::report::{median, percentile};
use crate::workload::{self, Kind};
use crate::Stamp;
use pmc_mincut::engine::{GraphContext, TreeContext};
use pmc_mincut::{exact_mincut, ExactParams, TwoRespectParams};
use pmc_parallel::Meter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Child processes per run. Each part generates its own input from
/// [`part_seed`], so a run's figures are medians over eight inputs, not
/// one.
pub const PARTS: usize = 8;
/// Rayon pool width of the timed calls. The untraced run is
/// single-threaded: on a 2-vCPU host the second vCPU's availability
/// moved 2-thread solve times by about 15% between runs, 1-thread ones
/// by about 5%. The traced run measures the full-width wall and the
/// speedup over one thread.
pub const POOL_WIDTH: usize = 1;
/// Minimum calls per part of each kind. 1100 batches leave at least
/// ten beyond each part's nearest-rank p99; with [`PARTS`] parts the
/// run has at least 16 builds and 8 solves.
const MIN_BUILDS: usize = 2;
const MIN_BATCHES: usize = 1100;
const MIN_SOLVES: usize = 1;
/// `TreeContext::solve` calls per part on the query workload, at least.
const MIN_TREE_SOLVES: usize = 3;

/// `(share of a part's time, minimum calls)` for one kind of call.
type Share = (f64, usize);

/// Shares of builds, batches and solves. The solve workloads spend
/// most of their time in `exact_mincut`, the query workload in batches.
fn plan(kind: Kind) -> [Share; 3] {
    match kind {
        Kind::NonSparse | Kind::Heavy => {
            [(0.03, MIN_BUILDS), (0.35, MIN_BATCHES), (0.62, MIN_SOLVES)]
        }
        Kind::Query => [
            (0.07, MIN_BUILDS),
            (0.78, MIN_BATCHES),
            (0.15, MIN_TREE_SOLVES),
        ],
    }
}

/// Interleave builds, batches and solves until each kind has had its
/// share of `seconds` and its minimum count. `call(kind, k)` makes the
/// `k`-th call of `kind` (0 build, 1 batch, 2 solve) and returns its
/// timed seconds. The next call is always of the unfinished kind
/// furthest behind its share, so every kind samples the part's whole
/// span of time rather than one stretch of it: the host's speed drifts
/// over seconds, and a kind timed in one block would see one state of it.
/// A kind is finished once it has its minimum and another call is
/// expected to end further from its budget than stopping now.
fn interleave(
    seconds: f64,
    plan: [Share; 3],
    mut call: impl FnMut(usize, usize) -> f64,
) -> [Vec<f64>; 3] {
    let mut samples: [Vec<f64>; 3] = Default::default();
    let mut spent = [0.0f64; 3];
    let unfinished = |kind: usize, samples: &[Vec<f64>; 3], spent: &[f64; 3]| {
        let (share, min) = plan[kind];
        let n = samples[kind].len();
        n < min || spent[kind] + spent[kind] / n.max(1) as f64 / 2.0 <= share * seconds
    };
    while let Some(kind) = (0..3)
        .filter(|&k| unfinished(k, &samples, &spent))
        .min_by(|&a, &b| (spent[a] / plan[a].0).total_cmp(&(spent[b] / plan[b].0)))
    {
        let secs = call(kind, samples[kind].len());
        samples[kind].push(secs);
        spent[kind] += secs;
    }
    samples
}

/// What one part measured.
#[derive(Debug, Default)]
pub struct Samples {
    setup: f64,
    build: Vec<f64>,
    batch: Vec<f64>,
    solve: Vec<f64>,
    pairs: usize,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    /// Rayon workers quarantined while the part ran.
    quarantined: u64,
    stamp: Stamp,
}

impl Samples {
    /// The part's result as text lines, one `part <key> <values...>`
    /// line per field.
    pub fn encode(&self) -> String {
        let list = |v: &[f64]| v.iter().map(|x| format!(" {x:?}")).collect::<String>();
        let s = &self.stamp;
        let lambda = s.lambda.map_or("none".to_string(), |l| l.to_string());
        [
            format!("part setup {:?}", self.setup),
            format!("part build{}", list(&self.build)),
            format!("part batch{}", list(&self.batch)),
            format!("part solve{}", list(&self.solve)),
            format!("part pairs {}", self.pairs),
            format!("part peak_rss_mb {:?}", self.peak_rss_mb),
            format!("part checks {} {}", self.attempted, self.failed),
            format!("part quarantined {}", self.quarantined),
            format!("part graph {} {} {} {lambda}", s.n, s.m, s.min_degree),
        ]
        .join("\n")
    }

    /// Parse [`Samples::encode`]'s lines out of a part's stdout.
    pub fn decode(text: &str) -> Result<Samples, String> {
        let mut out = Samples::default();
        let mut seen = 0;
        for line in text.lines() {
            let mut words = line.split_whitespace();
            if words.next() != Some("part") {
                continue;
            }
            let key = words.next().unwrap_or("");
            let rest: Vec<&str> = words.collect();
            let floats = || -> Result<Vec<f64>, String> {
                rest.iter()
                    .map(|w| {
                        w.parse::<f64>()
                            .map_err(|_| format!("bad number {w} in {key}"))
                    })
                    .collect()
            };
            let int = |i: usize| -> Result<u64, String> {
                rest.get(i)
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| format!("bad {key} line: {line}"))
            };
            match key {
                "setup" => out.setup = floats()?.first().copied().ok_or("empty setup")?,
                "build" => out.build = floats()?,
                "batch" => out.batch = floats()?,
                "solve" => out.solve = floats()?,
                "pairs" => out.pairs = int(0)? as usize,
                "peak_rss_mb" => {
                    out.peak_rss_mb = floats()?.first().copied().ok_or("empty peak_rss_mb")?
                }
                "checks" => (out.attempted, out.failed) = (int(0)?, int(1)?),
                "quarantined" => out.quarantined = int(0)?,
                "graph" => {
                    out.stamp = Stamp {
                        n: int(0)? as usize,
                        m: int(1)? as usize,
                        min_degree: int(2)?,
                        lambda: rest.get(3).and_then(|w| w.parse().ok()),
                    }
                }
                _ => return Err(format!("unknown part line: {line}")),
            }
            seen += 1;
        }
        if seen == 9 {
            Ok(out)
        } else {
            Err(format!("a part reported {seen} of 9 result lines"))
        }
    }
}

/// The input seed of part `part` of the run with seed `seed`.
pub fn part_seed(seed: u64, part: usize) -> u64 {
    seed.wrapping_mul(PARTS as u64).wrapping_add(part as u64)
}

/// The pooled result of an untraced run.
pub struct Pooled {
    pub metrics: BTreeMap<&'static str, f64>,
    pub checker: Checker,
    /// Rayon workers the parts quarantined.
    pub quarantined: u64,
    pub stamp: Stamp,
}

/// Run the [`PARTS`] child processes one after another and pool their
/// samples into the end-to-end metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Result<Pooled, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut parts = Vec::new();
    for part in 0..PARTS {
        let output = Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &format!("{:?}", seconds / PARTS as f64),
                "--trace",
                "0",
                "--part",
                &part.to_string(),
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("part {part} did not start: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!("part {part} exited with {}", output.status));
        }
        parts.push(Samples::decode(&stdout).map_err(|e| format!("part {part}: {e}"))?);
    }
    let pooled = |f: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        parts.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let setup: Vec<f64> = parts.iter().map(|p| p.setup).collect();
    let (build, batch, solve) = (
        pooled(|p| &p.build),
        pooled(|p| &p.batch),
        pooled(|p| &p.solve),
    );
    let pairs: usize = parts.iter().map(|p| p.pairs).sum();
    let rss: Vec<f64> = parts.iter().map(|p| p.peak_rss_mb).collect();
    // The tail per part, then the median over parts: a burst of host
    // noise inside one part moves one of eight estimates, not the
    // run's figure.
    let (p99s, beyond): (Vec<f64>, Vec<usize>) =
        parts.iter().map(|p| percentile(&p.batch, 0.99)).unzip();
    eprintln!(
        "{}: {PARTS} parts pooled {} solves, {} builds, {} batches (at least {} beyond each part's p99)",
        kind.name(),
        solve.len(),
        build.len(),
        batch.len(),
        beyond.iter().min().copied().unwrap_or(0)
    );
    let metrics = BTreeMap::from([
        ("solve_s", median(&solve)),
        ("build_s", median(&build)),
        ("query_mqps", pairs as f64 / batch.iter().sum::<f64>() / 1e6),
        // The fastest batch, not the median: on a shared host the batch
        // times alternate, over stretches of 0.1-1 s, between two speeds
        // about 1.6x apart, and the median sits between them and jumps
        // with the share of the run spent in each. The minimum needs one
        // batch in the fast stretches, and no batch can beat the
        // uncontended cost of its work.
        (
            "batch_min_ms",
            batch.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        ),
        ("batch_p99_ms", median(&p99s) * 1e3),
        ("peak_rss_mb", median(&rss)),
        ("setup_s", median(&setup)),
    ]);
    let mut chk = Checker::new();
    chk.attempted = parts.iter().map(|p| p.attempted).sum();
    chk.failed = parts.iter().map(|p| p.failed).sum();
    let quarantined = parts.iter().map(|p| p.quarantined).sum();
    let stamp = parts.first().map(|p| p.stamp.clone()).unwrap_or_default();
    Ok(Pooled {
        metrics,
        checker: chk,
        quarantined,
        stamp,
    })
}

pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// One part: set up, then time builds, batches and solves, interleaved
/// (see [`interleave`]) for their shares of `seconds`, on a
/// [`POOL_WIDTH`] pool.
///
/// The first batch after a build or a solve runs with cold caches; one
/// such batch per solve would make up about 0.5% of the samples, close
/// enough to the 1% tail that p99 would flip between runs. So each one
/// is preceded by an untimed (but checked) warm-up batch.
pub fn part(kind: Kind, seed: u64, seconds: f64) -> Samples {
    let quarantined_before = rayon::pool_diagnostics().workers_quarantined;
    let (inputs, setup) = timed(|| workload::setup(kind, seed));
    let off = Meter::disabled();
    let params = TwoRespectParams::default();
    let exact = ExactParams::default();
    let g = &inputs.graph;
    let mut chk = Checker::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EC);

    // The context the batches and tree solves run against, and one
    // untimed warm-up batch that sizes its scratch buffers.
    let tc = TreeContext::from_edges(g, &inputs.tree, 0, &params, &off);
    let mut out = Vec::new();
    tc.cut_batch_into(&inputs.batches[0], &mut out, &off);
    chk.batch(&tc, &inputs.batches[0], &out, &mut rng, true);
    let upper = out.iter().copied().min().unwrap_or(u64::MAX);

    let mut pairs = 0usize;
    let mut cold = false;
    let mut called = [false; 3];
    let mut peak_rss_mb = None;
    let [build, batch, solve] = interleave(seconds, plan(kind), |call, k| {
        let secs = match call {
            0 => {
                cold = true;
                let ((_ctx, _tc), secs) = timed(|| {
                    (
                        GraphContext::build(g, &off),
                        TreeContext::from_edges(g, &inputs.tree, 0, &params, &off),
                    )
                });
                secs
            }
            1 => {
                let batch = &inputs.batches[k % inputs.batches.len()];
                if cold {
                    cold = false;
                    tc.cut_batch_into(batch, &mut out, &off);
                    chk.batch(&tc, batch, &out, &mut rng, false);
                }
                let ((), secs) = timed(|| tc.cut_batch_into(batch, &mut out, &off));
                pairs += batch.len();
                chk.batch(
                    &tc,
                    batch,
                    &out,
                    &mut rng,
                    k.is_multiple_of(DEEP_CHECK_EVERY),
                );
                secs
            }
            _ => {
                cold = true;
                match (kind.regime(), inputs.reference) {
                    (Some(regime), Some(reference)) => {
                        let (r, secs) = timed(|| exact_mincut(g, &exact));
                        chk.exact(g, reference, &r, regime);
                        secs
                    }
                    _ => {
                        let (r, secs) = timed(|| tc.solve(&off));
                        chk.tree_solve(g, &r.cut, upper);
                        secs
                    }
                }
            }
        };
        // The peak once every kind of call has run: later calls repeat
        // the same work, and the heap's fragmentation after them depends
        // on the timing-driven order of calls, not on the program.
        called[call] = true;
        if peak_rss_mb.is_none() && called.iter().all(|&c| c) {
            peak_rss_mb = Some(crate::report::peak_rss_mb());
        }
        secs
    });

    Samples {
        setup,
        build,
        batch,
        solve,
        pairs,
        peak_rss_mb: peak_rss_mb.unwrap_or_else(crate::report::peak_rss_mb),
        attempted: chk.attempted,
        failed: chk.failed,
        quarantined: rayon::pool_diagnostics()
            .workers_quarantined
            .saturating_sub(quarantined_before) as u64,
        stamp: Stamp::of(&inputs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_meets_shares_and_minimums_and_spreads_each_kind() {
        let cost = [0.01, 0.001, 0.1];
        let mut order = Vec::new();
        let [builds, batches, solves] =
            interleave(1.0, [(0.1, 2), (0.5, 600), (0.4, 1)], |kind, _| {
                order.push(kind);
                cost[kind]
            });
        assert!((10..=11).contains(&builds.len()));
        assert_eq!(batches.len(), 600, "the minimum outlasts the share");
        assert!((4..=5).contains(&solves.len()));
        // The solves are spread over the part, not run in one stretch.
        let first = order.iter().position(|&k| k == 2).unwrap();
        let last = order.iter().rposition(|&k| k == 2).unwrap();
        assert!(first < 10 && last - first > order.len() / 2);
    }

    #[test]
    fn samples_round_trip_through_text() {
        let s = Samples {
            setup: 0.5,
            build: vec![1e-3],
            batch: vec![2e-3, 3e-3],
            solve: vec![],
            pairs: 40_000,
            peak_rss_mb: 12.5,
            attempted: 7,
            failed: 1,
            quarantined: 0,
            stamp: Stamp {
                n: 10,
                m: 20,
                min_degree: 3,
                lambda: Some(3),
            },
        };
        let back = Samples::decode(&format!("noise\n{}\n", s.encode())).unwrap();
        assert_eq!(format!("{back:?}"), format!("{s:?}"));
        assert!(Samples::decode("part pairs 3").is_err());
    }
}
