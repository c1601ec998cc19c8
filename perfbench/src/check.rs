//! Output checks. Every timed call's answer goes through a [`Checker`],
//! which counts operations attempted and failed; a run whose checker
//! saw a failure reports `correct: false` and exits non-zero.

use pmc_graph::{cut_of_partition, generators, CutResult, Graph};
use pmc_mincut::{
    exact_mincut, ExactParams, ExactResult, SolveQuality, TreeContext, TwoRespectParams,
};
use pmc_parallel::Meter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pairs of each batch checked against per-query `TreeContext::cut`.
pub const BATCH_SAMPLE: usize = 16;
/// Every this many batches, one sampled answer is also checked against
/// the cut of the vertex side it names.
pub const DEEP_CHECK_EVERY: usize = 64;

/// How many failure descriptions are echoed to stderr.
const ECHO_FAILURES: u64 = 5;

/// The skeleton-sampling regime a solve workload is defined by. A run
/// that leaves its regime has silently become another workload, so a
/// drift counts as a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// `skeleton_p == 1.0`: the minimum degree already forces p = 1.
    Unsampled,
    /// `skeleton_p < 1.0`: skeleton sampling really engages.
    Sampled,
}

#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// Echo the first failures to stderr.
    echo: bool,
}

impl Checker {
    pub fn new() -> Self {
        Checker {
            echo: true,
            ..Self::default()
        }
    }

    /// A checker that counts without echoing (the self-test's failures
    /// are expected).
    fn quiet() -> Self {
        Self::default()
    }

    /// Count one operation; it failed if `problems` is non-empty.
    pub fn record(&mut self, what: &str, problems: &[String]) -> bool {
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        if self.echo && self.failed <= ECHO_FAILURES {
            eprintln!("check failed: {what}: {}", problems.join("; "));
        }
        false
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// An `exact_mincut` result against the Stoer–Wagner reference.
    pub fn exact(&mut self, g: &Graph, reference: u64, r: &ExactResult, regime: Regime) -> bool {
        let mut problems = Vec::new();
        if r.cut.value != reference {
            problems.push(format!("value {} != Stoer-Wagner {reference}", r.cut.value));
        }
        side_problems(g, &r.cut, &mut problems);
        if r.quality != SolveQuality::Exact {
            problems.push(format!("quality {:?}", r.quality));
        }
        let p = r.stats.skeleton_p;
        match regime {
            Regime::Unsampled if p != 1.0 => {
                problems.push(format!("regime drift: skeleton_p {p} != 1"))
            }
            Regime::Sampled if p >= 1.0 => {
                problems.push(format!("regime drift: skeleton_p {p} >= 1"))
            }
            _ => {}
        }
        self.record("exact_mincut", &problems)
    }

    /// A minimum 2-respecting cut of one tree (`TreeContext::solve`):
    /// its side must realize its value, and it can be no larger than
    /// `upper`, any 2-respecting cut value of the same tree.
    pub fn tree_solve(&mut self, g: &Graph, cut: &CutResult, upper: u64) -> bool {
        let mut problems = Vec::new();
        if cut.value > upper {
            problems.push(format!(
                "value {} > known 2-respecting cut {upper}",
                cut.value
            ));
        }
        side_problems(g, cut, &mut problems);
        self.record("TreeContext::solve", &problems)
    }

    /// One `cut_batch_into` answer: a seeded sample against per-query
    /// `TreeContext::cut`, and with `deep` one sampled pair against the
    /// cut of the vertex side it names.
    pub fn batch(
        &mut self,
        tc: &TreeContext<'_>,
        pairs: &[(u32, u32)],
        out: &[u64],
        rng: &mut StdRng,
        deep: bool,
    ) -> bool {
        let mut problems = Vec::new();
        if out.len() != pairs.len() {
            problems.push(format!("{} answers for {} pairs", out.len(), pairs.len()));
        } else if !pairs.is_empty() {
            let meter = Meter::disabled();
            let sample: Vec<usize> = if pairs.len() <= BATCH_SAMPLE {
                (0..pairs.len()).collect()
            } else {
                (0..BATCH_SAMPLE)
                    .map(|_| rng.random_range(0..pairs.len()))
                    .collect()
            };
            for &i in &sample {
                let (e, f) = pairs[i];
                let want = tc.cut(e, f, &meter);
                if out[i] != want {
                    problems.push(format!(
                        "pair {i} ({e},{f}): batch {} != cut {want}",
                        out[i]
                    ));
                }
            }
            if deep {
                let i = sample[0];
                let (e, f) = pairs[i];
                let side = tc.cut_query().cut_side(e, f);
                let real = side_cut(tc.graph(), &side);
                if real != Some(out[i]) {
                    problems.push(format!(
                        "pair {i} ({e},{f}): batch {} != side cut {real:?}",
                        out[i]
                    ));
                }
            }
        }
        self.record("cut_batch_into", &problems)
    }
}

/// The weight crossing `side`, or `None` if `side` is not a proper,
/// non-empty vertex subset of `g`.
pub fn side_cut(g: &Graph, side: &[u32]) -> Option<u64> {
    let mut mask = vec![false; g.n()];
    for &v in side {
        *mask.get_mut(v as usize)? = true;
    }
    let inside = mask.iter().filter(|&&b| b).count();
    (inside > 0 && inside < g.n()).then(|| cut_of_partition(g, &mask))
}

fn side_problems(g: &Graph, cut: &CutResult, problems: &mut Vec<String>) {
    match side_cut(g, &cut.side) {
        Some(v) if v == cut.value => {}
        Some(v) => problems.push(format!("side realizes {v}, reported {}", cut.value)),
        None => problems.push(format!(
            "side of {} vertices is not a proper subset",
            cut.side.len()
        )),
    }
}

/// Feed the checker deliberately wrong answers and make sure each one
/// raises the failure count, so the gate can never pass silently.
/// Runs at the start of every benchmark run and as a unit test.
pub fn self_test() -> Result<(), String> {
    let g = generators::dumbbell(8, 10, 3);
    let reference = 3;
    let good = exact_mincut(&g, &ExactParams::default());
    let mut chk = Checker::quiet();
    if !chk.exact(&g, reference, &good, Regime::Unsampled) {
        return Err("a correct exact_mincut answer was rejected".into());
    }
    let mut wrong_value = good.clone();
    wrong_value.cut.value += 1;
    let mut wrong_side = good.clone();
    wrong_side.cut.side = vec![1];
    let mut degraded = good.clone();
    degraded.quality =
        SolveQuality::Degraded(pmc_mincut::DegradeReason::DeadlineExpired { phase: "self-test" });
    for (label, r, regime) in [
        ("wrong cut value", &wrong_value, Regime::Unsampled),
        ("wrong cut side", &wrong_side, Regime::Unsampled),
        ("degraded solve", &degraded, Regime::Unsampled),
        ("regime drift", &good, Regime::Sampled),
    ] {
        let before = chk.fail_frac();
        if chk.exact(&g, reference, r, regime) || chk.fail_frac() <= before {
            return Err(format!("{label} did not raise fail_frac"));
        }
    }

    let tree: Vec<(u32, u32)> = (1..g.n() as u32).map(|v| (v - 1, v)).collect();
    let tc = TreeContext::from_edges(
        &g,
        &tree,
        0,
        &TwoRespectParams::default(),
        &Meter::disabled(),
    );
    let pairs: Vec<(u32, u32)> = (1..9).map(|i| (i, 16 - i)).collect();
    let mut out = Vec::new();
    tc.cut_batch_into(&pairs, &mut out, &Meter::disabled());
    let mut rng = StdRng::seed_from_u64(1);
    let mut qchk = Checker::quiet();
    if !qchk.batch(&tc, &pairs, &out, &mut rng, true) {
        return Err("a correct cut_batch_into answer was rejected".into());
    }
    out[3] += 1;
    if qchk.batch(&tc, &pairs, &out, &mut rng, false) || qchk.fail_frac() == 0.0 {
        return Err("a wrong query value did not raise fail_frac".into());
    }
    let solved = tc.solve(&Meter::disabled()).cut;
    let mut too_big = solved.clone();
    too_big.value = solved.value + 1;
    if qchk.tree_solve(&g, &too_big, solved.value) {
        return Err("a wrong tree solve was accepted".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_self_test_passes() {
        self_test().unwrap();
    }

    #[test]
    fn side_cut_rejects_improper_sides() {
        let g = generators::cycle(6, 2);
        assert_eq!(side_cut(&g, &[]), None);
        assert_eq!(side_cut(&g, &[0, 1, 2, 3, 4, 5]), None);
        assert_eq!(side_cut(&g, &[9]), None);
        assert_eq!(side_cut(&g, &[0, 1, 2]), Some(4));
    }
}
