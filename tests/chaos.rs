//! Chaos suite: seeded fault plans against the robust solver entry.
//!
//! Every test sweeps `PMC_CHAOS_PLANS` (default 500) distinct generated
//! [`FaultPlan`]s through [`exact_mincut_robust`] and asserts the one
//! property the fault plane exists to guarantee: a solve under injected
//! faults returns the correct value, a typed error, or a *flagged*
//! degraded answer that is still a genuine cut — never a hang, an
//! abort, or an unflagged wrong answer.
//!
//! Any failing plan's `fp1;…` fixture string is printed in the assert
//! message; add it to `REGRESSION_FIXTURES` below to pin the replay.
//!
//! All rayon-touching work in this file runs inside a [`FaultScope`]
//! (a fault-free control scope where no faults are wanted), because
//! scopes serialize process-wide: no test here can have its pool jobs
//! hit by another test's armed panic op.
//!
//! Solves run under an explicit 4-thread pool: the default pool sizes
//! itself to the machine, and on a single-core CI box that means a
//! zero helper budget — every join inline, every `rayon:*` probe dead.

use parallel_mincut::prelude::*;
use pmc_fault::{Deadline, DegradeReason, FaultPlan, FaultScope, InjectedPanic, SolveQuality};
use pmc_graph::generators;
use pmc_mincut::exact_mincut_robust;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Probe points that may legally raise an [`InjectedPanic`].
const PANICKING_POINTS: &[&str] =
    &["engine:graph_build", "engine:tree_build", "rayon:job_run"];

/// Every probe point in the stack (panic ops at the plain ones are
/// ignored by design, so arbitrary plans over this menu are safe).
const ALL_POINTS: &[&str] = &[
    "rayon:push",
    "rayon:steal",
    "rayon:worker_tick",
    "rayon:job_run",
    "engine:graph_build",
    "engine:tree_build",
    "engine:phase1_approx",
    "engine:phase2_skeleton",
    "engine:phase3_certificate",
    "engine:phase4_packing",
    "engine:cov_batch",
    "engine:cut_batch",
];

/// Deadline-consulting points: `exhaust` ops here exercise cooperative
/// cancellation at every phase boundary and batch facade.
const BUDGET_POINTS: &[&str] = &[
    "engine:phase1_approx",
    "engine:phase2_skeleton",
    "engine:phase3_certificate",
    "engine:phase4_packing",
    "engine:cov_batch",
    "engine:cut_batch",
];

fn plan_count() -> u64 {
    std::env::var("PMC_CHAOS_PLANS").ok().and_then(|v| v.parse().ok()).unwrap_or(500)
}

/// A pool wide enough that joins actually push jobs and spawn workers,
/// independent of the host's core count.
fn chaos_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("build chaos pool")
}

/// Injected panics are expected traffic in this suite; keep the default
/// hook's backtrace spam for genuine panics only.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if InjectedPanic::from_payload(info.payload()).is_none() {
                default(info);
            }
        }));
    });
}

/// A small connected chaos workload plus its true minimum cut.
fn chaos_graph(seed: u64) -> (Graph, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::gnm_connected(10, 24, 6, &mut rng);
    let expect = stoer_wagner_mincut(&g).value;
    (g, expect)
}

/// The well-typed-outcome invariant: the reported side realizes the
/// reported value, the value never undercuts the true minimum, and an
/// `Exact` flag means *the* minimum.
fn assert_valid_outcome(g: &Graph, r: &ExactResult, expect: u64, fixture: &str) {
    let mut side = vec![false; g.n()];
    for &v in &r.cut.side {
        side[v as usize] = true;
    }
    assert_eq!(
        cut_of_partition(g, &side),
        r.cut.value,
        "plan {fixture}: reported side does not realize the reported value"
    );
    assert!(
        r.cut.value >= expect,
        "plan {fixture}: cut {} below the true minimum {expect}",
        r.cut.value
    );
    if r.quality.is_exact() {
        assert_eq!(
            r.cut.value, expect,
            "plan {fixture}: flagged Exact but the value is not the minimum"
        );
    }
}

#[test]
fn panic_plans_never_return_unflagged_wrong_answers() {
    silence_injected_panics();
    let (g, expect) = chaos_graph(41);
    let params = ExactParams::default();
    let pool = chaos_pool();
    let mut degraded = 0u64;
    for seed in 0..plan_count() {
        let plan = FaultPlan::generate(seed, PANICKING_POINTS);
        let fixture = plan.encode();
        let scope = FaultScope::activate(&plan);
        let r = pool
            .install(|| exact_mincut_robust(&g, &params, &Deadline::never(), &Meter::disabled()))
            .unwrap_or_else(|e| panic!("plan {fixture} surfaced a genuine bug: {e}"));
        drop(scope);
        if r.quality.is_degraded() {
            degraded += 1;
        }
        assert_valid_outcome(&g, &r, expect, &fixture);
    }
    assert!(degraded > 0, "sweep never fired an injected panic — probes dead?");
}

#[test]
fn arbitrary_plans_over_every_probe_are_well_typed() {
    silence_injected_panics();
    let (g, expect) = chaos_graph(42);
    let params = ExactParams::default();
    let pool = chaos_pool();
    for seed in 0..plan_count() {
        let plan = FaultPlan::generate(seed, ALL_POINTS);
        let fixture = plan.encode();
        let deadline = Deadline::never();
        let scope = FaultScope::activate_with_deadline(&plan, &deadline);
        let r = pool
            .install(|| exact_mincut_robust(&g, &params, &deadline, &Meter::disabled()))
            .unwrap_or_else(|e| panic!("plan {fixture} surfaced a genuine bug: {e}"));
        drop(scope);
        assert_valid_outcome(&g, &r, expect, &fixture);
    }
}

#[test]
fn delay_only_plans_stay_exact() {
    silence_injected_panics();
    let (g, expect) = chaos_graph(43);
    let params = ExactParams::default();
    let pool = chaos_pool();
    for seed in 0..plan_count() {
        let plan = FaultPlan::generate(seed, ALL_POINTS).without_panics();
        // No deadline registered: exhaust ops are no-ops, so only
        // delays remain — pure schedule perturbation.
        let fixture = plan.encode();
        let scope = FaultScope::activate(&plan);
        let r = pool
            .install(|| exact_mincut_robust(&g, &params, &Deadline::never(), &Meter::disabled()))
            .unwrap_or_else(|e| panic!("plan {fixture} surfaced a genuine bug: {e}"));
        drop(scope);
        assert!(r.quality.is_exact(), "plan {fixture}: delays must not degrade the solve");
        assert_eq!(r.cut.value, expect, "plan {fixture}: delays changed the answer");
    }
}

#[test]
fn exhaust_plans_degrade_flagged_never_silent() {
    silence_injected_panics();
    let (g, expect) = chaos_graph(44);
    let params = ExactParams::default();
    let pool = chaos_pool();
    let (mut exact, mut degraded) = (0u64, 0u64);
    for seed in 0..plan_count() {
        let plan = FaultPlan::generate(seed, BUDGET_POINTS).without_panics();
        let fixture = plan.encode();
        let deadline = Deadline::never();
        let scope = FaultScope::activate_with_deadline(&plan, &deadline);
        let r = pool
            .install(|| exact_mincut_robust(&g, &params, &deadline, &Meter::disabled()))
            .unwrap_or_else(|e| panic!("plan {fixture} surfaced a genuine bug: {e}"));
        drop(scope);
        match &r.quality {
            SolveQuality::Exact => exact += 1,
            SolveQuality::Degraded(reason) => {
                degraded += 1;
                assert!(
                    matches!(
                        reason,
                        DegradeReason::BudgetExhausted { .. }
                            | DegradeReason::DeadlineExpired { .. }
                    ),
                    "plan {fixture}: exhaust must flag a budget/deadline reason, got {reason:?}"
                );
            }
        }
        assert_valid_outcome(&g, &r, expect, &fixture);
    }
    assert!(degraded > 0, "no exhaust op ever fired — cancellation path untested");
    assert!(exact > 0, "every plan degraded — sweep lost its control arm");
}

/// Exhaust plans in the sampling regime: the heavy cycle's λ ≈ 60000
/// puts the skeleton at p < 1, so cancellation lands between real
/// sampling, certificate and packing phases. Each solve is far heavier
/// than on `chaos_graph`, so the sweep runs a sixth of the plan count
/// (84 plans at the default 500).
#[test]
fn exhaust_plans_at_sampled_skeleton_stay_valid() {
    silence_injected_panics();
    let mut rng = StdRng::seed_from_u64(45);
    let g = generators::heavy_cycle_with_chords(14, 20, 30000, 800, &mut rng);
    let expect = stoer_wagner_mincut(&g).value;
    let params = ExactParams::default();
    let pool = chaos_pool();
    let (mut exact, mut degraded) = (0u64, 0u64);
    for seed in 0..plan_count().div_ceil(6) {
        let plan = FaultPlan::generate(seed, BUDGET_POINTS).without_panics();
        let fixture = plan.encode();
        let deadline = Deadline::never();
        let scope = FaultScope::activate_with_deadline(&plan, &deadline);
        let r = pool
            .install(|| exact_mincut_robust(&g, &params, &deadline, &Meter::disabled()))
            .unwrap_or_else(|e| panic!("plan {fixture} surfaced a genuine bug: {e}"));
        drop(scope);
        assert_valid_outcome(&g, &r, expect, &fixture);
        if r.quality.is_exact() {
            exact += 1;
            let p = r.stats.skeleton_p;
            assert!(p < 1.0, "plan {fixture}: exact run never sampled (p = {p})");
        } else {
            degraded += 1;
        }
    }
    assert!(degraded > 0, "no exhaust op ever fired — cancellation path untested");
    assert!(exact > 0, "every plan degraded — sweep lost its control arm");
}

#[test]
fn worker_panics_are_quarantined_and_solves_stay_exact() {
    silence_injected_panics();
    let (g, expect) = chaos_graph(45);
    let params = ExactParams::default();
    let pool = chaos_pool();
    let before = rayon::pool_diagnostics();
    // Shorter sweep: each plan can kill up to 3 workers, and each kill
    // spawns a replacement thread.
    let sweeps = plan_count().min(100);
    for seed in 0..sweeps {
        let plan = FaultPlan::generate(seed, &["rayon:worker_tick"]);
        let fixture = plan.encode();
        let scope = FaultScope::activate(&plan);
        let r = pool
            .install(|| exact_mincut_robust(&g, &params, &Deadline::never(), &Meter::disabled()))
            .unwrap_or_else(|e| panic!("plan {fixture} surfaced a genuine bug: {e}"));
        drop(scope);
        // Worker deaths are absorbed below the join layer: the solve
        // must complete exactly, not merely degrade.
        assert!(r.quality.is_exact(), "plan {fixture}: quarantine leaked into the result");
        assert_eq!(r.cut.value, expect, "plan {fixture}: quarantine changed the answer");
    }
    let after = rayon::pool_diagnostics();
    assert!(
        after.workers_quarantined > before.workers_quarantined,
        "no worker was ever quarantined — rayon:worker_tick probe dead?"
    );
    assert!(after.workers_live > 0, "pool has no live workers left");
    // The pool still solves cleanly after the storm.
    let plan = FaultPlan::empty();
    let _scope = FaultScope::activate(&plan);
    let r = pool
        .install(|| exact_mincut_robust(&g, &params, &Deadline::never(), &Meter::disabled()))
        .expect("post-storm solve");
    assert!(r.quality.is_exact());
    assert_eq!(r.cut.value, expect);
}

/// Fixture strings pinned from sweeps: each must replay bit-identically
/// (same quality class, same value) on every run. Engine-level probes
/// only — their hit sequences do not depend on thread scheduling.
const REGRESSION_FIXTURES: &[&str] = &[
    "fp1;seed=0;engine:graph_build@1=panic",
    "fp1;seed=0;engine:tree_build@1=panic",
    "fp1;seed=0;engine:phase1_approx@1=exhaust",
    "fp1;seed=0;engine:phase3_certificate@1=exhaust",
    "fp1;seed=0;engine:phase2_skeleton@1=delay:2;engine:cut_batch@1=delay:1",
];

#[test]
fn regression_fixtures_replay_deterministically() {
    silence_injected_panics();
    let (g, expect) = chaos_graph(46);
    let params = ExactParams::default();
    let pool = chaos_pool();
    for fixture in REGRESSION_FIXTURES {
        let plan = FaultPlan::parse(fixture).expect("pinned fixture parses");
        let run = || {
            let deadline = Deadline::never();
            let scope = FaultScope::activate_with_deadline(&plan, &deadline);
            let r = pool
                .install(|| exact_mincut_robust(&g, &params, &deadline, &Meter::disabled()))
                .unwrap_or_else(|e| panic!("fixture {fixture} surfaced a genuine bug: {e}"));
            drop(scope);
            r
        };
        let a = run();
        let b = run();
        assert_eq!(a.quality, b.quality, "fixture {fixture}: quality not deterministic");
        assert_eq!(a.cut.value, b.cut.value, "fixture {fixture}: value not deterministic");
        assert_valid_outcome(&g, &a, expect, fixture);
    }
    // The first fixture kills the context build itself: the degraded
    // answer must be the raw min-degree fallback.
    let plan = FaultPlan::parse(REGRESSION_FIXTURES[0]).expect("fixture parses");
    let deadline = Deadline::never();
    let scope = FaultScope::activate_with_deadline(&plan, &deadline);
    let r = pool
        .install(|| exact_mincut_robust(&g, &params, &deadline, &Meter::disabled()))
        .expect("degraded, not an error");
    drop(scope);
    assert!(
        matches!(
            &r.quality,
            SolveQuality::Degraded(DegradeReason::InjectedFault { point })
                if point == "engine:graph_build"
        ),
        "got {:?}",
        r.quality
    );
    let plan = FaultPlan::empty();
    let _scope = FaultScope::activate(&plan);
    let ctx = GraphContext::build(&g, &Meter::disabled());
    assert_eq!(r.cut, ctx.min_degree_cut());
}

#[test]
fn generated_fixture_strings_round_trip() {
    for seed in 0..plan_count() {
        let plan = FaultPlan::generate(seed, ALL_POINTS);
        let text = plan.encode();
        assert_eq!(
            FaultPlan::parse(&text).expect("generated fixture parses"),
            plan,
            "fixture {text} does not round-trip"
        );
    }
}
