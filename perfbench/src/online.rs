//! `online-steady` and `online-drift`: the production online path.
//!
//! A run cycles through several K = 50 paper-shape platforms, each
//! receiving the catalogue's Poisson jobs (about 40% load) over 25 control
//! periods; `online-drift` adds a speed and bandwidth random walk every
//! period. Each pass builds the inputs and a warm `periodic` policy, then
//! steps a `ScenarioSession` to the end. The first platform is first run
//! with its event stream recorded and checked against the oracle (the
//! full-recompute simulator with cold LP re-solves); every pass must
//! repeat its platform's first report exactly.

use crate::report::{another_pass, best_wall, instance_seed, median, yardstick_ms, Best, Outcome};
use crate::watch::Watch;
use crate::Args;
use dls_core::{Allocation, ProblemInstance, SolveError};
use dls_scenario::catalog::{paper_shape_instance, poisson_jobs};
use dls_scenario::{
    drift_events, run_scenario, DriftConfig, PeriodicResolve, PolicyCtx, PolicyState,
    RecoveryLevel, RecoveryRecord, ReschedulePolicy, Resolver, Scenario, ScenarioConfig,
    ScenarioReport, ScenarioSession,
};
use dls_sim::SimEngine;
use std::collections::BTreeMap;
use std::time::Instant;

const K: usize = 50;
const HORIZON: f64 = 25.0;
/// Tolerance of the oracle comparison (relative), as in `perf_scenario`.
const ORACLE_TOL: f64 = 1e-6;
/// Platforms (with their job traces) one run cycles through: enough that
/// the run's figures do not hinge on one platform's LP.
const STEADY_INSTANCES: usize = 16;
const DRIFT_INSTANCES: usize = 6;
/// Instances of each run checked against the oracle.
const ORACLE_CHECKED: usize = 1;

/// The platform and job trace of one seed, built with the catalogue's own
/// generators (the recipe of `dls_bench::scenario_perf`).
fn inputs(seed: u64, drift: bool) -> (ProblemInstance, Scenario) {
    let inst = paper_shape_instance(K, seed);
    let platform_events = if drift {
        drift_events(
            &inst.platform,
            &DriftConfig {
                epochs: HORIZON as usize + 1,
                speed_drift: 0.08,
                local_bw_drift: 0.08,
                backbone_bw_drift: 0.08,
                seed: seed ^ 0x5a5a,
                ..DriftConfig::default()
            },
            1.0,
        )
    } else {
        Vec::new()
    };
    let mut scenario = Scenario {
        name: if drift { "drift" } else { "steady" }.into(),
        period: 1.0,
        jobs: poisson_jobs(K, HORIZON, seed ^ 0xa5a5),
        platform_events,
    };
    scenario.normalise();
    (inst, scenario)
}

/// Times `decide` on the wrapped policy and forwards everything else.
struct TimedPolicy<P> {
    inner: P,
    decide_s: f64,
    decides: u64,
}

impl<P: ReschedulePolicy> ReschedulePolicy for TimedPolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> Result<Option<Allocation>, SolveError> {
        let t = Instant::now();
        let out = self.inner.decide(ctx);
        self.decide_s += t.elapsed().as_secs_f64();
        self.decides += 1;
        out
    }
    fn recover(&mut self, level: RecoveryLevel, inst: &ProblemInstance) -> bool {
        self.inner.recover(level, inst)
    }
    fn drain_recovery(&mut self) -> Vec<RecoveryRecord> {
        self.inner.drain_recovery()
    }
    fn export_state(&self) -> PolicyState {
        self.inner.export_state()
    }
    fn import_state(&mut self, state: &PolicyState) {
        self.inner.import_state(state)
    }
    fn checkpoint_barrier(&mut self) {
        self.inner.checkpoint_barrier()
    }
}

/// One pass: set-up, then every epoch.
struct Pass {
    setup_s: f64,
    /// Per-epoch `ScenarioSession::step` latency, milliseconds.
    steps_ms: Vec<f64>,
    /// The same in yardstick units, each epoch against the yardstick
    /// timed just before it.
    steps_cal: Vec<f64>,
    report: ScenarioReport,
    /// Per-layer values of a traced pass.
    layers: Option<BTreeMap<&'static str, f64>>,
}

fn run_pass(
    seed: u64,
    drift: bool,
    record_events: bool,
    traced: bool,
    watch: &Watch,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let (inst, scenario) = inputs(seed, drift);
    let generated = t0.elapsed();
    let resolver = Resolver::warm(&inst).map_err(|e| format!("warm policy build: {e}"))?;
    let built = t0.elapsed();
    let jobs = scenario.jobs.len() as u64;
    let cfg = ScenarioConfig {
        engine: SimEngine::Incremental,
        record_events,
        ..ScenarioConfig::default()
    };
    let mut session = ScenarioSession::new(&inst, scenario, cfg);
    let setup_s = t0.elapsed().as_secs_f64();
    watch.attempt(jobs);

    let mut policy = TimedPolicy {
        inner: PeriodicResolve::new(resolver),
        decide_s: 0.0,
        decides: 0,
    };
    let mut steps_ms = Vec::new();
    let mut steps_cal = Vec::new();
    loop {
        let yardstick = yardstick_ms();
        watch.begin(0, jobs);
        let s0 = Instant::now();
        // Untraced passes step the bare policy: the wrapper's clock reads
        // stay out of the end-to-end numbers.
        let stepped = if traced {
            session.step(&mut policy)
        } else {
            session.step(&mut policy.inner)
        };
        let ms = s0.elapsed().as_secs_f64() * 1e3;
        watch.end(0);
        steps_ms.push(ms);
        steps_cal.push(ms / yardstick);
        match stepped {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => {
                let done = session.report(&mut policy).completed_jobs as u64;
                watch.fail(jobs - done.min(jobs));
                return Err(format!("epoch {}: {e}", steps_ms.len() - 1));
            }
        }
    }
    let report = session.into_report(&mut policy);
    watch.fail(jobs - (report.completed_jobs as u64).min(jobs));

    let layers = traced.then(|| {
        let mut m = BTreeMap::new();
        m.insert("platform.generate_ms", generated.as_secs_f64() * 1e3);
        m.insert("policy.build_ms", (built - generated).as_secs_f64() * 1e3);
        m.insert("policy.decide_ms", policy.decide_s * 1e3);
        m.insert("policy.decides", policy.decides as f64);
        m.insert(
            "engine.self_ms",
            (steps_ms.iter().sum::<f64>() - policy.decide_s * 1e3).max(0.0),
        );
        m.insert("sim.events", report.sim_events as f64);
        m.insert("scenario.epochs", steps_ms.len() as f64);
        m.insert(
            "yardstick_ms",
            steps_ms.iter().sum::<f64>() / steps_cal.iter().sum::<f64>(),
        );
        m.insert("sched.mean_response", report.mean_response);
        if let Some(warm) = policy.inner.resolver_mut().warm_mut() {
            let s = warm.stats();
            m.insert("lp.solves", s.solves as f64);
            m.insert("lp.cold_solves", s.cold_solves as f64);
            m.insert("lp.fallbacks", s.fallbacks as f64);
            m.insert("lp.dual_pivots", s.dual_pivots as f64);
            m.insert("lp.primal_pivots", s.primal_pivots as f64);
            m.insert("lp.evictions", s.evictions as f64);
            m.insert("lp.refactorisations", s.refactorisations as f64);
            m.insert(
                "lp.warm_ratio",
                s.warm_solves as f64 / (s.solves as f64).max(1.0),
            );
        }
        // The formulation is built inside the policy constructor; build it
        // once more on its own to time that layer.
        let f0 = Instant::now();
        if let Ok(f) = dls_core::LpFormulation::relaxation_warm(&inst) {
            m.insert("formulation.build_ms", f0.elapsed().as_secs_f64() * 1e3);
            m.insert("lp.rows", f.model.num_constraints() as f64);
        }
        m
    });
    Ok(Pass {
        setup_s,
        steps_ms,
        steps_cal,
        report,
        layers,
    })
}

/// The full-recompute simulator driven by cold LP re-solves: the slow
/// reference every fast pass must agree with.
fn oracle(seed: u64, drift: bool) -> Result<ScenarioReport, String> {
    let (inst, scenario) = inputs(seed, drift);
    let cfg = ScenarioConfig {
        engine: SimEngine::FullRecompute,
        record_events: true,
        ..ScenarioConfig::default()
    };
    run_scenario(
        &inst,
        &scenario,
        &mut PeriodicResolve::new(Resolver::Cold),
        &cfg,
    )
    .map_err(|e| format!("oracle run: {e}"))
}

/// The report with its wall-clock field and event stream dropped: what
/// must repeat exactly from pass to pass.
fn canonical(report: &ScenarioReport) -> String {
    let mut r = report.clone();
    r.reschedule_ms = 0.0;
    r.events = None;
    r.to_json()
}

/// Checks instance `seed` against the oracle: all jobs complete, and the
/// report and event stream agree with the full-recompute + cold-LP run.
/// Returns the report every later pass must repeat.
fn oracle_check(seed: u64, drift: bool, watch: &Watch, out: &mut Outcome) -> Option<String> {
    let fast = match run_pass(seed, drift, true, false, watch) {
        Ok(p) => p.report,
        Err(e) => {
            out.fault(e);
            return None;
        }
    };
    if fast.completed_jobs != fast.jobs {
        out.fault(format!(
            "instance {seed:#x}: {} of {} jobs completed",
            fast.completed_jobs, fast.jobs
        ));
    }
    match oracle(seed, drift) {
        Ok(slow) => {
            if !fast.agrees_with(&slow, ORACLE_TOL) {
                out.fault(format!(
                    "instance {seed:#x}: report disagrees with the oracle:\n{}\n{}",
                    fast.summary(),
                    slow.summary()
                ));
            }
            if let Some(d) = fast.first_event_divergence(&slow, ORACLE_TOL) {
                out.fault(format!(
                    "instance {seed:#x}: event stream diverges from the oracle at {}",
                    d.describe()
                ));
            }
        }
        Err(e) => out.fault(e),
    }
    Some(canonical(&fast))
}

pub fn run(args: &Args, watch: &Watch, drift: bool) -> Outcome {
    let mut out = Outcome::default();
    let m = if drift {
        DRIFT_INSTANCES
    } else {
        STEADY_INSTANCES
    };
    out.context.push(("instances", m.to_string()));
    out.context.push(("sim_engine", "\"incremental\"".into()));
    out.context.push(("policy", "\"periodic-warm\"".into()));
    let seeds: Vec<u64> = (0..m).map(|i| instance_seed(args.seed, i)).collect();

    // Untimed: the oracle checks (which also warm the caches).
    let mut expected: Vec<Option<String>> = vec![None; m];
    for (i, &seed) in seeds.iter().enumerate().take(ORACLE_CHECKED) {
        expected[i] = oracle_check(seed, drift, watch, &mut out);
    }
    if !out.faults.is_empty() {
        return out;
    }

    // The window: whole rounds over the instances (see `another_pass`). A
    // traced run follows each traced pass with an untraced one of the
    // same instance, so it reports its own overhead.
    let mut best: Vec<Best> = vec![Best::default(); m];
    let mut best_cal: Vec<Best> = vec![Best::default(); m];
    let mut untraced: Vec<Best> = vec![Best::default(); m];
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let window = Instant::now();
    let mut passes = 0usize;
    'window: while another_pass(passes, m, window, args.seconds) {
        let i = passes % m;
        passes += 1;
        let kinds: &[bool] = if args.trace { &[true, false] } else { &[false] };
        for &traced in kinds {
            let pass = match run_pass(seeds[i], drift, false, traced, watch) {
                Ok(p) => p,
                Err(e) => {
                    out.fault(e);
                    break 'window;
                }
            };
            let report = canonical(&pass.report);
            match &expected[i] {
                Some(e) if *e != report => out.fault(format!(
                    "instance {:#x}: a pass did not repeat the first report",
                    seeds[i]
                )),
                Some(_) => {}
                None => {
                    if pass.report.completed_jobs != pass.report.jobs {
                        out.fault(format!(
                            "instance {:#x}: {} of {} jobs completed",
                            seeds[i], pass.report.completed_jobs, pass.report.jobs
                        ));
                    }
                    expected[i] = Some(report);
                }
            }
            if args.trace && !traced {
                untraced[i].add(pass.setup_s, &pass.steps_ms);
                continue;
            }
            // A pass's time is that of its epochs: the yardstick runs
            // between them do not count.
            best[i].add(pass.setup_s, &pass.steps_ms);
            best_cal[i].add(pass.setup_s, &pass.steps_cal);
            for (k, v) in pass.layers.into_iter().flatten() {
                layers.entry(k).or_default().push(v);
            }
        }
    }

    let samples: usize = best.iter().map(|b| b.samples).sum();
    if args.trace {
        let mut values: BTreeMap<&'static str, f64> =
            layers.iter().map(|(k, v)| (*k, median(v))).collect();
        values.insert("trace.wall_s", best_wall(&best, 1) / 1e3);
        values.insert("trace.untraced_wall_s", best_wall(&untraced, 1) / 1e3);
        values.insert("latency.samples", samples as f64);
        out.per_layer(&values);
    } else {
        out.end_to_end(&best_cal, &best, 1);
    }
    eprintln!("dls-perfbench: {passes} passes over {m} instances, {samples} epoch samples");
    for (seed, b) in seeds.iter().zip(&best) {
        eprintln!(
            "dls-perfbench:   instance {seed:#018x}: {} passes, fastest epochs sum to {:.4} s",
            b.passes,
            best_wall(std::slice::from_ref(b), 1) / 1e3
        );
    }
    out
}
