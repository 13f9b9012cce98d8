//! `plan-k1000`: the LPRR pin sweep on a K = 1000 island platform.
//!
//! A run cycles through several island platforms. Each pass generates one
//! and runs `Lprr::pin_sweep` with 24 probes on all cores (6500 LP rows,
//! the sparse-LU engine, scoped-thread sharding). The sweeps of the first
//! two platforms must be bit-identical to their sequential (`threads = 1`)
//! sweep, and every other sweep must repeat its platform's first sweep. A
//! traced pass then replays the sweep's stages through public calls to
//! time them one by one.

use crate::report::{
    another_pass, available_parallelism, best_wall, instance_seed, median, yardstick_ms, Best,
    Outcome,
};
use crate::watch::Watch;
use crate::Args;
use dls_bench::lp_perf::island_instance;
use dls_core::heuristics::{Lprr, PinSweepReport};
use dls_core::{LpFormulation, PinDelta, ProblemInstance};
use dls_lp::{RevisedSimplex, Status, WarmSimplex, WarmStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const K: usize = 1000;
const PROBES: usize = 24;
/// Platforms one run cycles through: enough that the run's figures do
/// not hinge on one platform's LP.
const INSTANCES: usize = 6;
/// Instances of each run whose sweep is checked against the sequential
/// sweep.
const REFERENCE_CHECKED: usize = 2;

/// The sweep's deterministic content: everything but the worker count.
fn same_sweep(a: &PinSweepReport, b: &PinSweepReport) -> bool {
    a.probes == b.probes
        && a.best == b.best
        && a.base_objective.to_bits() == b.base_objective.to_bits()
        && a.best_objective.to_bits() == b.best_objective.to_bits()
        && a.stage2_values.len() == b.stage2_values.len()
        && a.stage2_values
            .iter()
            .zip(&b.stage2_values)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn apply(w: &mut WarmSimplex, d: &PinDelta) -> Result<(), dls_lp::LpError> {
    w.set_var_bounds(d.var, d.lo, d.up)?;
    for &(con, var) in &d.coef_zeroed {
        w.set_coefficient(con, var, 0.0)?;
    }
    for &(con, rhs) in &d.rhs {
        w.set_rhs(con, rhs)?;
    }
    Ok(())
}

fn add_stats(total: &mut WarmStats, s: WarmStats, inherited: WarmStats) {
    total.solves += s.solves - inherited.solves;
    total.warm_solves += s.warm_solves - inherited.warm_solves;
    total.cold_solves += s.cold_solves - inherited.cold_solves;
    total.fallbacks += s.fallbacks - inherited.fallbacks;
    total.dual_pivots += s.dual_pivots - inherited.dual_pivots;
    total.primal_pivots += s.primal_pivots - inherited.primal_pivots;
    total.evictions += s.evictions - inherited.evictions;
    total.refactorisations += s.refactorisations - inherited.refactorisations;
}

/// Replays the sweep stage by stage on one thread: formulation, the cold
/// base solve, one clone + pinned warm solve per probe, and the canonical
/// stage 2 at the winning pin. Returns the per-layer values; a replay that
/// does not reproduce the sweep is reported on stderr (the replay times
/// the stages, it does not check the program).
fn replay(
    inst: &ProblemInstance,
    sweep: &PinSweepReport,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut m = BTreeMap::new();
    let t = Instant::now();
    let f = LpFormulation::relaxation_warm(inst).map_err(|e| e.to_string())?;
    m.insert("formulation.build_ms", ms(t));
    m.insert("lp.rows", f.model.num_constraints() as f64);

    let t = Instant::now();
    let mut base =
        WarmSimplex::new(f.model.clone(), RevisedSimplex::default()).map_err(|e| e.to_string())?;
    let base_sol = base.solve().map_err(|e| e.to_string())?;
    m.insert("lp.base_solve_ms", ms(t));
    let inherited = base.stats();
    let mut stats = inherited;

    let deltas: Vec<PinDelta> = sweep
        .probes
        .iter()
        .map(|p| f.pin_delta(inst, p.from, p.to, p.v))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let (mut clone_ms, mut solve_ms) = (0.0, 0.0);
    let mut agree = base_sol.objective.to_bits() == sweep.base_objective.to_bits();
    for (probe, delta) in sweep.probes.iter().zip(&deltas) {
        let t = Instant::now();
        let mut w = base.clone();
        clone_ms += ms(t);
        let t = Instant::now();
        apply(&mut w, delta).map_err(|e| e.to_string())?;
        let sol = w.solve().map_err(|e| e.to_string())?;
        solve_ms += ms(t);
        agree &= sol.objective.to_bits() == probe.objective.to_bits();
        add_stats(&mut stats, w.stats(), inherited);
    }
    m.insert("lp.probe_clone_ms", clone_ms);
    m.insert("lp.probe_solve_ms", solve_ms);

    let t = Instant::now();
    let mut w = base.clone();
    if let Some(b) = sweep.best {
        apply(&mut w, &deltas[b]).map_err(|e| e.to_string())?;
    }
    let stage1 = w.solve().map_err(|e| e.to_string())?;
    if let Some(z) = f.objective_var() {
        let z_star = stage1.values[z.index()];
        // The stage-2 floor of the sweep: the certified objective, relaxed
        // by a relative 1e-9.
        let floor = (z_star - 1e-9 * (1.0 + z_star.abs())).max(0.0);
        w.set_var_bounds(z, floor, f64::INFINITY)
            .map_err(|e| e.to_string())?;
        w.set_objective_coef(z, 0.0).map_err(|e| e.to_string())?;
        for (var, weight) in f.tiebreak_terms() {
            w.set_objective_coef(var, weight)
                .map_err(|e| e.to_string())?;
        }
        let canon = w.solve().map_err(|e| e.to_string())?;
        if canon.status == Status::Optimal {
            agree &= canon.values == sweep.stage2_values;
        }
    }
    m.insert("lp.stage2_ms", ms(t));
    add_stats(&mut stats, w.stats(), inherited);

    m.insert("lp.solves", stats.solves as f64);
    m.insert("lp.cold_solves", stats.cold_solves as f64);
    m.insert("lp.fallbacks", stats.fallbacks as f64);
    m.insert("lp.dual_pivots", stats.dual_pivots as f64);
    m.insert("lp.primal_pivots", stats.primal_pivots as f64);
    m.insert("lp.evictions", stats.evictions as f64);
    m.insert("lp.refactorisations", stats.refactorisations as f64);
    m.insert(
        "lp.warm_ratio",
        stats.warm_solves as f64 / (stats.solves as f64).max(1.0),
    );
    if let Some(fs) = base.factor_stats() {
        m.insert("lp.factor_nnz", fs.factor_nnz as f64);
        m.insert("lp.fill_ratio", fs.fill_ratio);
    }
    if !agree {
        eprintln!("dls-perfbench: note: the stage replay did not reproduce the sweep bit for bit");
    }
    Ok(m)
}

/// Runs `sweep` while a helper thread times the yardstick every 20 ms,
/// and returns the sweep's result with the median yardstick time. A sweep
/// outlasts the host's speed swings, so one reading next to it would not
/// do. The sweep keeps the second core busy only while it shards its
/// probes, a few percent of its time, and the helper uses under 2% of
/// that core.
fn during_sweep<T: Send>(sweep: impl FnOnce() -> T + Send) -> (T, f64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let helper = s.spawn(|| {
            let mut readings = Vec::new();
            while !done.load(Ordering::SeqCst) {
                readings.push(yardstick_ms());
                std::thread::sleep(Duration::from_millis(20));
            }
            readings
        });
        let out = sweep();
        done.store(true, Ordering::SeqCst);
        let readings = helper.join().expect("yardstick helper thread");
        (out, median(&readings))
    })
}

/// The sequential (`threads = 1`) sweep of `inst`: the reference every
/// sharded sweep of the same platform must repeat bit for bit.
fn reference(inst: &ProblemInstance, seed: u64, watch: &Watch) -> Result<PinSweepReport, String> {
    watch.attempt(PROBES as u64);
    watch.begin(0, PROBES as u64);
    let sweep = Lprr {
        threads: 1,
        ..Lprr::new(seed)
    }
    .pin_sweep(inst, PROBES);
    watch.end(0);
    let sweep = sweep.map_err(|e| {
        watch.fail(PROBES as u64);
        format!("instance {seed:#x}: sequential sweep: {e}")
    })?;
    if sweep.probes.len() != PROBES {
        return Err(format!(
            "instance {seed:#x}: the sweep made {} probes, not {PROBES}",
            sweep.probes.len()
        ));
    }
    Ok(sweep)
}

pub fn run(args: &Args, watch: &Watch) -> Outcome {
    let mut out = Outcome::default();
    let threads = Lprr::new(args.seed).resolved_threads();
    out.context.push(("instances", INSTANCES.to_string()));
    out.context.push(("sweep_threads", threads.to_string()));
    out.context.push(("probes", PROBES.to_string()));
    let seeds: Vec<u64> = (0..INSTANCES)
        .map(|i| instance_seed(args.seed, i))
        .collect();

    // Untimed: the sequential reference sweeps (which also warm the
    // caches).
    let mut expected: Vec<Option<PinSweepReport>> = vec![None; INSTANCES];
    for (i, &seed) in seeds.iter().enumerate().take(REFERENCE_CHECKED) {
        match reference(&island_instance(K, seed), seed, watch) {
            Ok(r) => expected[i] = Some(r),
            Err(e) => {
                out.fault(e);
                return out;
            }
        }
    }

    // The window: whole rounds over the instances (see `another_pass`). A
    // traced run follows each traced pass (sweep, then the stage replay)
    // with an untraced one.
    let mut best: Vec<Best> = vec![Best::default(); INSTANCES];
    let mut best_cal: Vec<Best> = vec![Best::default(); INSTANCES];
    let mut untraced: Vec<Best> = vec![Best::default(); INSTANCES];
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let window = Instant::now();
    let mut passes = 0usize;
    'window: while another_pass(passes, INSTANCES, window, args.seconds) {
        let i = passes % INSTANCES;
        passes += 1;
        let kinds: &[bool] = if args.trace { &[true, false] } else { &[false] };
        for &traced in kinds {
            let t0 = Instant::now();
            let inst = island_instance(K, seeds[i]);
            let setup_s = t0.elapsed().as_secs_f64();
            watch.attempt(PROBES as u64);
            watch.begin(0, PROBES as u64);
            let ((sweep, wall_s), yardstick) = during_sweep(|| {
                let t1 = Instant::now();
                let sweep = Lprr::new(seeds[i]).pin_sweep(&inst, PROBES);
                (sweep, t1.elapsed().as_secs_f64())
            });
            watch.end(0);
            let wall_cal = wall_s * 1e3 / yardstick;
            let sweep = match sweep {
                Ok(s) => s,
                Err(e) => {
                    watch.fail(PROBES as u64);
                    out.fault(format!("instance {:#x}: sweep: {e}", seeds[i]));
                    break 'window;
                }
            };
            match &expected[i] {
                Some(r) if !same_sweep(&sweep, r) => out.fault(format!(
                    "instance {:#x}: a {threads}-thread sweep differs from the instance's \
                     reference (its sequential sweep, or else its first sweep)",
                    seeds[i]
                )),
                Some(_) => {}
                None => {
                    if sweep.probes.len() != PROBES {
                        out.fault(format!(
                            "instance {:#x}: the sweep made {} probes, not {PROBES}",
                            seeds[i],
                            sweep.probes.len()
                        ));
                    }
                    expected[i] = Some(sweep.clone());
                }
            }
            if args.trace && !traced {
                untraced[i].add(setup_s, &[wall_s * 1e3]);
                continue;
            }
            best[i].add(setup_s, &[wall_s * 1e3]);
            best_cal[i].add(setup_s, &[wall_cal]);
            if traced {
                match replay(&inst, &sweep) {
                    Ok(mut m) => {
                        m.insert("platform.generate_ms", setup_s * 1e3);
                        m.insert("yardstick_ms", yardstick);
                        for (k, v) in m {
                            layers.entry(k).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        out.fault(format!("instance {:#x}: stage replay: {e}", seeds[i]));
                        break 'window;
                    }
                }
            }
        }
    }

    if args.trace {
        let mut values: BTreeMap<&'static str, f64> =
            layers.iter().map(|(k, v)| (*k, median(v))).collect();
        values.insert("trace.wall_s", best_wall(&best, 1) / 1e3);
        values.insert("trace.untraced_wall_s", best_wall(&untraced, 1) / 1e3);
        let samples: usize = best.iter().map(|b| b.samples).sum();
        values.insert("latency.samples", samples as f64);
        out.per_layer(&values);
    } else {
        out.end_to_end(&best_cal, &best, 1);
    }
    eprintln!(
        "dls-perfbench: {passes} sweeps over {INSTANCES} instances on {threads} threads ({} cores)",
        available_parallelism()
    );
    for (seed, b) in seeds.iter().zip(&best) {
        eprintln!(
            "dls-perfbench:   instance {seed:#018x}: {} sweeps, fastest {:.4} s",
            b.passes,
            best_wall(std::slice::from_ref(b), 1) / 1e3
        );
    }
    out
}
