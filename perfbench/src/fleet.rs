//! `service-fleet`: the daemon's request path under a tenant fleet.
//!
//! Each pass boots an in-process `Server` with 2 workers and drives it
//! over loopback from 2 client connections in a closed loop (every client
//! waits for its reply, as `dls-cli submit` does). 1024 K = 5 `periodic`
//! tenants each run the script create → 6 × (submit 2 jobs, advance 1) →
//! run → query, round-robin over the tenants of a connection. Every op
//! must succeed, and every tenant's final report must be bit-identical to
//! the same timeline run alone in-process.

use crate::report::{best_wall, median, percentile, splitmix, yardstick_ms, Best, Outcome};
use crate::watch::Watch;
use crate::Args;
use dls_experiments::PolicyKind;
use dls_scenario::catalog::paper_shape_instance;
use dls_scenario::{run_scenario, JobSpec, Scenario, ScenarioConfig, ScenarioReport};
use dls_service::{Client, Op, RespBody, Server, ServiceConfig, TenantSpec};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const TENANTS: usize = 1024;
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
const CLUSTERS: usize = 5;
const PERIOD: f64 = 10.0;
const BATCHES: usize = 6;
const JOBS_PER_BATCH: usize = 2;
/// create, BATCHES × (submit, advance), run, query.
const OPS_PER_TENANT: usize = 2 * BATCHES + 3;
/// Timed passes a run makes at least, whatever `--seconds` says: enough
/// that each op's fastest replica does not lean on how many passes fitted
/// in when the host is slow.
const MIN_PASSES: usize = 6;
/// Ops between two yardstick runs on a client.
const OPS_PER_YARDSTICK: usize = 8;

const KINDS: [&str; 5] = ["create", "submit", "advance", "run", "query"];

fn tenant_name(t: usize) -> String {
    format!("t{t}")
}

fn tenant_spec(seed: u64, t: usize) -> TenantSpec {
    TenantSpec {
        clusters: CLUSTERS,
        seed: splitmix(seed ^ splitmix(t as u64)),
        policy: "periodic".into(),
        period: PERIOD,
        engine: "incremental".into(),
        record_events: false,
    }
}

/// Batch `b` of tenant `t`. It arrives inside period `b`, after the last
/// boundary the tenant has executed when the batch is submitted, so every
/// submission is admissible.
fn batch_jobs(seed: u64, t: usize, b: usize) -> Vec<JobSpec> {
    (0..JOBS_PER_BATCH)
        .map(|j| {
            let r = splitmix(seed ^ splitmix(((t * BATCHES + b) * JOBS_PER_BATCH + j) as u64));
            JobSpec {
                arrival: b as f64 * PERIOD + 1.0 + 3.0 * j as f64,
                origin: (r % CLUSTERS as u64) as u32,
                size: 60.0 + 10.0 * ((r >> 8) % 5) as f64,
                weight: 1.0,
            }
        })
        .collect()
}

/// Op `step` of tenant `t`'s script, with its kind (an index into
/// [`KINDS`]).
fn script_op(seed: u64, t: usize, step: usize) -> (usize, Op) {
    let tenant = tenant_name(t);
    match step {
        0 => (
            0,
            Op::CreateTenant {
                tenant,
                spec: tenant_spec(seed, t),
            },
        ),
        s if s <= 2 * BATCHES && s % 2 == 1 => (
            1,
            Op::Submit {
                tenant,
                jobs: batch_jobs(seed, t, s / 2),
            },
        ),
        s if s <= 2 * BATCHES => (2, Op::Advance { tenant, epochs: 1 }),
        s if s == 2 * BATCHES + 1 => (3, Op::Run { tenant }),
        _ => (4, Op::Query { tenant }),
    }
}

/// Tenant `t`'s timeline run alone, in-process: what the daemon must
/// reproduce bit for bit.
fn reference(seed: u64, t: usize) -> Result<ScenarioReport, String> {
    let spec = tenant_spec(seed, t);
    let inst = paper_shape_instance(spec.clusters, spec.seed);
    let mut policy = PolicyKind::parse(&spec.policy)
        .ok_or("unknown policy")?
        .build(&inst)
        .map_err(|e| e.to_string())?;
    let mut scenario = Scenario {
        name: tenant_name(t),
        period: spec.period,
        jobs: (0..BATCHES).flat_map(|b| batch_jobs(seed, t, b)).collect(),
        platform_events: Vec::new(),
    };
    scenario.normalise();
    run_scenario(
        &inst,
        &scenario,
        policy.as_mut(),
        &ScenarioConfig::default(),
    )
    .map_err(|e| format!("tenant {t} reference run: {e}"))
}

/// The report with the wall-clock field zeroed: the bit-identity form.
fn canonical(report: &ScenarioReport) -> String {
    let mut r = report.clone();
    r.reschedule_ms = 0.0;
    r.to_json()
}

/// A running in-process daemon; dropping it drains it and joins its
/// thread.
struct Daemon {
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            match t.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("dls-perfbench: daemon exited with {e}"),
                Err(_) => eprintln!("dls-perfbench: daemon thread panicked"),
            }
        }
    }
}

/// What one connection's client saw over a pass.
#[derive(Default)]
struct Drive {
    /// Per-op latency, milliseconds, by kind.
    lat_ms: [Vec<f64>; 5],
    /// The same in yardstick units.
    lat_cal: [Vec<f64>; 5],
    reports: Vec<(usize, ScenarioReport)>,
    errors: Vec<String>,
}

fn drive(slot: usize, mut client: Client, seed: u64, watch: &Watch) -> Drive {
    let mut d = Drive::default();
    let mine: Vec<usize> = (slot..TENANTS).step_by(CONNECTIONS).collect();
    let mut yardstick = 0.0;
    for step in 0..OPS_PER_TENANT {
        for (n, &t) in mine.iter().enumerate() {
            // The client's think time: the yardstick, every few ops.
            if n % OPS_PER_YARDSTICK == 0 {
                yardstick = yardstick_ms();
            }
            let (kind, op) = script_op(seed, t, step);
            watch.attempt(1);
            watch.begin(slot, 1);
            let t0 = Instant::now();
            let reply = client.expect_ok(op);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            watch.end(slot);
            match reply {
                Ok(body) => {
                    d.lat_ms[kind].push(ms);
                    d.lat_cal[kind].push(ms / yardstick);
                    if let RespBody::Report { report, .. } = body {
                        d.reports.push((t, *report));
                    }
                }
                Err(e) => {
                    watch.fail(1);
                    if d.errors.len() < 3 {
                        d.errors.push(format!("{} on tenant {t}: {e}", KINDS[kind]));
                    }
                }
            }
        }
    }
    d
}

struct Pass {
    setup_s: f64,
    first_reply_ms: Vec<f64>,
    drives: Vec<Drive>,
}

fn run_pass(seed: u64, watch: &Watch) -> Result<Pass, String> {
    let t0 = Instant::now();
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        checkpoint_dir: None,
        checkpoint_every: 0,
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let _daemon = Daemon {
        shutdown: server.shutdown_handle(),
        thread: Some(std::thread::spawn(move || server.run())),
    };
    let mut clients = Vec::new();
    let mut first_reply_ms = Vec::new();
    for _ in 0..CONNECTIONS {
        let c0 = Instant::now();
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client
            .expect_ok(Op::Hello)
            .map_err(|e| format!("hello: {e}"))?;
        first_reply_ms.push(c0.elapsed().as_secs_f64() * 1e3);
        clients.push(client);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let drives = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(slot, client)| s.spawn(move || drive(slot, client, seed, watch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    Ok(Pass {
        setup_s,
        first_reply_ms,
        drives,
    })
}

pub fn run(args: &Args, watch: &Watch) -> Outcome {
    let mut out = Outcome::default();
    out.context
        .push(("client_threads", CONNECTIONS.to_string()));
    out.context.push(("connections", CONNECTIONS.to_string()));
    out.context.push(("daemon_workers", WORKERS.to_string()));
    out.context.push(("tenants", TENANTS.to_string()));
    out.context.push(("loop", "\"closed\"".into()));

    let mut expected = Vec::with_capacity(TENANTS);
    let mut mean_response = 0.0;
    for t in 0..TENANTS {
        match reference(args.seed, t) {
            Ok(r) => {
                if r.completed_jobs != r.jobs {
                    out.fault(format!(
                        "tenant {t}: {} of {} jobs completed",
                        r.completed_jobs, r.jobs
                    ));
                }
                mean_response += r.mean_response / TENANTS as f64;
                expected.push(canonical(&r));
            }
            Err(e) => {
                out.fault(e);
                return out;
            }
        }
    }

    let mut best = Best::default();
    let mut best_cal = Best::default();
    let mut yardsticks = Vec::new();
    let mut first_reply = Vec::new();
    let mut lat_by_kind: [Vec<f64>; 5] = Default::default();
    let mut sums_by_kind: [Vec<f64>; 5] = Default::default();
    // The first pass is a warm-up: checked, not timed.
    let window = Instant::now();
    let mut passes = 0usize;
    while passes <= MIN_PASSES || window.elapsed().as_secs_f64() < args.seconds {
        let warmup = passes == 0;
        passes += 1;
        let pass = match run_pass(args.seed, watch) {
            Ok(p) => p,
            Err(e) => {
                watch.fail(1);
                out.fault(e);
                break;
            }
        };
        let mut seen = 0usize;
        for d in &pass.drives {
            for e in &d.errors {
                out.fault(format!("pass {passes}: {e}"));
            }
            for (t, report) in &d.reports {
                seen += 1;
                if canonical(report) != expected[*t] {
                    out.fault(format!(
                        "pass {passes}: tenant {t} differs from its single-tenant run"
                    ));
                }
            }
        }
        if seen != TENANTS {
            out.fault(format!(
                "pass {passes}: {seen} of {TENANTS} tenants reported"
            ));
        }
        if !out.faults.is_empty() {
            break;
        }
        if warmup {
            continue;
        }
        first_reply.extend(pass.first_reply_ms);
        for d in &pass.drives {
            for (all, lat) in lat_by_kind.iter_mut().zip(&d.lat_ms) {
                all.extend_from_slice(lat);
            }
        }
        // Every op of the pass, in script order. A connection's time is
        // the sum of its op latencies: the yardstick runs between ops do
        // not count.
        let ops = |f: fn(&Drive) -> &[Vec<f64>; 5]| -> Vec<f64> {
            pass.drives
                .iter()
                .flat_map(|d| f(d).iter().flatten())
                .copied()
                .collect()
        };
        let (ops_ms, ops_cal) = (ops(|d| &d.lat_ms), ops(|d| &d.lat_cal));
        yardsticks.push(ops_ms.iter().sum::<f64>() / ops_cal.iter().sum::<f64>());
        best.add(pass.setup_s, &ops_ms);
        best_cal.add(pass.setup_s, &ops_cal);
        for (k, sums) in sums_by_kind.iter_mut().enumerate() {
            sums.push(pass.drives.iter().flat_map(|d| &d.lat_ms[k]).sum());
        }
    }

    let all: Vec<f64> = lat_by_kind.iter().flatten().copied().collect();
    let wall_s = best_wall(std::slice::from_ref(&best), CONNECTIONS) / 1e3;
    if args.trace {
        let mut m = BTreeMap::new();
        // The daemon's request path has no cheaper untraced form: the
        // client timestamps every op either way.
        m.insert("trace.wall_s", wall_s);
        m.insert("trace.untraced_wall_s", wall_s);
        m.insert("latency.samples", all.len() as f64);
        m.insert("sched.mean_response", mean_response);
        m.insert("service.first_reply_ms", median(&first_reply));
        m.insert("yardstick_ms", median(&yardsticks));
        m.insert("service.op_ms_p99", percentile(&all, 0.99));
        const NAMES: [[&str; 3]; 5] = [
            [
                "service.create_ms_p50",
                "service.create_ms_sum",
                "service.create_ops",
            ],
            [
                "service.submit_ms_p50",
                "service.submit_ms_sum",
                "service.submit_ops",
            ],
            [
                "service.advance_ms_p50",
                "service.advance_ms_sum",
                "service.advance_ops",
            ],
            [
                "service.run_ms_p50",
                "service.run_ms_sum",
                "service.run_ops",
            ],
            [
                "service.query_ms_p50",
                "service.query_ms_sum",
                "service.query_ops",
            ],
        ];
        let timed = best.passes.max(1) as f64;
        for (k, [p50, sum, ops]) in NAMES.iter().enumerate() {
            m.insert(*p50, percentile(&lat_by_kind[k], 0.5));
            m.insert(*sum, median(&sums_by_kind[k]));
            m.insert(*ops, lat_by_kind[k].len() as f64 / timed);
        }
        out.per_layer(&m);
    } else {
        // The fleet is one instance: 1024 tenants already average over
        // platforms.
        out.end_to_end(
            std::slice::from_ref(&best_cal),
            std::slice::from_ref(&best),
            CONNECTIONS,
        );
        let ops_per_pass = (TENANTS * OPS_PER_TENANT) as f64;
        out.context
            .push(("ops_per_s", format!("{:?}", ops_per_pass / wall_s)));
    }
    eprintln!(
        "dls-perfbench: {} timed passes, {} op samples, op p50 {:.4} ms, p99 {:.4} ms",
        best.passes,
        all.len(),
        percentile(&all, 0.5),
        percentile(&all, 0.99)
    );
    out
}
