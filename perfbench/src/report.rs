//! Metric catalogue, sample statistics and the result line.

use crate::watch::Watch;
use crate::Args;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run (`--trace 0`), in
/// the order `BENCHMARK.json` lists them. The `_cal` metrics are times
/// divided by the [`yardstick_ms`] time measured next to them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_cal", "cal"),
    ("setup_s", "s"),
    ("latency_p50_cal", "cal"),
    ("latency_p90_cal", "cal"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// the workload does not reach through the benchmark's calls reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("latency.samples", "count"),
    ("yardstick_ms", "ms"),
    ("platform.generate_ms", "ms"),
    ("policy.build_ms", "ms"),
    ("formulation.build_ms", "ms"),
    ("lp.rows", "count"),
    ("policy.decide_ms", "ms"),
    ("policy.decides", "count"),
    ("lp.solves", "count"),
    ("lp.cold_solves", "count"),
    ("lp.fallbacks", "count"),
    ("lp.dual_pivots", "count"),
    ("lp.primal_pivots", "count"),
    ("lp.evictions", "count"),
    ("lp.refactorisations", "count"),
    ("lp.warm_ratio", "ratio"),
    ("lp.base_solve_ms", "ms"),
    ("lp.probe_clone_ms", "ms"),
    ("lp.probe_solve_ms", "ms"),
    ("lp.stage2_ms", "ms"),
    ("lp.factor_nnz", "count"),
    ("lp.fill_ratio", "ratio"),
    ("engine.self_ms", "ms"),
    ("sim.events", "count"),
    ("scenario.epochs", "count"),
    ("sched.mean_response", "simtime"),
    ("service.first_reply_ms", "ms"),
    ("service.op_ms_p99", "ms"),
    ("service.create_ms_p50", "ms"),
    ("service.create_ms_sum", "ms"),
    ("service.create_ops", "count"),
    ("service.submit_ms_p50", "ms"),
    ("service.submit_ms_sum", "ms"),
    ("service.submit_ops", "count"),
    ("service.advance_ms_p50", "ms"),
    ("service.advance_ms_sum", "ms"),
    ("service.advance_ops", "count"),
    ("service.run_ms_p50", "ms"),
    ("service.run_ms_sum", "ms"),
    ("service.run_ops", "count"),
    ("service.query_ms_p50", "ms"),
    ("service.query_ms_sum", "ms"),
    ("service.query_ops", "count"),
];

/// The seed of instance `i` of a run with seed `seed`: the instances of
/// one run are distinct, and so are those of different seeds.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    splitmix(seed ^ splitmix(i as u64))
}

/// The splitmix64 finaliser.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Geometric mean of positive `xs` (0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Percentile `p` in `[0, 1]` of `xs`, interpolated linearly between
/// order statistics (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let at = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (at - lo as f64) * (v[hi] - v[lo])
}

/// Times the yardstick once, milliseconds: the faster of two runs of a
/// fixed kernel.
///
/// The shared hosts this benchmark runs on change speed by up to 2× from
/// one second to the next and by ±25% from one half-minute run to the
/// next, and every raw time moves with them. Each unit of work (epoch,
/// sweep or daemon pass) is therefore timed next to the yardstick, and
/// the `_cal` metrics divide the unit's time by it. The kernel does the
/// kinds of work the program does (dense elimination, a sort,
/// ordered-map inserts) in code the program cannot change, and it fits in
/// cache, so it barely disturbs the work it sits between.
pub fn yardstick_ms() -> f64 {
    (0..2)
        .map(|_| {
            let t = Instant::now();
            kernel();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn kernel() {
    const N: usize = 72;
    let mut a: Vec<f64> = (0..N * N)
        .map(|k| {
            let (i, j) = (k / N, k % N);
            if i == j {
                N as f64
            } else {
                ((i * 31 + j * 17) % 13) as f64 / 13.0
            }
        })
        .collect();
    for p in 0..N {
        let pivot = a[p * N + p];
        for r in p + 1..N {
            let f = a[r * N + p] / pivot;
            for c in p..N {
                a[r * N + c] -= f * a[p * N + c];
            }
        }
    }
    let mut keys: Vec<u64> = (0..4096u64).map(splitmix).collect();
    keys.sort_unstable();
    let map: BTreeMap<u64, u64> = keys.iter().step_by(4).map(|&k| (k, k >> 3)).collect();
    std::hint::black_box((a[N * N - 1], map.range(..keys[2048]).count()));
}

/// The least-disturbed reading of one instance: its fastest set-up and
/// each unit of work (epoch, sweep or op) at its fastest replica. Every
/// pass of an instance does the same work, so the spread between passes
/// is noise from the machine; the fastest replica is the reading least
/// touched by it. Taken unit by unit, it also drops the stalls a busy
/// host puts into some units of every pass.
#[derive(Debug, Clone)]
pub struct Best {
    /// Fastest set-up.
    pub setup_s: f64,
    /// Latency of each unit of work at its fastest replica.
    pub lat: Vec<f64>,
    /// Passes seen.
    pub passes: usize,
    /// Latency samples seen over all passes.
    pub samples: usize,
}

impl Default for Best {
    fn default() -> Best {
        Best {
            setup_s: f64::INFINITY,
            lat: Vec::new(),
            passes: 0,
            samples: 0,
        }
    }
}

impl Best {
    /// Records one pass. `lat` lists the pass's units of work in a fixed
    /// order; each is kept at its fastest replica.
    pub fn add(&mut self, setup_s: f64, lat: &[f64]) {
        self.passes += 1;
        self.samples += lat.len();
        self.setup_s = self.setup_s.min(setup_s);
        if self.lat.len() == lat.len() {
            for (best, &x) in self.lat.iter_mut().zip(lat) {
                *best = best.min(x);
            }
        } else {
            self.lat = lat.to_vec();
        }
    }
}

/// The wall time of the instances' work: for each instance, the sum of its
/// units at their fastest replicas, divided over the `lanes` (client
/// connections) that ran them side by side; then the geometric mean over
/// the instances that ran (0 when none did). In the units of
/// [`Best::lat`].
pub fn best_wall(instances: &[Best], lanes: usize) -> f64 {
    let walls: Vec<f64> = instances
        .iter()
        .filter(|b| b.passes > 0)
        .map(|b| b.lat.iter().sum::<f64>() / lanes as f64)
        .collect();
    geomean(&walls)
}

/// Whether a window that cycles through `instances` instances, one pass
/// each in turn, makes another pass after `passes`. It runs whole rounds,
/// at least [`MIN_ROUNDS`] of them, until `seconds` have passed since
/// `window`. Every instance then has as many replicas as the others and at
/// least two, so on a slow host the fastest replica leans less on how many
/// passes fitted in.
pub fn another_pass(passes: usize, instances: usize, window: Instant, seconds: f64) -> bool {
    !passes.is_multiple_of(instances)
        || passes < MIN_ROUNDS * instances
        || window.elapsed().as_secs_f64() < seconds
}

/// Rounds over the instances a window makes at least.
const MIN_ROUNDS: usize = 2;

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks that failed; the run is correct iff this is empty.
    pub faults: Vec<String>,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Workload-specific run context (threads, connections, workers).
    pub context: Vec<(&'static str, String)>,
    /// The workload thread died: exit non-zero after printing.
    pub panicked: bool,
}

impl Outcome {
    /// Records a failed output check.
    pub fn fault(&mut self, msg: String) {
        eprintln!("dls-perfbench: check failed: {msg}");
        self.faults.push(msg);
    }

    /// Fills the end-to-end metrics from the instances' fastest readings,
    /// in yardstick units (`cal`): the wall time as [`best_wall`] gives
    /// it, and the latency percentiles pooled over every instance's units
    /// of work. `setup_s` is the geometric mean of the instances' fastest
    /// set-ups in seconds. The `raw` readings, in milliseconds, give the
    /// raw times of the context line.
    pub fn end_to_end(&mut self, cal: &[Best], raw: &[Best], lanes: usize) {
        let pooled =
            |bs: &[Best]| -> Vec<f64> { bs.iter().flat_map(|b| b.lat.iter().copied()).collect() };
        let (lat_cal, lat_raw) = (pooled(cal), pooled(raw));
        let values = [
            best_wall(cal, lanes),
            geomean(&raw.iter().map(|b| b.setup_s).collect::<Vec<_>>()),
            percentile(&lat_cal, 0.5),
            percentile(&lat_cal, 0.9),
        ];
        self.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        let raw_values = [
            ("raw_wall_s", best_wall(raw, lanes) / 1e3),
            ("raw_latency_ms_p50", percentile(&lat_raw, 0.5)),
            ("raw_latency_ms_p90", percentile(&lat_raw, 0.9)),
        ];
        for (name, v) in raw_values {
            self.context.push((name, format!("{v:?}")));
        }
        self.context
            .push(("latency_samples", lat_cal.len().to_string()));
    }

    /// Fills the per-layer metrics from `values`; names the workload does
    /// not measure read 0.
    pub fn per_layer(&mut self, values: &BTreeMap<&'static str, f64>) {
        for name in values.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "per-layer metric `{name}` is not in the catalogue"
            );
        }
        self.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect();
    }

    /// Prints the run context, then the result object as the last line of
    /// standard output.
    pub fn print(&self, args: &Args, watch: &Watch) {
        let mut ctx = vec![
            ("workload", json_str(&args.workload)),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("nproc", available_parallelism().to_string()),
            ("cpu", json_str(&cpu_model())),
        ];
        ctx.extend(self.context.iter().cloned());
        let ctx: Vec<String> = ctx.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        println!("{{\"context\": {{{}}}}}", ctx.join(", "));

        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.faults.is_empty(),
            watch.attempted().max(1),
            watch.failed(),
            metrics.join(", ")
        );
    }
}

/// Cores the process may use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The processor's brand string, read with `cpuid` (no file access).
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x8000_0000 reports which extended leaves may be queried.
        let max = __cpuid(0x8000_0000).eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            return s
                .trim_matches(|c: char| c == '\0' || c.is_whitespace())
                .to_string();
        }
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(percentile(&[1.0, 3.0], 0.5), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn windows_run_whole_rounds() {
        let spent = Instant::now();
        let stops = |n| (0..).find(|&p| !another_pass(p, n, spent, 0.0)).unwrap();
        assert_eq!(stops(6), 12);
        assert_eq!(stops(1), 2);
        let open = Instant::now();
        assert!(another_pass(12, 6, open, 60.0));
        assert!(another_pass(13, 6, spent, 0.0));
    }

    /// The catalogue here and `BENCHMARK.json` at the repository root name
    /// the same metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = serde_json::from_str_value(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
