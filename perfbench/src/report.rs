//! Virtual outcomes of a run, medians, and the printed result.

use sod::runtime::{percentile_nearest_rank, ClusterReport, RunReport};

/// One request's report and its failure, if any, in report-slot order.
pub type Program = (RunReport, Option<String>);
pub type Programs = Vec<Program>;

/// Median of host-time samples (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Everything the benchmark reads off one run's reports. All of it is
/// virtual (simulated) and repeats exactly for the same seed.
pub struct Outcome {
    pub completed: u64,
    pub p50_ms: f64,
    /// Highest whole percentile with at least ten requests beyond its
    /// nearest rank; `tail_rank` is that rank.
    pub tail_pct: u32,
    pub tail_rank: u64,
    pub tail_ms: f64,
    pub wire_kb_per_request: f64,
    pub node_s: f64,
    pub instructions: u64,
    pub events: u64,
    pub migrations: u64,
    pub object_faults: u64,
    pub classes_shipped: u64,
    pub capture_us_p50: f64,
    pub transfer_state_us_p50: f64,
    pub transfer_class_us_p50: f64,
    pub restore_us_p50: f64,
    pub pool_spawns: u64,
    pub pool_drains: u64,
    pub pool_peak: u64,
    pub dropped_msgs: u64,
    pub timeouts: u64,
    pub retries: u64,
    pub lost_kib: f64,
}

fn p50_us(mut xs: Vec<u64>) -> f64 {
    xs.sort_unstable();
    percentile_nearest_rank(&xs, 50) as f64 / 1e3
}

impl Outcome {
    pub fn of(cl: &ClusterReport, programs: &[Program]) -> Outcome {
        let mut lat: Vec<u64> = programs
            .iter()
            .filter(|(r, e)| e.is_none() && r.finished_at_ns > 0)
            .map(|(r, _)| r.latency_ns())
            .collect();
        lat.sort_unstable();
        let n = lat.len() as u64;
        let rank = |p: u64| (p * n).div_ceil(100).max(1);
        let tail_pct = (50..=99u64)
            .rev()
            .find(|&p| n >= rank(p) + 10)
            .unwrap_or(50);
        let ms = |ns: u64| ns as f64 / 1e6;
        let migs: Vec<_> = programs
            .iter()
            .flat_map(|(r, _)| r.migrations.iter())
            .collect();
        let pool = cl.pools.first();
        Outcome {
            completed: n,
            p50_ms: ms(percentile_nearest_rank(&lat, 50)),
            tail_pct: tail_pct as u32,
            tail_rank: rank(tail_pct),
            tail_ms: ms(percentile_nearest_rank(&lat, tail_pct as u32)),
            wire_kb_per_request: cl.total_sent().total() as f64 / 1024.0 / n.max(1) as f64,
            node_s: cl.node_ns as f64 / 1e9,
            instructions: cl.per_node.iter().map(|p| p.instructions).sum(),
            events: cl.per_node.iter().map(|p| p.events).sum(),
            migrations: migs.len() as u64,
            object_faults: programs.iter().map(|(r, _)| r.object_faults).sum(),
            classes_shipped: programs.iter().map(|(r, _)| r.classes_shipped).sum(),
            capture_us_p50: p50_us(migs.iter().map(|m| m.capture_ns).collect()),
            transfer_state_us_p50: p50_us(migs.iter().map(|m| m.transfer_state_ns).collect()),
            transfer_class_us_p50: p50_us(migs.iter().map(|m| m.transfer_class_ns).collect()),
            restore_us_p50: p50_us(migs.iter().map(|m| m.restore_ns).collect()),
            pool_spawns: pool.map_or(0, |p| p.spawns),
            pool_drains: pool.map_or(0, |p| p.drains),
            pool_peak: pool.map_or(0, |p| p.peak),
            dropped_msgs: cl.chaos.dropped_msgs,
            timeouts: cl.chaos.timeouts,
            retries: cl.chaos.retries,
            lost_kib: cl.total_lost().total() as f64 / 1024.0,
        }
    }
}

/// Metrics in the order they were put, each with its unit and the
/// direction that is better.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, better: &'static str) {
        self.0.push((name.to_owned(), value, unit, better));
    }
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// A JSON number; a non-finite value (never expected) becomes null.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

impl RunResult {
    /// One human-readable line per metric, then the JSON result as the
    /// last line of standard output.
    pub fn print(&self) {
        for (name, value, unit, better) in &self.metrics.0 {
            println!(
                "metric {name} = {} {unit} ({better} is better)",
                num(*value)
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
