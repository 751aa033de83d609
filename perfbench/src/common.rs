//! What every workload shares: the run's outcome and metrics, timing
//! statistics, the record of a run's inputs and outputs that the traced
//! replays consume, and the labelling model the returned flips imply.

use crate::gen::key;
use dynscan_core::{Backend, EdgeLabel, FlippedEdge, GraphUpdate, Params};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::time::Instant;

pub struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// The raw end-to-end measurements of an untraced run.
    pub samples: Samples,
    /// Attempted and failed operations, per operation type.
    pub ops: BTreeMap<String, (u64, u64)>,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            metrics: Vec::new(),
            samples: Samples::default(),
            ops: BTreeMap::new(),
            errors: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn metrics(&self) -> &[(&'static str, f64, &'static str)] {
        &self.metrics
    }

    pub fn op(&mut self, kind: &str, ok: bool) {
        self.ops_add(kind, 1, u64::from(!ok));
    }

    pub fn ops_add(&mut self, kind: &str, attempted: u64, failed: u64) {
        let e = self.ops.entry(kind.to_string()).or_insert((0, 0));
        e.0 += attempted;
        e.1 += failed;
    }

    /// A mechanism guard: the workload must keep exercising its layer.
    pub fn guard(&mut self, holds: bool, what: &str) {
        if !holds {
            self.errors.push(format!("guard failed: {what}"));
        }
    }
}

/// The raw end-to-end measurements of one process.  A run combines the
/// samples of several processes (see `main` and [`Samples::report`]).
#[derive(Default, Debug)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    /// One latency per write (an update, a burst or an acknowledged batch).
    pub write_ms: Vec<f64>,
    pub updates: u64,
    /// Time spent applying `updates`.
    pub update_ms: f64,
    pub queries: u64,
    /// Time spent answering `queries`.
    pub query_ms: f64,
    pub extract_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub checkpoint_mb: Vec<f64>,
    pub memory_mb: Vec<f64>,
}

impl Samples {
    /// The sample lists, by name, for the child-to-parent line format.
    fn lists(&mut self) -> [(&'static str, &mut Vec<f64>); 6] {
        [
            ("setup_s", &mut self.setup_s),
            ("write_ms", &mut self.write_ms),
            ("extract_ms", &mut self.extract_ms),
            ("restore_ms", &mut self.restore_ms),
            ("checkpoint_mb", &mut self.checkpoint_mb),
            ("memory_mb", &mut self.memory_mb),
        ]
    }

    /// Serialise as lines: `S <name> <values…>` and `C <name> <value>`.
    pub fn encode(&mut self) -> String {
        let mut text = format!(
            "C updates {}\nC update_ms {}\nC queries {}\nC query_ms {}\n",
            self.updates, self.update_ms, self.queries, self.query_ms
        );
        for (name, values) in self.lists() {
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            text += &format!("S {name} {}\n", values.join(" "));
        }
        text
    }

    /// Read one line of [`Samples::encode`]; false if it is not one.
    pub fn read_line(&mut self, line: &str) -> bool {
        let mut words = line.split_whitespace();
        let (Some(tag), Some(name)) = (words.next(), words.next()) else {
            return false;
        };
        let values: Vec<f64> = words.filter_map(|w| w.parse().ok()).collect();
        match (tag, name) {
            ("C", "updates") => self.updates = values.iter().sum::<f64>() as u64,
            ("C", "update_ms") => self.update_ms = values.iter().sum(),
            ("C", "queries") => self.queries = values.iter().sum::<f64>() as u64,
            ("C", "query_ms") => self.query_ms = values.iter().sum(),
            ("S", _) => match self.lists().into_iter().find(|(n, _)| *n == name) {
                Some((_, list)) => *list = values,
                None => return false,
            },
            _ => return false,
        }
        true
    }

    /// The end-to-end metrics of a run from the samples of its
    /// processes.  Throughputs divide the pooled work by the pooled time;
    /// medians and percentiles are taken over the per-operation medians
    /// of [`across`].
    pub fn report(processes: &[Samples], out: &mut Outcome) {
        let sum = |f: &dyn Fn(&Samples) -> f64| processes.iter().map(f).sum::<f64>();
        let writes = across(processes, |s| &s.write_ms);
        out.metric("setup_s", median(&across(processes, |s| &s.setup_s)), "s");
        out.metric(
            "update_throughput",
            sum(&|s| s.updates as f64) / (sum(&|s| s.update_ms) / 1e3),
            "updates/s",
        );
        out.metric("write_p50_ms", percentile(&writes, 0.5), "ms");
        out.metric("write_p99_ms", percentile(&writes, 0.99), "ms");
        out.metric(
            "query_throughput",
            sum(&|s| s.queries as f64) / (sum(&|s| s.query_ms) / 1e3),
            "queries/s",
        );
        let stat = |list: fn(&Samples) -> &Vec<f64>| median(&across(processes, list));
        out.metric("extract_ms", stat(|s| &s.extract_ms), "ms");
        out.metric("checkpoint_mb", stat(|s| &s.checkpoint_mb), "MB");
        out.metric("restore_ms", stat(|s| &s.restore_ms), "ms");
        out.metric("memory_mb", stat(|s| &s.memory_mb), "MB");
    }
}

/// Per-operation medians across processes.  Every process of a run runs
/// the same operation sequence from the same initial state, so the `i`-th
/// sample of each list times the same operation on the same state.  Entry
/// `i` is the median of those samples over the processes that reached
/// it, kept while at least half of the processes did: a slow spell of
/// the machine strikes one process at a time and drops out of the
/// median, while an operation that is slow in every process stays.
fn across(processes: &[Samples], list: fn(&Samples) -> &Vec<f64>) -> Vec<f64> {
    let lists: Vec<&Vec<f64>> = processes.iter().map(list).collect();
    let quorum = lists.len().div_ceil(2).max(1);
    let mut medians = Vec::new();
    for i in 0.. {
        let at: Vec<f64> = lists.iter().filter_map(|l| l.get(i).copied()).collect();
        if at.len() < quorum {
            break;
        }
        medians.push(median(&at));
    }
    medians
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in `[0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The engine configuration a workload runs with, so replays can build
/// the same engine.
#[derive(Clone, Copy)]
pub struct EngineCfg {
    pub backend: Backend,
    pub params: Params,
    pub threads: usize,
    pub budget: Option<usize>,
}

/// A run's inputs and outputs, as the traced replays need them.
pub struct Recorded {
    pub cfg: EngineCfg,
    pub n: usize,
    pub initial: Vec<GraphUpdate>,
    pub initial_flips: Vec<FlippedEdge>,
    /// A full checkpoint of the engine right after the initial load.
    pub initial_ckpt: Vec<u8>,
    /// One entry per write (one update, one burst or one batch).
    pub writes: Vec<Vec<GraphUpdate>>,
    pub write_flips: Vec<Vec<FlippedEdge>>,
    /// Writes go through `Session::apply` one update at a time.
    pub single: bool,
}

/// The similar-edge set and sim-core graph `G_core` the returned flips
/// imply, maintained by the benchmark without the engine's help.
pub struct FlipModel {
    mu: usize,
    pub similar: HashSet<u64>,
    sim_adj: Vec<BTreeSet<u32>>,
    core: Vec<bool>,
    gcore: HashSet<u64>,
}

/// A change of `G_core`: `(inserted, u, v)`.
pub type GcoreChange = (bool, u32, u32);

impl FlipModel {
    pub fn new(mu: usize, n: usize) -> Self {
        FlipModel {
            mu,
            similar: HashSet::new(),
            sim_adj: vec![BTreeSet::new(); n],
            core: vec![false; n],
            gcore: HashSet::new(),
        }
    }

    fn grow(&mut self, v: u32) {
        let n = v as usize + 1;
        if self.sim_adj.len() < n {
            self.sim_adj.resize(n, BTreeSet::new());
            self.core.resize(n, false);
        }
    }

    /// Fold one write's net flips in and append the `G_core` edge
    /// changes they cause, in a deterministic order.
    pub fn apply(&mut self, flips: &[FlippedEdge], changes: &mut Vec<GcoreChange>) {
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        for &(edge, label) in flips {
            let (u, v) = (edge.lo().0, edge.hi().0);
            self.grow(u.max(v));
            if label == EdgeLabel::Similar {
                self.similar.insert(key(u, v));
                self.sim_adj[u as usize].insert(v);
                self.sim_adj[v as usize].insert(u);
            } else {
                self.similar.remove(&key(u, v));
                self.sim_adj[u as usize].remove(&v);
                self.sim_adj[v as usize].remove(&u);
            }
            candidates.push((u, v));
            touched.extend([u, v]);
        }
        touched.sort_unstable();
        touched.dedup();
        for x in touched {
            let core = self.sim_adj[x as usize].len() >= self.mu;
            if core != self.core[x as usize] {
                self.core[x as usize] = core;
                candidates.extend(
                    self.sim_adj[x as usize]
                        .iter()
                        .map(|&w| (x.min(w), x.max(w))),
                );
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        for (u, v) in candidates {
            let k = key(u, v);
            let want = self.similar.contains(&k) && self.core[u as usize] && self.core[v as usize];
            if want != self.gcore.contains(&k) {
                if want {
                    self.gcore.insert(k);
                } else {
                    self.gcore.remove(&k);
                }
                changes.push((want, u, v));
            }
        }
    }
}

/// Print the result line the benchmark contract asks for: the last line
/// of standard output, one JSON object.
pub fn print_result(outcome: &Outcome) {
    for (kind, (attempted, failed)) in &outcome.ops {
        println!("ops {kind}: attempted {attempted}, failed {failed}");
    }
    for e in &outcome.errors {
        println!("check failed: {e}");
    }
    let attempted: u64 = outcome.ops.values().map(|o| o.0).sum();
    let failed: u64 = outcome.ops.values().map(|o| o.1).sum();
    let metrics: Vec<String> = outcome
        .metrics()
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        attempted,
        failed,
        metrics.join(", ")
    );
}
