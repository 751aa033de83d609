//! Output checks.  Each compares the program's output with a
//! computation the benchmark makes itself from its own record of the
//! graph, or with a property the method guarantees:
//!
//! * every maintained label is ρ-valid against σ recomputed here by a
//!   sorted-merge intersection (similar ⇒ σ ≥ (1−ρ)ε, dissimilar ⇒
//!   σ < (1+ρ)ε);
//! * the maintained labels equal the labels the returned flips imply;
//! * the clustering is sandwiched between exact SCAN at (1+ρ)ε and at
//!   (1−ρ)ε;
//! * every group-by answer equals Q grouped by the full extraction.

use crate::gen::{key, EdgeSet};
use dynscan_baseline::StaticScan;
use dynscan_core::{
    DynStrClu, EdgeLabel, Params, SimilarityMeasure, Snapshot, StrCluResult, VertexId,
};
use dynscan_graph::DynGraph;
use std::collections::HashSet;

/// Sorted adjacency lists built from the benchmark's own edge record.
pub struct Adjacency {
    adj: Vec<Vec<u32>>,
}

impl Adjacency {
    pub fn new(edges: &EdgeSet, n: usize) -> Self {
        let mut adj = vec![Vec::new(); n];
        for (u, v) in edges.iter() {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        Adjacency { adj }
    }

    /// Exact structural similarity of the edge `(u, v)` over closed
    /// neighbourhoods: the common neighbours plus `u` and `v` themselves.
    pub fn sigma(&self, u: u32, v: u32, measure: SimilarityMeasure) -> f64 {
        let (a, b) = (&self.adj[u as usize], &self.adj[v as usize]);
        let (mut i, mut j, mut common) = (0, 0, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let inter = (common + 2) as f64;
        let (du, dv) = (a.len() as f64 + 1.0, b.len() as f64 + 1.0);
        match measure {
            SimilarityMeasure::Jaccard => inter / (du + dv - inter),
            SimilarityMeasure::Cosine => inter / (du * dv).sqrt(),
        }
    }
}

/// Tally of the label checks.
#[derive(Default, Debug)]
pub struct LabelReport {
    pub labels: u64,
    pub similar: u64,
    pub invalid: u64,
}

/// Restore the engine's own labelling from a full checkpoint of the
/// session and check it: one label per live edge, equal to the labelling
/// the flips imply, and ρ-valid against σ recomputed here.
pub fn check_labels(
    checkpoint: &[u8],
    edges: &EdgeSet,
    similar_from_flips: &HashSet<u64>,
    params: &Params,
    n: usize,
    errors: &mut Vec<String>,
) -> LabelReport {
    let engine = match DynStrClu::restore(checkpoint) {
        Ok(e) => e,
        Err(e) => {
            errors.push(format!("final checkpoint does not restore: {e}"));
            return LabelReport::default();
        }
    };
    let adj = Adjacency::new(edges, n);
    let (lo, hi) = (
        (1.0 - params.rho) * params.eps - 1e-12,
        (1.0 + params.rho) * params.eps,
    );
    let mut report = LabelReport::default();
    let mut seen = HashSet::new();
    let (mut dead, mut disagree) = (0u64, 0u64);
    for (edge, label) in engine.elm().labels() {
        let (u, v) = (edge.lo().0, edge.hi().0);
        report.labels += 1;
        seen.insert(key(u, v));
        if !edges.contains(u, v) {
            dead += 1;
            continue;
        }
        let sigma = adj.sigma(u, v, params.measure);
        let similar = label == EdgeLabel::Similar;
        report.similar += u64::from(similar);
        disagree += u64::from(similar != similar_from_flips.contains(&key(u, v)));
        let valid = if similar { sigma >= lo } else { sigma < hi };
        if !valid {
            report.invalid += 1;
            if report.invalid <= 5 {
                errors.push(format!(
                    "ρ-invalid label {label:?} on ({u}, {v}): σ = {sigma:.4}, ε = {}",
                    params.eps
                ));
            }
        }
    }
    if dead > 0 {
        errors.push(format!("{dead} labels on deleted edges"));
    }
    if disagree > 0 {
        errors.push(format!(
            "{disagree} labels disagree with the returned flips"
        ));
    }
    if seen.len() != edges.len() {
        errors.push(format!(
            "{} labels for {} live edges",
            seen.len(),
            edges.len()
        ));
    }
    if similar_from_flips.iter().any(|k| !seen.contains(k)) {
        errors.push("the flips leave a similar label on an edge the engine does not hold".into());
    }
    report
}

/// `a ⊑ b`: every cluster of `a` lies inside some cluster of `b`.
fn refines(a: &StrCluResult, b: &StrCluResult) -> bool {
    a.clusters().iter().all(|cluster| {
        let Some(&first) = cluster.first() else {
            return true;
        };
        b.clusters_of(first)
            .iter()
            .any(|&c| cluster.iter().all(|&v| b.clusters_of(v).contains(&c)))
    })
}

/// The sandwich guarantee of a ρ-approximate clustering:
/// SCAN((1+ρ)ε) ⊑ maintained ⊑ SCAN((1−ρ)ε), with exact SCAN run on a
/// graph rebuilt from the benchmark's own edge record.
pub fn check_sandwich(
    maintained: &StrCluResult,
    edges: &EdgeSet,
    params: &Params,
    errors: &mut Vec<String>,
) {
    let n = maintained.num_vertices();
    let mut graph = DynGraph::with_vertices(n);
    for (u, v) in edges.iter() {
        graph
            .insert_edge(VertexId(u), VertexId(v))
            .expect("the edge record holds a simple graph");
    }
    let strict = StaticScan::new((1.0 + params.rho) * params.eps, params.mu, params.measure);
    let loose = StaticScan::new((1.0 - params.rho) * params.eps, params.mu, params.measure);
    if !refines(&strict.cluster(&graph), maintained) {
        errors.push("a SCAN((1+ρ)ε) cluster is split by the maintained clustering".into());
    }
    if !refines(maintained, &loose.cluster(&graph)) {
        errors.push("a maintained cluster is split by SCAN((1−ρ)ε)".into());
    }
}

/// Q grouped by the clusters of a full extraction, in the canonical form
/// of the group-by API (members ascending, groups ordered).
pub fn group_by(clustering: &StrCluResult, q: &[VertexId]) -> Vec<Vec<VertexId>> {
    let mut pairs: Vec<(u32, VertexId)> = Vec::new();
    for &v in q {
        if v.index() < clustering.num_vertices() {
            for &c in clustering.clusters_of(v) {
                pairs.push((c, v));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut groups: Vec<Vec<VertexId>> = Vec::new();
    let mut current = None;
    for (c, v) in pairs {
        if current != Some(c) {
            groups.push(Vec::new());
            current = Some(c);
        }
        groups.last_mut().expect("pushed above").push(v);
    }
    groups.sort();
    groups
}

/// 64-bit FNV-1a, the checksum the service reports for its state.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
