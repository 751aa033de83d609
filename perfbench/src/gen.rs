//! Seeded input generation.  Everything the program under test receives
//! is made here from the run's `--seed`, with the benchmark's own random
//! number generator, so the inputs do not change when the program's
//! generators or its vendored `rand` do.

use dynscan_core::{GraphUpdate, VertexId};
use std::collections::HashMap;

/// SplitMix64: small, fast and fully specified.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `i`-th of an equidistributed sequence of Pareto(`alpha`) values on
/// `[1, cap]` (golden-ratio quantiles).  Community sizes and vertex
/// weights come from this fixed sequence and only their placement from
/// the seed, so every seed has the same heavy tail: seeds change the
/// wiring, not how many heavy vertices a run meets.
fn pareto_quantile(i: usize, alpha: f64, cap: f64) -> f64 {
    let u = ((i as f64 + 0.5) * 0.618_033_988_749_894_9).fract();
    (1.0 - u).powf(-1.0 / alpha).min(cap)
}

pub fn key(u: u32, v: u32) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    (u64::from(a) << 32) | u64::from(b)
}

pub fn unkey(k: u64) -> (u32, u32) {
    ((k >> 32) as u32, k as u32)
}

/// The benchmark's own record of the graph: an edge list with O(1)
/// membership, insertion and uniform removal.  It drives the update
/// streams and is the reference the output checks recompute from.
#[derive(Clone, Default)]
pub struct EdgeSet {
    edges: Vec<u64>,
    pos: HashMap<u64, usize>,
}

impl EdgeSet {
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn contains(&self, u: u32, v: u32) -> bool {
        self.pos.contains_key(&key(u, v))
    }

    pub fn insert(&mut self, u: u32, v: u32) -> bool {
        if u == v || self.contains(u, v) {
            return false;
        }
        let k = key(u, v);
        self.pos.insert(k, self.edges.len());
        self.edges.push(k);
        true
    }

    pub fn remove(&mut self, u: u32, v: u32) -> bool {
        let Some(i) = self.pos.remove(&key(u, v)) else {
            return false;
        };
        self.edges.swap_remove(i);
        if let Some(&moved) = self.edges.get(i) {
            self.pos.insert(moved, i);
        }
        true
    }

    pub fn random(&self, rng: &mut Rng) -> (u32, u32) {
        unkey(self.edges[rng.below(self.edges.len())])
    }

    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.edges.iter().map(|&k| unkey(k))
    }

    /// The edges as insertions, in a seed-determined order.
    pub fn as_inserts(&self) -> Vec<GraphUpdate> {
        self.iter()
            .map(|(u, v)| GraphUpdate::Insert(VertexId(u), VertexId(v)))
            .collect()
    }
}

/// A community graph with heavy-tailed community sizes and vertex
/// weights (Chung–Lu inside each community, weight-biased edges between
/// communities).
pub struct Communities {
    pub n: usize,
    pub members: Vec<Vec<u32>>,
    pub community_of: Vec<u32>,
    /// Vertices in proportion to weight, for weight-biased endpoint draws.
    pub by_weight: Vec<u32>,
}

pub struct CommunitySpec {
    pub n: usize,
    pub min_size: usize,
    pub max_size: usize,
    /// Expected intra-community degree of a weight-1 vertex.
    pub intra_degree: f64,
    /// Expected inter-community edges per vertex.
    pub inter_degree: f64,
    pub weight_cap: f64,
}

pub fn communities(spec: &CommunitySpec, rng: &mut Rng, edges: &mut EdgeSet) -> Communities {
    let n = spec.n;
    let mut members: Vec<Vec<u32>> = Vec::new();
    let mut community_of = vec![0u32; n];
    let mut next = 0usize;
    while next < n {
        let size = ((spec.min_size as f64) * pareto_quantile(members.len(), 1.6, 1e9))
            .min(spec.max_size as f64) as usize;
        let size = size.max(spec.min_size).min(n - next);
        let c = members.len() as u32;
        members.push((next..next + size).map(|v| v as u32).collect());
        community_of[next..next + size].fill(c);
        next += size;
    }
    let mut weight: Vec<f64> = (0..n)
        .map(|i| pareto_quantile(i, 2.2, spec.weight_cap))
        .collect();
    rng.shuffle(&mut weight);
    for group in &members {
        let total: f64 = group.iter().map(|&v| weight[v as usize]).sum();
        let mean = total / group.len() as f64;
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                let p = spec.intra_degree * weight[a as usize] * weight[b as usize]
                    / (mean * mean * group.len() as f64);
                if rng.unit() < p.min(0.95) {
                    edges.insert(a, b);
                }
            }
        }
    }
    let mut by_weight = Vec::new();
    for (v, &w) in weight.iter().enumerate() {
        for _ in 0..(w.round() as usize).max(1) {
            by_weight.push(v as u32);
        }
    }
    let inter = (spec.inter_degree * n as f64 / 2.0) as usize;
    let mut made = 0;
    while made < inter {
        let a = by_weight[rng.below(by_weight.len())];
        let b = by_weight[rng.below(by_weight.len())];
        if community_of[a as usize] != community_of[b as usize] && edges.insert(a, b) {
            made += 1;
        }
    }
    Communities {
        n,
        members,
        community_of,
        by_weight,
    }
}

impl Communities {
    /// A weight-biased vertex and a partner: inside its community with
    /// probability `p_intra`, anywhere (weight-biased) otherwise.
    pub fn pair(&self, rng: &mut Rng, p_intra: f64) -> (u32, u32) {
        let a = self.by_weight[rng.below(self.by_weight.len())];
        let b = if rng.unit() < p_intra {
            let group = &self.members[self.community_of[a as usize] as usize];
            group[rng.below(group.len())]
        } else {
            self.by_weight[rng.below(self.by_weight.len())]
        };
        (a, b)
    }

    /// `size` distinct random vertices for a group-by query.
    pub fn query(&self, rng: &mut Rng, size: usize) -> Vec<VertexId> {
        let mut q: Vec<u32> = (0..size).map(|_| rng.below(self.n) as u32).collect();
        q.sort_unstable();
        q.dedup();
        q.into_iter().map(VertexId).collect()
    }
}

/// One balanced update: an insertion of a fresh community-biased pair
/// when `insert`, else the deletion of a uniformly random live edge.
pub fn balanced_update(
    comm: &Communities,
    edges: &mut EdgeSet,
    rng: &mut Rng,
    insert: bool,
    p_intra: f64,
) -> GraphUpdate {
    if insert {
        loop {
            let (a, b) = comm.pair(rng, p_intra);
            if edges.insert(a, b) {
                return GraphUpdate::Insert(VertexId(a), VertexId(b));
            }
        }
    }
    let (a, b) = edges.random(rng);
    edges.remove(a, b);
    GraphUpdate::Delete(VertexId(a), VertexId(b))
}
