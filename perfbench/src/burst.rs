//! `burst-hubs-tiered`: the regime where the paper's sampling mechanism
//! should pay off.  Localised bursts (`apply_batch`) hit a hub-heavy
//! community graph under cosine similarity with ε·ρ large enough that
//! the sample size L falls below hub degrees (so hub edges are
//! estimated by sampling and hub DT thresholds exceed one update).  The
//! engine runs on a two-worker pool under a memory budget below its hot
//! set, so neighbourhoods are demoted to the cold tier and promoted back.

use crate::check;
use crate::common::{ms, percentile, EngineCfg, FlipModel, Outcome, Recorded, Samples};
use crate::gen::{communities, CommunitySpec, EdgeSet, Rng};
use crate::replay;
use crate::stream::{setup, sim_layer};
use crate::trace::Tracer;
use dynscan_core::{Backend, GraphUpdate, Params, Session, VertexId};
use dynscan_graph::DynGraph;
use std::time::{Duration, Instant};

const SPEC: CommunitySpec = CommunitySpec {
    n: 20_000,
    min_size: 8,
    max_size: 60,
    intra_degree: 12.0,
    inter_degree: 2.0,
    weight_cap: 20.0,
};
/// Hubs come in groups; the hubs of a group share one pool of fan
/// vertices, so hub–hub edges inside a group are similar and both of
/// their endpoints have degree far above the sample size.
const HUB_GROUPS: usize = 6;
const HUBS_PER_GROUP: usize = 8;
const POOL: usize = 1_200;
const P_FAN: f64 = 0.6;
const BURST: usize = 64;
const BURSTS_PER_ROUND: usize = 8;
const QUERIES: usize = 16;
const QUERY_SIZE: usize = 256;
/// Rounds between two timed restores of a fresh full checkpoint.
const RESTORE_EVERY: u64 = 20;
/// Upper bound on the distinct edges one run can label (initial edges
/// plus insertions); δ* is chosen so that the union bound over them,
/// M·δ*, is 10⁻³.
const MAX_INSERTS: usize = 1_000_000;

struct Hubs {
    /// `hubs[g]`: the hub vertices of group `g`; `pool[g]`: its fans.
    hubs: Vec<Vec<u32>>,
    pool: Vec<Vec<u32>>,
}

fn hub_graph(rng: &mut Rng, edges: &mut EdgeSet) -> (crate::gen::Communities, Hubs) {
    let comm = communities(&SPEC, rng, edges);
    let mut next = SPEC.n as u32;
    let mut hubs = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..HUB_GROUPS {
        let group: Vec<u32> = (0..HUBS_PER_GROUP as u32).map(|i| next + i).collect();
        next += HUBS_PER_GROUP as u32;
        let mut fans: Vec<u32> = (0..POOL).map(|_| rng.below(SPEC.n) as u32).collect();
        fans.sort_unstable();
        fans.dedup();
        for (i, &h) in group.iter().enumerate() {
            for &other in &group[i + 1..] {
                edges.insert(h, other);
            }
            for &f in &fans {
                if rng.unit() < P_FAN {
                    edges.insert(h, f);
                }
            }
        }
        hubs.push(group);
        pool.push(fans);
    }
    (comm, Hubs { hubs, pool })
}

/// One localised burst: edges between a hub group and its fans, and
/// between fans and their community partners, each toggled (deleted if
/// present, inserted otherwise).
fn burst(
    rng: &mut Rng,
    comm: &crate::gen::Communities,
    hubs: &Hubs,
    edges: &mut EdgeSet,
) -> Vec<GraphUpdate> {
    let g = rng.below(HUB_GROUPS);
    let mut updates = Vec::with_capacity(BURST);
    while updates.len() < BURST {
        let fan = hubs.pool[g][rng.below(hubs.pool[g].len())];
        let other = if updates.len() % 2 == 0 {
            hubs.hubs[g][rng.below(HUBS_PER_GROUP)]
        } else {
            let group = &comm.members[comm.community_of[fan as usize] as usize];
            group[rng.below(group.len())]
        };
        if fan == other {
            continue;
        }
        let (a, b) = (VertexId(fan), VertexId(other));
        if edges.remove(fan, other) {
            updates.push(GraphUpdate::Delete(a, b));
        } else {
            edges.insert(fan, other);
            updates.push(GraphUpdate::Insert(a, b));
        }
    }
    updates
}

pub fn params(seed: u64, initial_edges: usize) -> Params {
    Params::cosine(0.5, 5)
        .with_rho(0.9)
        .with_delta_star(1e-3 / (initial_edges + MAX_INSERTS) as f64)
        .with_seed(seed)
}

/// The hot-tier budget: a third of the initial graph's hot bytes.
fn budget(n: usize, initial: &[GraphUpdate]) -> usize {
    let mut g = DynGraph::with_vertices(n);
    for up in initial {
        if let GraphUpdate::Insert(a, b) = *up {
            g.insert_edge(a, b).expect("the initial graph is simple");
        }
    }
    g.resident_hot_bytes() / 3
}

pub fn run(seed: u64, deadline: Duration, tracer: &mut Tracer) -> Outcome {
    let trace = tracer.on;
    let mut out = Outcome::new();
    let mut rng = Rng::new(seed);
    let mut edges = EdgeSet::default();
    let (comm, hubs) = hub_graph(&mut rng, &mut edges);
    let initial = edges.as_inserts();
    let n = SPEC.n + HUB_GROUPS * HUBS_PER_GROUP;
    let cfg = EngineCfg {
        backend: Backend::DynStrClu,
        params: params(seed, initial.len()),
        threads: 2,
        budget: Some(budget(n, &initial)),
    };
    let (setup_s, mut session, initial_flips) = setup(&cfg, &initial);
    let initial_ckpt = if trace {
        session.checkpoint_bytes()
    } else {
        Vec::new()
    };
    let stats0 = session.stats().expect("DynStrClu keeps counters");

    let mut lat = Vec::new();
    let mut writes = Vec::new();
    let mut write_flips = Vec::new();
    let mut extract = Vec::new();
    let mut restore = Vec::new();
    let mut wrong_answers = 0u64;
    let (mut query_ms, mut queries, mut inserts) = (0.0, 0u64, 0usize);
    let mut update_ms = [0.0f64; 2];
    let mut updates = [0u64; 2];
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed() < deadline {
        tracer.on = trace && round % 2 == 1;
        let traced = usize::from(tracer.on);
        // The round is the root span: its self time is the benchmark's
        // own work (input generation and answer checks).
        tracer.begin("bench.round");
        for _ in 0..BURSTS_PER_ROUND {
            let updates_in = burst(&mut rng, &comm, &hubs, &mut edges);
            inserts += updates_in
                .iter()
                .filter(|u| matches!(u, GraphUpdate::Insert(..)))
                .count();
            tracer.begin("core.apply");
            let t = Instant::now();
            let flips = session.apply_batch(&updates_in);
            let took = ms(t);
            tracer.end();
            lat.push(took);
            update_ms[traced] += took;
            updates[traced] += updates_in.len() as u64;
            out.op("apply_batch", true);
            writes.push(updates_in);
            write_flips.push(flips);
        }
        let recomputes = session.clustering_recomputes();
        tracer.begin("core.extract");
        let t = Instant::now();
        let clustering = session.clustering();
        let took = ms(t);
        tracer.end();
        let clustering = clustering.clone();
        out.op("extract", true);
        if session.clustering_recomputes() > recomputes {
            extract.push(took);
        }
        for _ in 0..QUERIES {
            let q = comm.query(&mut rng, QUERY_SIZE);
            tracer.begin("core.groupby");
            let t = Instant::now();
            let groups = session.cluster_group_by(&q);
            query_ms += ms(t);
            tracer.end();
            queries += 1;
            out.op("groupby", true);
            wrong_answers += u64::from(groups != check::group_by(&clustering, &q));
        }
        tracer.end();
        // Restore samples are spread over the run, like the extractions,
        // so they see the same machine conditions as the other metrics.
        if round.is_multiple_of(RESTORE_EVERY) {
            let bytes = session.checkpoint_bytes();
            let t = Instant::now();
            let restored = Session::restore(&bytes);
            restore.push(ms(t));
            out.op("restore", restored.is_ok());
            if let Err(e) = restored {
                out.errors
                    .push(format!("a checkpoint does not restore: {e}"));
            }
        }
        round += 1;
    }
    tracer.on = trace;
    let stats1 = session.stats().expect("DynStrClu keeps counters");

    let ckpt = session.checkpoint_bytes();
    let n = session.num_vertices();
    let mut model = FlipModel::new(cfg.params.mu, n);
    let mut scratch = Vec::new();
    model.apply(&initial_flips, &mut scratch);
    for flips in &write_flips {
        model.apply(flips, &mut scratch);
    }
    let report = check::check_labels(
        &ckpt,
        &edges,
        &model.similar,
        &cfg.params,
        n,
        &mut out.errors,
    );
    let clustering = session.clustering().clone();
    check::check_sandwich(&clustering, &edges, &cfg.params, &mut out.errors);
    let rec = Recorded {
        cfg,
        n,
        initial,
        initial_flips,
        initial_ckpt,
        writes,
        write_flips,
        single: false,
    };
    // The tier guard replays the run's updates on a bare graph under the
    // same budget (the session does not expose its graph's counters).
    let mut layer = Outcome::new();
    replay::graph_layer(&rec, &mut layer);
    let demotions = layer
        .metrics()
        .iter()
        .find(|m| m.0 == "graph.tier_demotions")
        .map_or(0.0, |m| m.1);
    out.guard(report.invalid == 0, "zero ρ-invalid labels (M·δ* ≤ 1e-3)");
    out.guard(
        inserts <= MAX_INSERTS,
        "insertions within the δ* union bound",
    );
    out.guard(
        stats1.samples_drawn > stats0.samples_drawn,
        "samples drawn > 0",
    );
    out.guard(demotions > 0.0, "tier demotions > 0");
    if wrong_answers > 0 {
        out.errors.push(format!(
            "{wrong_answers} group-by answers differ from the full extraction"
        ));
    }
    out.guard(clustering.num_clusters() > 0, "clusters > 0");
    out.guard(extract.len() >= 10, "at least ten fresh extractions");
    out.guard(!restore.is_empty(), "at least one restore");
    eprintln!(
        "burst: {} rounds, {} bursts, {} clusters, {} labels ({} similar), {} edges, {} samples, budget {} B",
        round,
        lat.len(),
        clustering.num_clusters(),
        report.labels,
        report.similar,
        edges.len(),
        stats1.samples_drawn - stats0.samples_drawn,
        cfg.budget.unwrap_or(0)
    );

    if !trace {
        out.samples = Samples {
            setup_s,
            write_ms: lat,
            updates: updates[0],
            update_ms: update_ms[0],
            queries,
            query_ms,
            extract_ms: extract,
            restore_ms: restore,
            checkpoint_mb: vec![ckpt.len() as f64 / 1e6],
            memory_mb: vec![session.memory_bytes() as f64 / 1e6],
        };
        return out;
    }

    for m in layer.metrics() {
        out.metric(m.0, m.1, m.2);
    }
    sim_layer(stats0, stats1, &mut out);
    replay::conn_layer(&rec, &mut out);
    out.metric("core.apply_ms", tracer.totals("core.apply").mean_ms(), "ms");
    out.metric(
        "core.groupby_us",
        tracer.totals("core.groupby").mean_ms() * 1e3,
        "us",
    );
    out.metric(
        "core.extract_ms",
        tracer.totals("core.extract").mean_ms(),
        "ms",
    );
    let (_, off_p50, off) = replay::core_layer(&rec, 50, 64, 512, &mut out);
    replay::snapshot_capture(&mut session, &mut out);
    replay::chain_layer(&off.docs, &mut out);
    out.metric("serve.overhead_ms", percentile(&lat, 0.5) - off_p50, "ms");
    out.metric("serve.ack_p50_ms", percentile(&lat, 0.5), "ms");
    out.metric("serve.epoch_reads", 0.0, "count");
    out.metric("serve.overload_retries", 0.0, "count");
    crate::overhead(&mut out, updates, update_ms);
    out
}
