//! Per-layer replays for the traced run.  Each replays the run's own
//! recorded inputs into one layer's public functions and times the
//! calls from outside.

use crate::common::{median, ms, percentile, FlipModel, GcoreChange, Outcome, Recorded};
use dynscan_conn::{DynamicConnectivity, HdtConnectivity};
use dynscan_core::{GraphUpdate, MemCheckpointStore, Session, SnapshotKind, VertexId};
use dynscan_graph::DynGraph;
use dynscan_replica::ReplicaState;
use std::hint::black_box;
use std::time::Instant;

/// Updates replayed into the bare graph.
const TOPOLOGY_UPDATES: usize = 20_000;

fn apply_topology(g: &mut DynGraph, up: &GraphUpdate) {
    match *up {
        GraphUpdate::Insert(a, b) => g.insert_edge(a, b),
        GraphUpdate::Delete(a, b) => g.delete_edge(a, b),
    }
    .expect("recorded updates are valid in order");
}

/// The workload's updates on a bare `DynGraph` under the workload's
/// memory budget, and the similarity kernel over the pairs each write
/// relabels (its net flips and its inserted edges).
pub fn graph_layer(rec: &Recorded, out: &mut Outcome) {
    let mut g = DynGraph::with_vertices(rec.n);
    g.set_memory_budget(rec.cfg.budget);
    for up in &rec.initial {
        apply_topology(&mut g, up);
    }
    let (p0, d0) = g.tier_counters();
    let (mut topo_ns, mut inter_ns, mut pairs, mut updates) = (0u128, 0u128, 0usize, 0usize);
    let mut sink = 0usize;
    let mut buf: Vec<(VertexId, VertexId)> = Vec::new();
    for (write, flips) in rec.writes.iter().zip(&rec.write_flips) {
        if updates >= TOPOLOGY_UPDATES {
            break;
        }
        let t = Instant::now();
        for up in write {
            apply_topology(&mut g, up);
        }
        topo_ns += t.elapsed().as_nanos();
        updates += write.len();
        buf.clear();
        for up in write {
            if let GraphUpdate::Insert(a, b) = *up {
                buf.push((a, b));
            }
        }
        buf.extend(flips.iter().map(|(e, _)| e.endpoints()));
        buf.retain(|&(a, b)| g.has_edge(a, b));
        let t = Instant::now();
        for &(a, b) in &buf {
            sink += g.closed_intersection_size(a, b);
        }
        inter_ns += t.elapsed().as_nanos();
        pairs += buf.len();
    }
    black_box(sink);
    let (p1, d1) = g.tier_counters();
    out.metric("graph.topology_ms", topo_ns as f64 / 1e6, "ms");
    out.metric(
        "graph.intersect_ns",
        inter_ns as f64 / pairs.max(1) as f64,
        "ns",
    );
    out.metric("graph.tier_promotions", (p1 - p0) as f64, "count");
    out.metric("graph.tier_demotions", (d1 - d0) as f64, "count");
    out.metric(
        "graph.cold_mb",
        g.memory_breakdown().cold_bytes as f64 / 1e6,
        "MB",
    );
}

/// `G_core` edge changes derived from the returned flips, replayed into
/// a standalone HDT connectivity structure.
pub fn conn_layer(rec: &Recorded, out: &mut Outcome) {
    let mut model = FlipModel::new(rec.cfg.params.mu, rec.n);
    let mut initial: Vec<GcoreChange> = Vec::new();
    model.apply(&rec.initial_flips, &mut initial);
    let mut changes: Vec<GcoreChange> = Vec::new();
    for flips in &rec.write_flips {
        model.apply(flips, &mut changes);
    }
    let mut hdt = HdtConnectivity::with_seed(rec.n, rec.cfg.params.seed);
    for &(_, u, v) in &initial {
        hdt.insert_edge(VertexId(u), VertexId(v));
    }
    let t = Instant::now();
    for &(insert, u, v) in &changes {
        let ok = if insert {
            hdt.insert_edge(VertexId(u), VertexId(v))
        } else {
            hdt.delete_edge(VertexId(u), VertexId(v))
        };
        if !ok {
            out.errors
                .push(format!("G_core change ({insert}, {u}, {v}) does not apply"));
            break;
        }
    }
    out.metric("conn.gcore_changes", changes.len() as f64, "count");
    out.metric("conn.replay_ms", ms(t), "ms");
}

/// One in-process replay of the first `writes` writes, from the
/// checkpoint taken after the initial load, with the same engine
/// configuration and an in-memory checkpoint chain every
/// `checkpoint_every` updates.
pub struct EngineReplay {
    pub per_write_ms: Vec<f64>,
    pub clustering_recomputes: u64,
    pub docs: Vec<(u64, SnapshotKind, Vec<u8>)>,
}

pub fn engine_replay(
    rec: &Recorded,
    writes: usize,
    epoch_reads: bool,
    checkpoint_every: u64,
) -> EngineReplay {
    let store = MemCheckpointStore::new();
    let mut session = Session::builder()
        .threads(rec.cfg.threads)
        .memory_budget(rec.cfg.budget)
        .checkpoint_every(checkpoint_every)
        .full_every(8)
        .checkpoint_store(store.clone())
        .build_resuming_from_chain(&[&rec.initial_ckpt])
        .expect("the initial checkpoint restores");
    let _reads = epoch_reads.then(|| session.enable_epoch_reads());
    let before = session.clustering_recomputes();
    let mut per_write_ms = Vec::with_capacity(writes);
    for write in rec.writes.iter().take(writes) {
        let t = Instant::now();
        if rec.single {
            for &up in write {
                session
                    .apply(up)
                    .expect("recorded updates are valid in order");
            }
        } else {
            session.apply_batch(write);
        }
        per_write_ms.push(ms(t));
    }
    EngineReplay {
        per_write_ms,
        clustering_recomputes: session.clustering_recomputes() - before,
        docs: store.documents(),
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Epoch publication cost (the same writes with epoch reads on, minus
/// off) and the checkpoint chain of the off replay.  Returns the p50 of
/// the epoch-on and epoch-off per-write times.
pub fn core_layer(
    rec: &Recorded,
    epoch_writes: usize,
    chain_writes: usize,
    checkpoint_every: u64,
    out: &mut Outcome,
) -> (f64, f64, EngineReplay) {
    let on = engine_replay(rec, epoch_writes, true, checkpoint_every);
    let off = engine_replay(rec, chain_writes.max(epoch_writes), false, checkpoint_every);
    let k = on.per_write_ms.len();
    out.metric(
        "core.epoch_publish_ms",
        mean(&on.per_write_ms) - mean(&off.per_write_ms[..k]),
        "ms",
    );
    out.metric(
        "core.clustering_recomputes",
        on.clustering_recomputes as f64,
        "count",
    );
    (
        percentile(&on.per_write_ms, 0.5),
        percentile(&off.per_write_ms[..k], 0.5),
        off,
    )
}

/// Full and delta documents of a chain, and a replica replaying it.
pub fn chain_layer(docs: &[(u64, SnapshotKind, Vec<u8>)], out: &mut Outcome) {
    let deltas: Vec<f64> = docs
        .iter()
        .filter(|d| d.1 == SnapshotKind::Delta)
        .map(|d| d.2.len() as f64)
        .collect();
    out.metric(
        "snapshot.delta_mb",
        deltas.iter().sum::<f64>() / deltas.len().max(1) as f64 / 1e6,
        "MB",
    );
    out.metric("snapshot.docs", docs.len() as f64, "count");
    let t = Instant::now();
    let mut replica = ReplicaState::new();
    for (seq, kind, bytes) in docs {
        if let Err(e) = replica.apply_doc(*seq, *kind, bytes) {
            out.errors
                .push(format!("replica cannot apply document {seq}: {e}"));
            break;
        }
    }
    out.metric("replica.replay_ms", ms(t), "ms");
    out.metric(
        "replica.docs_applied",
        replica.docs_applied() as f64,
        "count",
    );
}

/// Full capture and encode of the final state (median of five).
pub fn snapshot_capture(session: &mut Session, out: &mut Outcome) {
    let mut times = Vec::new();
    let mut len = 0;
    for _ in 0..5 {
        let t = Instant::now();
        len = black_box(session.checkpoint_bytes()).len();
        times.push(ms(t));
    }
    out.metric("snapshot.capture_ms", median(&times), "ms");
    out.metric("snapshot.full_mb", len as f64 / 1e6, "MB");
}
