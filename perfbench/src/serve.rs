//! `serve-durable`: `dynscan-serve` over loopback with durable
//! background checkpoints (full + delta chain).  One writer connection
//! sends small batches in a closed loop while one reader connection sends
//! group-by and cluster-of requests in a closed loop, answered lock-free
//! from the published epochs.  The engine does the work of
//! `stream-communities` behind framing, admission, epoch publication and
//! store IO.  The run ends with a drain and a replica replay of the
//! durable chain.
//!
//! The checks follow the replay idea of *Reenactment for Read-Committed
//! Snapshot Isolation*: with one writer the state sequence is
//! deterministic, so an in-process `Session` replaying the writer's
//! batches reenacts every state the server passed through, and the
//! server's checksum, the replica's replay and the reader's answers are
//! all compared against it.

use crate::check::{self, fnv1a};
use crate::common::{ms, percentile, EngineCfg, FlipModel, Outcome, Recorded, Samples};
use crate::gen::{balanced_update, communities, Communities, EdgeSet, Rng};
use crate::replay;
use crate::stream::{self, sim_layer};
use crate::trace::Tracer;
use dynscan_core::{
    Backend, DirCheckpointStore, FlippedEdge, GraphUpdate, Session, SnapshotKind, VertexId,
};
use dynscan_replica::ReplicaState;
use dynscan_serve::{Client, ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Updates per write request.
const BATCH: usize = 4;
/// Writes per automatic checkpoint, and checkpoints per full snapshot.
/// A round is one whole full + delta chain, so every run drains at the
/// same point of the chain and the retained chain has the same shape.
/// A full capture lands on one write in 32 (3 %), so `write_p99_ms`
/// measures it rather than the edge between it and the delta captures.
const WRITES_PER_CHECKPOINT: usize = 8;
const FULL_EVERY: u64 = 4;
const ROUND_WRITES: usize = WRITES_PER_CHECKPOINT * FULL_EVERY as usize;
const KEEP_LAST: u64 = 2;
/// Checkpoints written after the last whole round, so the retained chain
/// holds deltas: full, TAIL_CHECKPOINTS deltas, and the drain's full.
const TAIL_CHECKPOINTS: usize = 3;
const QUERY_SIZE: usize = 64;
/// Every this many group-by replies, one is kept for the replay check.
const SAMPLE_EVERY: u64 = 8;
/// Replay writes between two timed full-clustering retrievals.
const EXTRACT_EVERY: usize = 8;
const P_INTRA: f64 = 0.8;

struct Served {
    server: Server,
    dir: PathBuf,
    /// The document the server resumed from (the state after the
    /// initial load).
    initial_doc: Vec<u8>,
    initial_flips: Vec<FlippedEdge>,
}

fn config(cfg: &EngineCfg, dir: &Path) -> ServeConfig {
    let mut c = ServeConfig::new("127.0.0.1:0");
    c.params = cfg.params;
    c.checkpoint_dir = Some(dir.to_path_buf());
    c.checkpoint_every = Some((WRITES_PER_CHECKPOINT * BATCH) as u64);
    c.full_every = FULL_EVERY;
    c.keep_last = Some(KEEP_LAST);
    c.background_checkpoints = true;
    c.threads = Some(cfg.threads);
    c
}

/// Load the initial graph in process, make it the first durable
/// document, and start the server on it.
fn start(cfg: &EngineCfg, initial: &[GraphUpdate], dir: &Path) -> Served {
    let _ = std::fs::remove_dir_all(dir);
    let mut session = Session::builder()
        .params(cfg.params)
        .threads(cfg.threads)
        .memory_budget(cfg.budget)
        .checkpoint_store(DirCheckpointStore::new(dir))
        .build()
        .expect("a valid engine configuration");
    let initial_flips = session.apply_batch(initial);
    session
        .checkpoint_now()
        .expect("the checkpoint directory is writable");
    drop(session);
    let initial_doc = read_docs(dir).remove(0).2;
    let server = Server::start(config(cfg, dir)).expect("the server starts");
    Served {
        server,
        dir: dir.to_path_buf(),
        initial_doc,
        initial_flips,
    }
}

fn read_docs(dir: &Path) -> Vec<(u64, SnapshotKind, Vec<u8>)> {
    DirCheckpointStore::new(dir)
        .list()
        .expect("the checkpoint directory lists")
        .into_iter()
        .map(|(seq, kind, path)| {
            (
                seq,
                kind,
                std::fs::read(path).expect("a listed document reads"),
            )
        })
        .collect()
}

struct Writer {
    batches: Vec<Vec<GraphUpdate>>,
    ack_ms: Vec<f64>,
    elapsed_ms: [f64; 2],
    updates: [u64; 2],
    applied: u64,
    rejected: u64,
    retries: u64,
}

/// A group-by query and the groups the server answered.
type Answer = (Vec<VertexId>, Vec<Vec<VertexId>>);

struct Reader {
    replies: u64,
    elapsed_ms: f64,
    regressions: u64,
    /// Sampled group-by answers by epoch: (Q, groups).
    samples: BTreeMap<u64, Vec<Answer>>,
    retries: u64,
    /// Attempted and failed group-by and cluster-of requests.
    ops: [(u64, u64); 2],
}

pub fn run(seed: u64, deadline: Duration, tracer: &mut Tracer) -> Outcome {
    let trace = tracer.on;
    let mut out = Outcome::new();
    let cfg = EngineCfg {
        backend: Backend::DynStrClu,
        params: stream::params(seed),
        threads: 1,
        budget: None,
    };
    let mut rng = Rng::new(seed);
    let mut edges = EdgeSet::default();
    let comm = communities(&stream::SPEC, &mut rng, &mut edges);
    let initial = edges.as_inserts();
    let base = PathBuf::from("perfbench/out").join(format!("serve-{}", std::process::id()));

    // One set-up per process; a run pools the set-ups of its processes.
    let t = Instant::now();
    let served = start(&cfg, &initial, &base);
    let setup_s = t.elapsed().as_secs_f64();
    let addr = served.server.local_addr();
    let m0 = initial.len() as u64;

    let stop = AtomicBool::new(false);
    let reader_rng_seed = rng.next_u64();
    let (writer, reader) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(addr, &comm, reader_rng_seed, &stop));
        let writer = write_loop(
            addr, &comm, &mut edges, &mut rng, deadline, tracer, &mut out,
        );
        stop.store(true, Ordering::SeqCst);
        (
            writer,
            reader.join().expect("the reader thread does not panic"),
        )
    });
    tracer.on = trace;
    for (kind, (attempted, failed)) in ["groupby", "cluster_of"].into_iter().zip(reader.ops) {
        out.ops_add(kind, attempted, failed);
    }

    // Final epoch and checksum from the server, then drain.
    let mut client = Client::connect(addr).expect("the server accepts a connection");
    let stats = client.stats(true);
    out.op("stats", stats.is_ok());
    let drained = client.drain();
    out.op("drain", drained.is_ok());
    let epoch_reads = served.server.epoch_reads_served();
    let report = served.server.wait();
    let docs = read_docs(&served.dir);
    let _ = std::fs::remove_dir_all(&base);

    let final_epoch = m0 + writer.applied;
    match &stats {
        Ok(s) if s.epoch != final_epoch => out.errors.push(format!(
            "server epoch {} does not cover the {final_epoch} acknowledged updates",
            s.epoch
        )),
        Err(e) => out.errors.push(format!("stats request failed: {e}")),
        _ => {}
    }
    if report.updates_applied != final_epoch || report.checkpoint_error.is_some() {
        out.errors
            .push(format!("drain report {report:?} after epoch {final_epoch}"));
    }
    if reader.regressions > 0 {
        out.errors.push(format!(
            "{} reader replies regressed in epoch",
            reader.regressions
        ));
    }

    // The replica replays the durable chain; every state it reaches is
    // checked against the in-process reenactment below.  Only the
    // `apply_doc` calls are timed, not the checksums between them.
    let mut replica_states = BTreeMap::new();
    let mut replica = ReplicaState::new();
    let mut replay_ms = 0.0;
    for (seq, kind, bytes) in &docs {
        let t = Instant::now();
        let applied = replica.apply_doc(*seq, *kind, bytes);
        replay_ms += ms(t);
        match applied {
            Ok(()) => {
                let engine = replica.engine().expect("a full document came first");
                replica_states.insert(replica.epoch(), fnv1a(&engine.checkpoint_bytes()));
            }
            Err(e) => out
                .errors
                .push(format!("replica cannot apply document {seq}: {e}")),
        }
    }

    // Reenact: the writer's batches, in order, on an in-process session.
    let mut session = Session::restore(&served.initial_doc).expect("the initial document restores");
    let stats0 = session.stats().expect("DynStrClu keeps counters");
    let mut write_flips = Vec::with_capacity(writer.batches.len());
    let mut extract = Vec::new();
    let (mut checked_answers, mut checked_states, mut wrong_answers) = (0u64, 0u64, 0u64);
    tracer.begin("bench.reenact");
    for (i, batch) in writer.batches.iter().enumerate() {
        tracer.begin("core.apply");
        let flips = session.apply_batch(batch);
        tracer.end();
        write_flips.push(flips);
        let epoch = session.current_epoch();
        if let Some(answers) = reader.samples.get(&epoch) {
            for (q, groups) in answers {
                tracer.begin("core.groupby");
                let expected = session.cluster_group_by(q);
                tracer.end();
                checked_answers += 1;
                wrong_answers += u64::from(&expected != groups);
            }
        }
        if let Some(&sum) = replica_states.get(&epoch) {
            checked_states += 1;
            if sum != fnv1a(&session.checkpoint_bytes()) {
                out.errors.push(format!(
                    "the replica's state at epoch {epoch} differs from the reenactment"
                ));
            }
        }
        if (i + 1) % EXTRACT_EVERY == 0 {
            let before = session.clustering_recomputes();
            tracer.begin("core.extract");
            let t = Instant::now();
            session.clustering();
            let took = ms(t);
            tracer.end();
            if session.clustering_recomputes() > before {
                extract.push(took);
            }
        }
    }
    tracer.end();
    if wrong_answers > 0 {
        out.errors.push(format!(
            "{wrong_answers} sampled reader answers differ from the reenactment"
        ));
    }
    let stats1 = session.stats().expect("DynStrClu keeps counters");
    let ckpt = session.checkpoint_bytes();
    if let Ok(s) = &stats {
        if s.state_checksum != Some(fnv1a(&ckpt)) {
            out.errors
                .push("the server's state checksum differs from the reenactment".into());
        }
    }
    if replica.epoch() != final_epoch || replica_states.get(&final_epoch) != Some(&fnv1a(&ckpt)) {
        out.errors
            .push("the replica's final state differs from the reenactment".into());
    }
    let n = session.num_vertices();
    let mut model = FlipModel::new(cfg.params.mu, n);
    let mut scratch = Vec::new();
    model.apply(&served.initial_flips, &mut scratch);
    for flips in &write_flips {
        model.apply(flips, &mut scratch);
    }
    let labels = check::check_labels(
        &ckpt,
        &edges,
        &model.similar,
        &cfg.params,
        n,
        &mut out.errors,
    );
    let clustering = session.clustering().clone();
    check::check_sandwich(&clustering, &edges, &cfg.params, &mut out.errors);

    let deltas = docs.iter().filter(|d| d.1 == SnapshotKind::Delta).count();
    out.guard(labels.invalid == 0, "zero ρ-invalid labels");
    out.guard(deltas > 0, "delta documents > 0");
    out.guard(epoch_reads > 0, "epoch reads served > 0");
    out.guard(writer.rejected == 0, "zero rejected updates");
    out.guard(checked_answers > 0, "reader answers were checked");
    out.guard(
        checked_states == replica_states.len() as u64,
        "every replica state was checked",
    );
    out.guard(extract.len() >= 10, "at least ten fresh extractions");
    eprintln!(
        "serve: {} writes, {} reads, {} docs ({} deltas), {} answers and {} replica states checked, {} clusters",
        writer.ack_ms.len(),
        reader.replies,
        docs.len(),
        deltas,
        checked_answers,
        checked_states,
        clustering.num_clusters()
    );
    let final_doc = docs.last().map_or(0, |d| d.2.len());

    if !trace {
        out.samples = Samples {
            setup_s: vec![setup_s],
            updates: writer.updates[0],
            update_ms: writer.elapsed_ms[0],
            write_ms: writer.ack_ms,
            queries: reader.replies,
            query_ms: reader.elapsed_ms,
            extract_ms: extract,
            restore_ms: vec![replay_ms],
            checkpoint_mb: vec![final_doc as f64 / 1e6],
            memory_mb: vec![session.memory_bytes() as f64 / 1e6],
        };
        return out;
    }

    let ack_p50 = percentile(&writer.ack_ms, 0.5);
    let rec = Recorded {
        cfg,
        n,
        initial,
        initial_flips: served.initial_flips,
        initial_ckpt: served.initial_doc,
        writes: writer.batches,
        write_flips,
        single: false,
    };
    replay::graph_layer(&rec, &mut out);
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
    let (on_p50, _, _) = replay::core_layer(
        &rec,
        200,
        200,
        (WRITES_PER_CHECKPOINT * BATCH) as u64,
        &mut out,
    );
    replay::snapshot_capture(&mut session, &mut out);
    replay::chain_layer(&docs, &mut out);
    out.metric("serve.overhead_ms", ack_p50 - on_p50, "ms");
    out.metric("serve.ack_p50_ms", ack_p50, "ms");
    out.metric("serve.epoch_reads", epoch_reads as f64, "count");
    out.metric(
        "serve.overload_retries",
        (writer.retries + reader.retries) as f64,
        "count",
    );
    crate::overhead(&mut out, writer.updates, writer.elapsed_ms);
    out
}

fn write_loop(
    addr: std::net::SocketAddr,
    comm: &Communities,
    edges: &mut EdgeSet,
    rng: &mut Rng,
    deadline: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Writer {
    let trace = tracer.on;
    let mut client = Client::connect(addr).expect("the server accepts the writer");
    let mut w = Writer {
        batches: Vec::new(),
        ack_ms: Vec::new(),
        elapsed_ms: [0.0; 2],
        updates: [0; 2],
        applied: 0,
        rejected: 0,
        retries: 0,
    };
    let start = Instant::now();
    let mut round = 0u64;
    let mut tail = false;
    loop {
        // Whole rounds until the deadline, then a fixed tail of
        // TAIL_CHECKPOINTS checkpoints, so the drained chain always ends
        // in the same full + deltas + full shape.
        if round > 0 && start.elapsed() >= deadline {
            if tail {
                break;
            }
            tail = true;
        }
        tracer.on = trace && round % 2 == 1 && !tail;
        let traced = usize::from(tracer.on);
        let writes = if tail {
            TAIL_CHECKPOINTS * WRITES_PER_CHECKPOINT
        } else {
            ROUND_WRITES
        };
        let round_start = Instant::now();
        tracer.begin("bench.round");
        for _ in 0..writes {
            let batch: Vec<GraphUpdate> = (0..BATCH)
                .map(|i| balanced_update(comm, edges, rng, i % 2 == 0, P_INTRA))
                .collect();
            tracer.begin("serve.write");
            let t = Instant::now();
            let ack = client.batch_apply(&batch);
            w.ack_ms.push(ms(t));
            tracer.end();
            out.op("batch_apply", ack.is_ok());
            match ack {
                Ok(a) => {
                    w.applied += a.applied;
                    w.rejected += a.rejected;
                }
                Err(e) => out.errors.push(format!("batch_apply failed: {e}")),
            }
            w.batches.push(batch);
        }
        tracer.end();
        w.elapsed_ms[traced] += ms(round_start);
        w.updates[traced] += (writes * BATCH) as u64;
        round += 1;
    }
    w.retries = client.overload_retries();
    w
}

fn read_loop(
    addr: std::net::SocketAddr,
    comm: &Communities,
    seed: u64,
    stop: &AtomicBool,
) -> Reader {
    let mut rng = Rng::new(seed);
    let mut client = Client::connect(addr).expect("the server accepts the reader");
    let mut r = Reader {
        replies: 0,
        elapsed_ms: 0.0,
        regressions: 0,
        samples: BTreeMap::new(),
        retries: 0,
        ops: [(0, 0); 2],
    };
    let mut last_epoch = 0;
    let start = Instant::now();
    let mut groupbys = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let kind = (r.replies % 2) as usize;
        r.ops[kind].0 += 1;
        let reply = if kind == 0 {
            let q = comm.query(&mut rng, QUERY_SIZE);
            let reply = client.group_by_detailed(&q);
            if let Ok(ack) = &reply {
                groupbys += 1;
                if groupbys.is_multiple_of(SAMPLE_EVERY) {
                    r.samples
                        .entry(ack.epoch)
                        .or_default()
                        .push((q, ack.groups.clone()));
                }
            }
            reply
        } else {
            client.cluster_of(VertexId(rng.below(comm.n) as u32))
        };
        r.replies += 1;
        match reply {
            Ok(ack) => {
                r.regressions += u64::from(ack.epoch < last_epoch);
                last_epoch = ack.epoch;
            }
            Err(e) => {
                eprintln!("serve: reader request failed: {e}");
                r.ops[kind].1 += 1;
            }
        }
    }
    r.elapsed_ms = ms(start);
    r.retries = client.overload_retries();
    r
}
