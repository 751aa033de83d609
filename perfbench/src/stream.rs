//! `stream-communities`: the paper's Figure-7 regime.  A community graph
//! with heavy-tailed degrees at the paper's defaults (Jaccard, ε = 0.2,
//! μ = 5, ρ = 0.01) takes single `Session::apply` updates — balanced
//! insertions and deletions — with group-by queries and full-clustering
//! retrievals between update segments, on one engine thread.

use crate::check;
use crate::common::{ms, percentile, EngineCfg, FlipModel, Outcome, Recorded, Samples};
use crate::gen::{balanced_update, communities, CommunitySpec, EdgeSet, Rng};
use crate::replay;
use crate::trace::Tracer;
use dynscan_core::{Backend, ElmStats, Params, Session};
use std::time::{Duration, Instant};

pub const SPEC: CommunitySpec = CommunitySpec {
    n: 20_000,
    min_size: 12,
    max_size: 400,
    intra_degree: 14.0,
    inter_degree: 2.0,
    weight_cap: 40.0,
};
const SEGMENTS: usize = 4;
const SEGMENT_UPDATES: usize = 250;
const QUERIES: usize = 32;
const QUERY_SIZE: usize = 256;
/// Rounds between two timed restores of a fresh full checkpoint.
const RESTORE_EVERY: u64 = 5;
/// Share of inserted edges that stay inside a community.
const P_INTRA: f64 = 0.8;

pub fn params(seed: u64) -> Params {
    Params::default().with_seed(seed)
}

/// Build the engine and load the initial graph, the set-up a user pays,
/// timed: one set-up per process, and a run takes the median over its
/// processes.
pub fn setup(
    cfg: &EngineCfg,
    initial: &[dynscan_core::GraphUpdate],
) -> (Vec<f64>, Session, Vec<dynscan_core::FlippedEdge>) {
    let t = Instant::now();
    let mut session = Session::builder()
        .backend(cfg.backend)
        .params(cfg.params)
        .threads(cfg.threads)
        .memory_budget(cfg.budget)
        .build()
        .expect("a valid engine configuration");
    let flips = session.apply_batch(initial);
    (vec![t.elapsed().as_secs_f64()], session, flips)
}

pub fn sim_layer(before: ElmStats, after: ElmStats, out: &mut Outcome) {
    let updates = (after.updates - before.updates).max(1) as f64;
    let labellings = after.labellings - before.labellings;
    out.metric(
        "sim.labellings_per_update",
        labellings as f64 / updates,
        "count",
    );
    out.metric(
        "sim.flips_per_labelling",
        (after.label_flips - before.label_flips) as f64 / labellings.max(1) as f64,
        "ratio",
    );
    out.metric(
        "sim.samples_drawn",
        (after.samples_drawn - before.samples_drawn) as f64,
        "count",
    );
    out.metric(
        "dt.maturities_per_update",
        (after.dt_maturities - before.dt_maturities) as f64 / updates,
        "count",
    );
}

/// `backend` is DynStrClu for the benchmark proper; the pSCAN-like
/// exact baseline runs the same inputs for the reference figures.
pub fn run(seed: u64, deadline: Duration, tracer: &mut Tracer, backend: Backend) -> Outcome {
    let trace = tracer.on && backend == Backend::DynStrClu;
    tracer.on = trace;
    let mut out = Outcome::new();
    let cfg = EngineCfg {
        backend,
        params: params(seed),
        threads: 1,
        budget: None,
    };
    let mut rng = Rng::new(seed);
    let mut edges = EdgeSet::default();
    let comm = communities(&SPEC, &mut rng, &mut edges);
    let initial = edges.as_inserts();
    let (setup_s, mut session, initial_flips) = setup(&cfg, &initial);
    let initial_ckpt = if trace {
        session.checkpoint_bytes()
    } else {
        Vec::new()
    };
    let stats0 = session.stats().unwrap_or_default();

    let mut lat = Vec::new();
    let mut writes = Vec::new();
    let mut write_flips = Vec::new();
    let mut extract = Vec::new();
    let mut restore = Vec::new();
    let mut wrong_answers = 0u64;
    let (mut query_ms, mut queries, mut nonempty) = (0.0, 0u64, 0u64);
    // Update time and count, split by whether the round was traced.
    let mut update_ms = [0.0f64; 2];
    let mut updates = [0u64; 2];
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed() < deadline {
        // A traced run alternates traced and untraced rounds, so the
        // tracing overhead is measured within one process.
        tracer.on = trace && round % 2 == 1;
        let traced = usize::from(tracer.on);
        // The round is the root span: its self time is the benchmark's
        // own work (input generation and answer checks).
        tracer.begin("bench.round");
        for _ in 0..SEGMENTS {
            let segment = Instant::now();
            for i in 0..SEGMENT_UPDATES {
                let update = balanced_update(&comm, &mut edges, &mut rng, i % 2 == 0, P_INTRA);
                tracer.begin("core.apply");
                let t = Instant::now();
                let result = session.apply(update);
                lat.push(ms(t));
                tracer.end();
                out.op("apply", result.is_ok());
                match result {
                    Ok(flips) => write_flips.push(flips),
                    Err(e) => {
                        out.errors.push(format!("apply {update:?} failed: {e}"));
                        write_flips.push(Vec::new());
                    }
                }
                writes.push(vec![update]);
            }
            update_ms[traced] += ms(segment);
            updates[traced] += SEGMENT_UPDATES as u64;

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
                nonempty += u64::from(!groups.is_empty());
                out.op("groupby", true);
                wrong_answers += u64::from(groups != check::group_by(&clustering, &q));
            }
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
    let stats1 = session.stats().unwrap_or_default();

    // Final state: checkpoint size, restore time, memory, and the checks.
    let ckpt = session.checkpoint_bytes();
    let n = session.num_vertices();
    let mut model = FlipModel::new(cfg.params.mu, n);
    let mut scratch = Vec::new();
    model.apply(&initial_flips, &mut scratch);
    for flips in &write_flips {
        model.apply(flips, &mut scratch);
    }
    // The labelling check restores the engine's own labels, which only
    // DynStrClu checkpoints carry; the exact baseline's labels are exact
    // by construction, and its clustering still meets the sandwich.
    let report = if backend == Backend::DynStrClu {
        check::check_labels(
            &ckpt,
            &edges,
            &model.similar,
            &cfg.params,
            n,
            &mut out.errors,
        )
    } else {
        check::LabelReport::default()
    };
    let clustering = session.clustering().clone();
    check::check_sandwich(&clustering, &edges, &cfg.params, &mut out.errors);
    out.guard(report.invalid == 0, "zero ρ-invalid labels");
    if wrong_answers > 0 {
        out.errors.push(format!(
            "{wrong_answers} group-by answers differ from the full extraction"
        ));
    }
    out.guard(clustering.num_clusters() > 0, "clusters > 0");
    out.guard(
        2 * nonempty > queries,
        "most group-by answers are non-empty",
    );
    out.guard(extract.len() >= 10, "at least ten fresh extractions");
    out.guard(!restore.is_empty(), "at least one restore");
    eprintln!(
        "stream: {} rounds, {} updates, {} clusters, {} labels ({} similar), {} edges",
        round,
        lat.len(),
        clustering.num_clusters(),
        report.labels,
        report.similar,
        edges.len()
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

    let rec = Recorded {
        cfg,
        n,
        initial,
        initial_flips,
        initial_ckpt,
        writes,
        write_flips,
        single: true,
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
    let (on_p50, off_p50, off) = replay::core_layer(&rec, 100, 4_000, 500, &mut out);
    replay::snapshot_capture(&mut session, &mut out);
    replay::chain_layer(&off.docs, &mut out);
    // No front end: the run's own write p50 against the replay's.
    out.metric("serve.overhead_ms", percentile(&lat, 0.5) - off_p50, "ms");
    out.metric("serve.ack_p50_ms", percentile(&lat, 0.5), "ms");
    out.metric("serve.epoch_reads", 0.0, "count");
    out.metric("serve.overload_retries", 0.0, "count");
    let _ = on_p50;
    crate::overhead(&mut out, updates, update_ms);
    out
}
