//! `ann_1m_batch`: τ-ANN over 1M SIFT-like points, one closed-loop
//! caller submitting batches of distinct held-out queries (the paper's
//! batch model). The LSH transform and the host counting kernel do
//! almost all the work; the pool cycles through 8x the result cache's
//! capacity, so every query misses the FIFO cache.

use std::time::Instant;

use genie_core::domain::{Domain, MatchHits};
use genie_core::model::{ObjectId, Query};
use genie_lsh::e2lsh::E2Lsh;
use genie_lsh::{AnnIndex, Transformer};

use crate::check::{approx_ratio, check_top_k, knn_l2, l2, Hit, KeywordMirror};
use crate::common;
use crate::rng::Rng;
use crate::util::{median, quantile, Digest, Tracer};
use crate::{Args, Report};

pub const N: usize = 1_000_000;
pub const DIM: usize = 32;
pub const CLUSTERS: usize = 1000;
/// Hash functions (keywords per object).
pub const M: usize = 32;
/// Re-hash domain per function.
pub const D: u32 = 4096;
pub const W: f32 = 16.0;
pub const K: usize = 10;
pub const POOL: usize = 8192;
/// Queries per submitted batch: small enough that a run holds ~50
/// batches for the batch-latency percentiles.
pub const BATCH: usize = 32;
/// Journaled single-operation batches after the checkpoint (each an
/// O(n) copy of the mutation plan at 1M rows, so fewer than elsewhere).
pub const TAIL: usize = 300;
/// Threads applying the tail at once: two writers contend for the
/// collection, which is where group commit would pay.
pub const WRITERS: usize = 2;
pub const SETUPS: usize = 3;
pub const REOPENS: usize = 3;
/// Queries whose counts are checked by brute force.
pub const CHECKED: usize = 8;
/// Queries of the Eqn. 13 ratio.
pub const RATIO_SAMPLE: usize = 16;

type Ann = AnnIndex<E2Lsh>;

/// The index configuration is fixed; only the data and queries vary
/// with the workload seed.
fn transformer() -> Transformer<E2Lsh> {
    Transformer::new(E2Lsh::new(M, DIM, W, 0xCD), D)
}

struct Inputs {
    data: Vec<Vec<f32>>,
    queries: Vec<Vec<f32>>,
    inserts: Vec<Vec<f32>>,
}

fn generate(seed: u64, report: &mut Report) -> Inputs {
    let mut data = genie_datasets::points::sift_like(N + POOL + TAIL / 2, DIM, CLUSTERS, seed);
    let inserts = data.split_off(N + POOL);
    let queries = data.split_off(N);
    let mut digest = Digest::default();
    for p in data.iter().chain(&queries).chain(&inserts) {
        digest.floats(p);
    }
    common::check_digest(report, "ann_1m_batch", seed, &digest.hex());
    // the generator must be a pure function of the seed
    let again = genie_datasets::points::sift_like(1000, DIM, CLUSTERS, seed);
    if again[..] != data[..1000] {
        report.fail("sift_like is not deterministic for this seed");
    }
    Inputs {
        data,
        queries,
        inserts,
    }
}

fn hits_of(m: &MatchHits) -> Vec<Hit> {
    m.hits.iter().map(|h| (h.id, h.count)).collect()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let inputs = generate(args.seed, &mut report);
    if args.inputs_only {
        return report;
    }
    let t = transformer();
    args.mark("generated");

    // the checker's keyword sets, transformed once
    let started = Instant::now();
    let mut mirror = KeywordMirror::new(M);
    for p in &inputs.data {
        mirror.push(t.to_object(&p[..]).keywords);
    }
    let transform_s = started.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(args.origin, args.trace);
    args.mark("mirror built");

    let Some((db, coll)) = common::durable_setups::<Ann>(
        args,
        SETUPS,
        &|| inputs.data.clone(),
        &|db, items| db.create_collection("points", transformer(), items),
        &inputs.queries[0],
        K,
        &mut report,
    ) else {
        return report;
    };
    let dir = args.work.join("store");
    args.mark("setups done");

    // search phase: one closed-loop caller; the kernel uses both cores
    let keep = CHECKED.max(RATIO_SAMPLE);
    let phase = common::search_phase(
        args,
        &db,
        &coll,
        &inputs.queries,
        BATCH,
        K,
        keep,
        1,
        &mut tracer,
        &|_| (),
        &mut report,
    );
    args.mark("search done");

    // answers: brute-force counts and the Eqn. 13 ratio
    let mut ratios = Vec::new();
    for (i, resp) in phase.kept.iter().enumerate() {
        let Some(resp) = resp else {
            report.fail(format!("pool query {i} was never answered"));
            continue;
        };
        let q = &inputs.queries[i];
        if i < CHECKED {
            let want = mirror.top_k(&t.to_object(&q[..]).keywords, K);
            report.check(
                &format!("query {i} counts"),
                check_top_k(&hits_of(resp), resp.audit_threshold, &want),
            );
        }
        if i < RATIO_SAMPLE {
            let truth = knn_l2(inputs.data.iter().map(|p| &p[..]), q, K);
            let got: Vec<f64> = resp
                .hits
                .iter()
                .map(|h| l2(&inputs.data[h.id as usize], q))
                .collect();
            ratios.push(approx_ratio(&got, &truth));
        }
    }
    report.set("ann_approx_ratio", crate::util::mean(&ratios));
    args.mark("answers checked");

    // checkpoint, then a fixed tail of journaled mutation batches
    common::checkpoint(&db, &dir, &mut report);
    let deletes = Rng::new(args.seed ^ 0xde1e7e).permutation(N);
    let batches = common::tail_batches(TAIL, &deletes, &inputs.inserts);
    let (durable_ms, ids) =
        common::timed_mutations(&coll, batches.clone(), WRITERS, &mut report, &mut tracer);
    // the writers race, so ids follow commit order, not batch order
    let mut inserted: Vec<(ObjectId, Vec<f32>)> = Vec::new();
    for ((dels, ins), got) in batches.into_iter().zip(&ids) {
        for d in dels {
            mirror.delete(d);
        }
        inserted.extend(got.iter().copied().zip(ins));
    }
    inserted.sort_by_key(|(id, _)| *id);
    for (id, item) in inserted {
        if id as usize != mirror.len() {
            report.fail(format!("insert got id {id}, expected {}", mirror.len()));
        }
        mirror.push(t.to_object(&item[..]).keywords);
    }
    report.note("mutate_p50_ms", median(&durable_ms));
    report.note("mutate_p99_ms", quantile(&durable_ms, 0.99));
    let status = coll.mutation_status();
    report.set("delta.pending_end", status.delta as f64);
    report.set("delta.tombstones_end", status.tombstones as f64);
    common::store_layers(&mut report, &db.stats());
    args.mark("tail done");

    // answers after the tail, live and after reopening
    let domain = coll.domain();
    let check_specs: Vec<&Vec<f32>> = inputs.queries[..CHECKED]
        .iter()
        .chain(&inputs.inserts[..4])
        .collect();
    let check_queries: Vec<Query> = check_specs
        .iter()
        .map(|q| domain.encode(q).expect("finite points encode"))
        .collect();
    let expected: Vec<_> = check_specs
        .iter()
        .map(|q| mirror.top_k(&t.to_object(&q[..]).keywords, K))
        .collect();
    let id = coll.id();
    let answers_live =
        common::check_raw(&db, id, &check_queries, &expected, K, "live", &mut report);
    let index = std::sync::Arc::clone(domain.index());
    drop((domain, coll, db));
    drop(index);
    args.mark("live checks done");

    match common::reopen(args, &dir, REOPENS) {
        Ok((secs, db2, replayed)) => {
            report.attempted += REOPENS as u64;
            report.set("recover_s", median(&secs));
            report.set("recovery.events_replayed", replayed as f64);
            let answers = common::check_raw(
                &db2,
                id,
                &check_queries,
                &expected,
                K,
                "reopened",
                &mut report,
            );
            if answers != answers_live {
                report.fail("answers changed across the reopen");
            }
        }
        Err(e) => {
            report.attempted += 1;
            report.failed += 1;
            report.fail(e);
        }
    }

    if args.trace {
        layer_probes(
            args,
            &inputs,
            &deletes,
            &durable_ms,
            transform_s,
            &mut report,
        );
        common::write_trace(args, &[("caller", tracer.take())]);
    }
    report
}

/// Traced-run probes of single layers on this workload's inputs.
fn layer_probes(
    args: &Args,
    inputs: &Inputs,
    deletes: &[u32],
    durable_ms: &[f64],
    transform_s: f64,
    report: &mut Report,
) {
    report.set("lsh.build_transform_s", transform_s);
    let db = common::open_memory(args);
    let t0 = Instant::now();
    let coll = db
        .create_collection::<Ann>("points", transformer(), inputs.data.clone())
        .expect("in-memory collection");
    // the in-memory create runs the transform and the index build
    report.set(
        "index.build_s",
        (t0.elapsed().as_secs_f64() - transform_s).max(0.0),
    );
    let domain = coll.domain();
    report.set(
        "index.postings_m",
        domain.index().list_array().len() as f64 / 1e6,
    );

    let t0 = Instant::now();
    let encoded: Vec<Query> = inputs
        .queries
        .iter()
        .map(|q| domain.encode(q).expect("finite"))
        .collect();
    report.set(
        "lsh.query_transform_us",
        t0.elapsed().as_secs_f64() * 1e6 / encoded.len() as f64,
    );
    let batches: Vec<Vec<Query>> = encoded
        .chunks(BATCH)
        .take(4)
        .map(<[Query]>::to_vec)
        .collect();
    common::backend_probe(report, domain.index(), &batches, K);
    drop(domain);

    let batches = common::tail_batches(TAIL, deletes, &inputs.inserts);
    let (memory_ms, _) = common::timed_mutations(
        &coll,
        batches,
        WRITERS,
        report,
        &mut Tracer::new(args.origin, false),
    );
    common::fsync_layer(report, durable_ms, &memory_ms);
}
