//! `seq_verify_batch`: DBLP-like titles as a 3-gram `SequenceIndex`,
//! two closed-loop callers submitting batches of corrupted titles. The
//! edit-distance verification of K = 8k candidates (`Domain::decode`)
//! runs on the callers; short grams over a small alphabet give long
//! postings lists, so the kernel runs in its dense regime.

use std::time::Instant;

use genie_core::domain::Domain;
use genie_core::model::{ObjectId, Query};
use genie_sa::{SequenceIndex, SequenceSearchReport};

use crate::check::{
    approx_ratio, edit_distance, exact_edit_top_k, gram_count, reference_top_k, Hit,
};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::common;
use crate::rng::Rng;
use crate::util::{median, quantile, Digest, Tracer};
use crate::{Args, Report};

pub const N: usize = 30_000;
pub const LEN: usize = 48;
/// Gram length.
pub const GRAM: usize = 3;
pub const K: usize = 16;
/// Candidates GENIE returns per query: the domain's 8k.
pub const KC: usize = 8 * K;
/// Share of a title's characters the corrupted queries change.
pub const CORRUPTION: f64 = 0.05;
pub const POOL: usize = 8192;
pub const BATCH: usize = 16;
/// Closed-loop callers, each verifying its own answers.
pub const CALLERS: usize = 2;
/// Journaled single-operation batches after the checkpoint: 1000
/// units of debt stay under the default compaction trigger (1024).
pub const TAIL: usize = 1000;
/// Threads applying the tail at once: two writers contend for the
/// collection, which is where group commit would pay.
pub const WRITERS: usize = 2;
pub const SETUPS: usize = 9;
pub const REOPENS: usize = 5;
pub const CHECKED: usize = 8;

struct Inputs {
    titles: Vec<Vec<u8>>,
    queries: Vec<Vec<u8>>,
    inserts: Vec<Vec<u8>>,
}

fn generate(seed: u64, report: &mut Report) -> Inputs {
    let titles = genie_datasets::sequences::dblp_like(N, LEN, seed);
    let queries =
        genie_datasets::sequences::corrupted_queries(&titles, POOL, CORRUPTION, seed ^ 0x5e9)
            .queries;
    let inserts = genie_datasets::sequences::dblp_like(TAIL / 2, LEN, seed ^ 0x1a5e);
    let mut digest = Digest::default();
    for t in titles.iter().chain(&queries).chain(&inserts) {
        digest.bytes(t);
    }
    common::check_digest(report, "seq_verify_batch", seed, &digest.hex());
    if genie_datasets::sequences::dblp_like(100, LEN, seed)[..] != titles[..100] {
        report.fail("dblp_like is not deterministic for this seed");
    }
    Inputs {
        titles,
        queries,
        inserts,
    }
}

/// The live titles by id, for brute-force counts and distances.
struct Mirror(Vec<Option<Vec<u8>>>);

impl Mirror {
    fn live(&self) -> impl Iterator<Item = &[u8]> {
        self.0.iter().flatten().map(|t| &t[..])
    }

    fn top_k_counts(&self, q: &[u8], k: usize) -> (Vec<Hit>, u32) {
        let scores = self
            .0
            .iter()
            .enumerate()
            .filter_map(|(id, t)| Some((id as u32, gram_count(q, t.as_ref()?, GRAM))));
        reference_top_k(scores, k)
    }
}

/// Every returned distance recomputed; certified answers equal the
/// brute-force top-k distances.
fn check_report(
    i: usize,
    q: &[u8],
    k: usize,
    r: &SequenceSearchReport,
    mirror: &Mirror,
    report: &mut Report,
) -> Vec<u32> {
    for h in &r.hits {
        match mirror.0.get(h.id as usize).and_then(|t| t.as_ref()) {
            Some(t) if edit_distance(q, t) == h.distance => {}
            Some(t) => report.fail(format!(
                "query {i}: hit {} reported distance {}, recomputed {}",
                h.id,
                h.distance,
                edit_distance(q, t)
            )),
            None => report.fail(format!("query {i}: hit {} is not a live title", h.id)),
        }
    }
    let truth = exact_edit_top_k(q, mirror.live(), k);
    let mut got: Vec<u32> = r.hits.iter().map(|h| h.distance).collect();
    got.sort_unstable();
    if r.certified && got != truth {
        report.fail(format!(
            "query {i}: certified distances {got:?}, exact {truth:?}"
        ));
    }
    truth
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let inputs = generate(args.seed, &mut report);
    if args.inputs_only {
        return report;
    }
    let mut mirror = Mirror(inputs.titles.iter().cloned().map(Some).collect());
    let mut tracer = Tracer::new(args.origin, args.trace);
    args.mark("generated");

    let Some((db, coll)) = common::durable_setups::<SequenceIndex>(
        args,
        SETUPS,
        &|| inputs.titles.clone(),
        &|db, items| db.create_collection("titles", GRAM, items),
        &inputs.queries[0],
        K,
        &mut report,
    ) else {
        return report;
    };
    let dir = args.work.join("store");
    args.mark("setups done");

    let (answered, certified) = (AtomicU64::new(0), AtomicU64::new(0));
    let count = |r: &SequenceSearchReport| {
        answered.fetch_add(1, Ordering::Relaxed);
        certified.fetch_add(u64::from(r.certified), Ordering::Relaxed);
    };
    let phase = common::search_phase(
        args,
        &db,
        &coll,
        &inputs.queries,
        BATCH,
        K,
        CHECKED,
        CALLERS,
        &mut tracer,
        &count,
        &mut report,
    );
    let (answered, certified) = (answered.into_inner(), certified.into_inner());
    report.set(
        "sa.certified_share",
        certified as f64 / answered.max(1) as f64,
    );
    args.mark("search done");

    let mut ratios = Vec::new();
    for (i, resp) in phase.kept.iter().enumerate() {
        let Some(resp) = resp else {
            report.fail(format!("pool query {i} was never answered"));
            continue;
        };
        let truth = check_report(i, &inputs.queries[i], K, resp, &mirror, &mut report);
        let shift = |d: &[u32]| d.iter().map(|&d| f64::from(d) + 1.0).collect::<Vec<f64>>();
        let got: Vec<u32> = resp.hits.iter().map(|h| h.distance).collect();
        ratios.push(approx_ratio(&shift(&got), &shift(&truth)));
    }
    // edit-distance form of Eqn. 13 (distances shifted by one)
    report.set("ann_approx_ratio", crate::util::mean(&ratios));
    // at k = 16 the 16th-nearest titles are too far for the count
    // filter to certify; nearest-title searches certify, and a certified
    // answer must equal the brute-force one
    let mut certified_1 = 0;
    for (i, q) in inputs.queries[..CHECKED].iter().enumerate() {
        report.attempted += 1;
        match coll.search(q, 1) {
            Ok(r) => {
                certified_1 += usize::from(r.certified);
                check_report(i, q, 1, &r, &mirror, &mut report);
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("nearest-title search {i}: {e}"));
            }
        }
    }
    if certified_1 == 0 {
        report.fail("no nearest-title answer was certified");
    }
    args.mark("answers checked");

    common::checkpoint(&db, &dir, &mut report);
    let deletes = Rng::new(args.seed ^ 0xde1e7e).permutation(N);
    let batches = common::tail_batches(TAIL, &deletes, &inputs.inserts);
    let (durable_ms, ids) =
        common::timed_mutations(&coll, batches.clone(), WRITERS, &mut report, &mut tracer);
    // the writers race, so ids follow commit order, not batch order
    let mut inserted: Vec<(ObjectId, Vec<u8>)> = Vec::new();
    for ((dels, ins), got) in batches.into_iter().zip(&ids) {
        for d in dels {
            mirror.0[d as usize] = None;
        }
        inserted.extend(got.iter().copied().zip(ins));
    }
    inserted.sort_by_key(|(id, _)| *id);
    for (id, item) in inserted {
        if id as usize != mirror.0.len() {
            report.fail(format!("insert got id {id}, expected {}", mirror.0.len()));
        }
        mirror.0.push(Some(item));
    }
    report.note("mutate_p50_ms", median(&durable_ms));
    report.note("mutate_p99_ms", quantile(&durable_ms, 0.99));
    let status = coll.mutation_status();
    report.set("delta.pending_end", status.delta as f64);
    report.set("delta.tombstones_end", status.tombstones as f64);
    common::store_layers(&mut report, &db.stats());
    args.mark("tail done");

    // raw counts (KC candidates) after the tail, live and reopened; the
    // inserted titles themselves are among the check queries
    let domain = coll.domain();
    let specs: Vec<&Vec<u8>> = inputs.queries[..CHECKED]
        .iter()
        .chain(&inputs.inserts[TAIL / 2 - 4..TAIL / 2])
        .collect();
    let queries: Vec<Query> = specs
        .iter()
        .map(|q| domain.encode(q).expect("non-empty"))
        .collect();
    let expected: Vec<_> = specs.iter().map(|q| mirror.top_k_counts(q, KC)).collect();
    let id = coll.id();
    let answers_live = common::check_raw(&db, id, &queries, &expected, KC, "live", &mut report);
    drop((coll, db));
    args.mark("live checks done");

    match common::reopen(args, &dir, REOPENS) {
        Ok((secs, db2, replayed)) => {
            report.attempted += REOPENS as u64;
            report.set("recover_s", median(&secs));
            report.set("recovery.events_replayed", replayed as f64);
            let answers =
                common::check_raw(&db2, id, &queries, &expected, KC, "reopened", &mut report);
            if answers != answers_live {
                report.fail("answers changed across the reopen");
            }
            // the decoded answers of the reopened collection verify too
            for (i, ((q, (hits, at)), _)) in specs
                .iter()
                .zip(&answers)
                .zip(&expected)
                .enumerate()
                .take(CHECKED)
            {
                let hits = hits
                    .iter()
                    .map(|&(id, count)| genie_core::topk::TopHit { id, count })
                    .collect();
                let r = domain.decode(q, hits, *at, KC, K);
                check_report(i, q, K, &r, &mirror, &mut report);
            }
            if args.trace {
                let t0 = Instant::now();
                let _ = db2.service().compact_collection(id);
                report.set("compaction.s", t0.elapsed().as_secs_f64());
            }
        }
        Err(e) => {
            report.attempted += 1;
            report.failed += 1;
            report.fail(e);
        }
    }
    args.mark("reopens done");

    if args.trace {
        layer_probes(args, &inputs, &deletes, &durable_ms, &mut report);
        common::write_trace(args, &[("caller", tracer.take())]);
    }
    report
}

fn layer_probes(
    args: &Args,
    inputs: &Inputs,
    deletes: &[u32],
    durable_ms: &[f64],
    report: &mut Report,
) {
    let db = common::open_memory(args);
    let t0 = Instant::now();
    let coll = db
        .create_collection::<SequenceIndex>("titles", GRAM, inputs.titles.clone())
        .expect("in-memory collection");
    report.set("index.build_s", t0.elapsed().as_secs_f64());
    let domain = coll.domain();
    report.set(
        "index.postings_m",
        domain.index().list_array().len() as f64 / 1e6,
    );

    let specs = &inputs.queries[..256];
    let t0 = Instant::now();
    let encoded: Vec<Query> = specs
        .iter()
        .map(|q| domain.encode(q).expect("non-empty"))
        .collect();
    report.set(
        "sa.encode_us_per_query",
        t0.elapsed().as_secs_f64() * 1e6 / specs.len() as f64,
    );
    let batches: Vec<Vec<Query>> = encoded.chunks(BATCH).map(<[Query]>::to_vec).collect();
    let outs = common::backend_probe(report, domain.index(), &batches, KC);
    let raw: Vec<_> = outs
        .into_iter()
        .flat_map(|o| o.results.into_iter().zip(o.audit_thresholds))
        .collect();
    report.set(
        "sa.candidates_per_query",
        raw.iter().map(|(h, _)| h.len()).sum::<usize>() as f64 / raw.len() as f64,
    );
    let t0 = Instant::now();
    for (q, (hits, at)) in specs.iter().zip(raw) {
        std::hint::black_box(domain.decode(q, hits, at, KC, K));
    }
    report.set(
        "sa.verify_us_per_query",
        t0.elapsed().as_secs_f64() * 1e6 / specs.len() as f64,
    );
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
