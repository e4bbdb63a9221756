//! `doc_wire_live`: a durable, sharded collection of tweets-like
//! documents served by an in-process `NetServer` on loopback. Two load
//! threads, one connection each, run an open loop at a fixed rate well
//! below saturation: Zipf-popular searches on one connection, journaled
//! insert/delete batches (a tenth of the operations) on the other. The
//! kernel work is small; the wire, admission, result cache, shard
//! fan-out with tombstone filtering, journal and compaction set the
//! numbers. The run ends with an explicit compaction and checkpoint, a
//! fixed tail of journaled batches and timed reopens.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie_client::{Client, Pending};
use genie_core::domain::Domain;
use genie_core::model::ObjectId;
use genie_net::frame::{Request, Response};
use genie_net::{NetServer, ServerConfig, ServerHandle};
use genie_sa::DocumentIndex;
use genie_service::{Collection, GenieDb};

use crate::check::{check_top_k, DocMirror, Hit};
use crate::common;
use crate::rng::{Rng, Zipf};
use crate::util::{median, ms_since, quantile, Digest, Tracer};
use crate::{Args, Report};

pub const N: usize = 100_000;
pub const VOCAB: usize = 20_000;
pub const SHARDS: usize = 4;
pub const K: usize = 10;
/// Distinct queries; their Zipf(1) popularity keeps the hot set inside
/// the 1024-entry result cache.
pub const POOL: usize = 512;
/// Documents the inserts cycle through.
pub const INSERT_POOL: usize = 8192;
pub const SEARCH_RATE: f64 = 200.0;
pub const MUTATE_RATE: f64 = 20.0;
/// Deletes (and as many inserts) per live mutation batch: 16 units of
/// compaction debt each, so the default trigger (1024) fires every 64
/// batches and a 10 s run sees three background compactions and their
/// checkpoints.
pub const PER_BATCH: usize = 8;
/// Journaled batches after the final checkpoint, their size and rate:
/// 250 batches of 4 units stay under the trigger, so no background
/// compaction prunes the journal the reopens replay.
pub const TAIL_PER_BATCH: usize = 2;
pub const TAIL: usize = 250;
pub const TAIL_RATE: f64 = 125.0;
pub const SETUPS: usize = 9;
pub const REOPENS: usize = 5;
/// Check queries from the pool (plus four inserted documents).
pub const CHECKED: usize = 16;

struct Inputs {
    corpus: Vec<Vec<String>>,
    queries: Vec<Vec<String>>,
    inserts: Vec<Vec<String>>,
}

fn generate(seed: u64, report: &mut Report) -> Inputs {
    use genie_datasets::documents::tweets_like;
    let corpus = tweets_like(N, VOCAB, 3, 12, seed);
    let queries = tweets_like(POOL, VOCAB, 2, 5, seed ^ 0x9e);
    let inserts = tweets_like(INSERT_POOL, VOCAB, 3, 12, seed ^ 0x1a5e);
    let mut digest = Digest::default();
    for d in corpus.iter().chain(&queries).chain(&inserts) {
        digest.words(d);
    }
    common::check_digest(report, "doc_wire_live", seed, &digest.hex());
    if tweets_like(100, VOCAB, 3, 12, seed)[..] != corpus[..100] {
        report.fail("tweets_like is not deterministic for this seed");
    }
    Inputs {
        corpus,
        queries,
        inserts,
    }
}

/// The state a run builds and tears down.
struct Live {
    db: GenieDb,
    coll: Collection<DocumentIndex>,
    server: ServerHandle,
    searcher: Client,
    mutator: Client,
}

fn start(args: &Args, dir: &std::path::Path, inputs: &Inputs) -> Result<Live, String> {
    let db = common::open_durable(args, dir)?;
    let coll = db
        .create_collection_sharded::<DocumentIndex>("docs", (), inputs.corpus.clone(), SHARDS)
        .map_err(|e| format!("create_collection: {e}"))?;
    let server = NetServer::spawn(db.service_handle(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let searcher = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mutator = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Live {
        db,
        coll,
        server,
        searcher,
        mutator,
    })
}

/// One open-loop operation's outcome.
struct Op {
    /// Scheduled send time.
    due: Instant,
    /// Actual send time (after encoding).
    sent: Instant,
    /// When this thread observed the reply.
    observed: Instant,
    latency_ms: f64,
    server_ms: f64,
    full_ms: f64,
    /// Pool index of a search; batch number of a mutation.
    what: usize,
    response: Result<Response, String>,
}

/// Send `count` requests at `rate` per second from `start` on one
/// connection without waiting for replies (open loop); replies are
/// collected between sends. `make(i)` builds the i-th request.
fn open_loop(
    client: &Client,
    start: Instant,
    rate: f64,
    count: usize,
    tracer: &mut Tracer,
    span: &'static str,
    make: &mut dyn FnMut(usize) -> (usize, Request),
) -> Vec<Op> {
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut inflight: VecDeque<(Instant, Instant, usize, u32, Pending)> = VecDeque::new();
    let mut ops = Vec::with_capacity(count);
    let mut next = 0;
    let finish = |ops: &mut Vec<Op>,
                  due: Instant,
                  sent: Instant,
                  what: usize,
                  r: Result<genie_client::Reply, genie_client::ClientError>| {
        let observed = Instant::now();
        let (latency_ms, server_ms, full_ms, response) = match r {
            Ok(reply) => (
                (sent - due).as_secs_f64() * 1e3 + reply.full_latency_us / 1e3,
                reply.server_latency_us / 1e3,
                reply.full_latency_us / 1e3,
                Ok(reply.response),
            ),
            Err(e) => (ms_since(due), 0.0, 0.0, Err(e.to_string())),
        };
        ops.push(Op {
            due,
            sent,
            observed,
            latency_ms,
            server_ms,
            full_ms,
            what,
            response,
        });
    };
    loop {
        let now = Instant::now();
        if next < count && now >= due(next) {
            let (what, request) = make(next);
            let sent = Instant::now();
            let start_ns = tracer.ns_of(sent);
            match client.send(&request) {
                Ok(p) => {
                    let id = tracer.record(span, start_ns, start_ns, 0, p.request_id());
                    inflight.push_back((due(next), sent, what, id, p));
                }
                Err(e) => finish(&mut ops, due(next), sent, what, Err(e)),
            }
            next += 1;
            continue;
        }
        if next >= count && inflight.is_empty() {
            break;
        }
        let until = if next < count {
            due(next)
        } else {
            now + Duration::from_millis(20)
        };
        match inflight.front() {
            Some((_, _, _, _, p)) => {
                let wait = until
                    .saturating_duration_since(now)
                    .min(Duration::from_millis(1));
                if let Some(r) = p.wait_timeout(wait) {
                    let (d, sent, what, id, _) = inflight.pop_front().expect("front exists");
                    if id > 0 {
                        tracer.close(id);
                    }
                    finish(&mut ops, d, sent, what, r);
                }
            }
            None => std::thread::sleep(until.saturating_duration_since(now)),
        }
    }
    ops
}

fn search_hits(r: &Result<Response, String>) -> Result<(Vec<Hit>, u32), String> {
    match r {
        Ok(Response::Search {
            hits,
            audit_threshold,
            ..
        }) => Ok((
            hits.iter().map(|h| (h.id, h.count)).collect(),
            *audit_threshold,
        )),
        Ok(other) => Err(format!("unexpected reply {other:?}")),
        Err(e) => Err(e.clone()),
    }
}

/// Cursor over the deletes and inserts every mutation path draws from,
/// so no id is deleted twice and inserts stay in order.
struct MutationSource {
    deletes: Vec<u32>,
    next_delete: usize,
    next_insert: usize,
}

impl MutationSource {
    fn batch(&mut self, inputs: &Inputs, size: usize) -> (Vec<ObjectId>, Vec<Vec<String>>) {
        let d = self.deletes[self.next_delete..self.next_delete + size].to_vec();
        self.next_delete += size;
        let ins = (0..size)
            .map(|i| inputs.inserts[(self.next_insert + i) % INSERT_POOL].clone())
            .collect();
        self.next_insert += size;
        (d, ins)
    }
}

/// An answered mutation batch with what it deleted and inserted.
type Acked = (Op, Vec<ObjectId>, Vec<Vec<String>>);

/// Outcome of a live phase.
struct Phase {
    searches: Vec<Op>,
    mutations: Vec<Acked>,
    wall_s: f64,
}

/// Both load threads for `seconds`.
fn live_phase(
    live: &Live,
    inputs: &Inputs,
    seconds: f64,
    picks: &mut Rng,
    source: &mut MutationSource,
    tracers: (&mut Tracer, &mut Tracer),
) -> Phase {
    let domain = live.coll.domain();
    let id = live.coll.id();
    let zipf = Zipf::new(POOL, 1.0);
    let n_search = (seconds * SEARCH_RATE).round() as usize;
    let n_mutate = (seconds * MUTATE_RATE).round() as usize;
    let picks_list: Vec<usize> = (0..n_search).map(|_| zipf.sample(picks)).collect();
    let batches: Vec<(Vec<ObjectId>, Vec<Vec<String>>)> = (0..n_mutate)
        .map(|_| source.batch(inputs, PER_BATCH))
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let (st, mt) = tracers;
    let (searches, mutations) = std::thread::scope(|s| {
        let dom = Arc::clone(&domain);
        let searcher = s.spawn(move || {
            open_loop(
                &live.searcher,
                start,
                SEARCH_RATE,
                n_search,
                st,
                "wire.search",
                &mut |i| {
                    let q = picks_list[i];
                    let query = dom
                        .encode(&inputs.queries[q])
                        .expect("pool queries are non-empty");
                    (
                        q,
                        Request::Search {
                            collection: id,
                            k: K as u32,
                            query,
                        },
                    )
                },
            )
        });
        let mutations = mutation_loop(live, &domain, &batches, start, MUTATE_RATE, mt);
        (searcher.join().expect("search thread"), mutations)
    });
    Phase {
        searches,
        mutations,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn mutation_loop(
    live: &Live,
    domain: &DocumentIndex,
    batches: &[(Vec<ObjectId>, Vec<Vec<String>>)],
    start: Instant,
    rate: f64,
    tracer: &mut Tracer,
) -> Vec<Acked> {
    let id = live.coll.id();
    let ops = open_loop(
        &live.mutator,
        start,
        rate,
        batches.len(),
        tracer,
        "wire.mutate",
        &mut |i| {
            let (deletes, inserts) = &batches[i];
            let inserts = inserts
                .iter()
                .map(|d| {
                    domain
                        .decompose(d)
                        .expect("documents always decompose")
                        .keywords
                })
                .collect();
            (
                i,
                Request::Mutate {
                    collection: id,
                    deletes: deletes.clone(),
                    inserts,
                },
            )
        },
    );
    ops.into_iter()
        .map(|op| {
            let (deletes, inserts) = batches[op.what].clone();
            (op, deletes, inserts)
        })
        .collect()
}

/// Fold acknowledged batches into the mirror (ids must come back dense
/// and in order) and return each delete's acknowledgement time.
fn apply_acks(
    mutations: &[Acked],
    mirror: &mut DocMirror,
    deleted_at: &mut HashMap<ObjectId, Instant>,
    report: &mut Report,
) {
    for (op, deletes, inserts) in mutations {
        report.attempted += 1;
        let ids = match &op.response {
            Ok(Response::Ids { ids }) => ids.clone(),
            Ok(Response::Ack) => Vec::new(),
            Ok(other) => {
                report.failed += 1;
                report.fail(format!("mutation {} answered {other:?}", op.what));
                continue;
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("mutation {}: {e}", op.what));
                continue;
            }
        };
        for &d in deletes {
            mirror.delete(d);
            deleted_at.insert(d, op.observed);
        }
        let want: Vec<u32> = (0..inserts.len() as u32)
            .map(|i| mirror.len() as u32 + i)
            .collect();
        if ids != want {
            report.fail(format!(
                "mutation {} got ids {ids:?}, expected {want:?}",
                op.what
            ));
        }
        for doc in inserts {
            mirror.push(doc);
        }
    }
}

/// Searches sent after a delete was acknowledged must not return it.
fn check_no_deleted(searches: &[Op], deleted_at: &HashMap<ObjectId, Instant>, report: &mut Report) {
    for op in searches {
        if let Ok((hits, _)) = search_hits(&op.response) {
            for (id, _) in hits {
                if deleted_at.get(&id).is_some_and(|&acked| acked < op.sent) {
                    report.fail(format!(
                        "search sent after the delete of {id} was acknowledged returned it"
                    ));
                }
            }
        }
    }
}

/// Check queries over the wire at a quiescent point, hit for hit
/// against the mirror; returns the answers.
fn quiescent_check(
    client: &Client,
    collection: u64,
    domain: &DocumentIndex,
    specs: &[Vec<String>],
    mirror: &DocMirror,
    when: &str,
    report: &mut Report,
) -> Vec<(Vec<Hit>, u32)> {
    specs
        .iter()
        .enumerate()
        .map(|(i, q)| {
            report.attempted += 1;
            let want = mirror.top_k(q, K);
            let query = domain.encode(q).expect("non-empty");
            match client.search(collection, K as u32, query) {
                Ok(r) => {
                    let hits: Vec<Hit> = r.hits.iter().map(|h| (h.id, h.count)).collect();
                    report.check(
                        &format!("{when} check query {i}"),
                        check_top_k(&hits, r.audit_threshold, &want),
                    );
                    (hits, r.audit_threshold)
                }
                Err(e) => {
                    report.failed += 1;
                    report.fail(format!("{when} check query {i}: {e}"));
                    (Vec::new(), 0)
                }
            }
        })
        .collect()
}

fn check_status(
    client: &Client,
    collection: u64,
    mirror: &DocMirror,
    live_count: usize,
    when: &str,
    report: &mut Report,
) {
    report.attempted += 1;
    match client.mutation_status(collection) {
        Ok((live, _, _, _, next_id)) => {
            if live as usize != live_count || next_id as usize != mirror.len() {
                report.fail(format!(
                    "{when}: {live} live / next id {next_id}, mirror has {live_count} / {}",
                    mirror.len()
                ));
            }
        }
        Err(e) => {
            report.failed += 1;
            report.fail(format!("{when} mutation_status: {e}"));
        }
    }
}

fn record_searches(searches: &[Op], report: &mut Report) -> Vec<f64> {
    let mut lat = Vec::with_capacity(searches.len());
    for op in searches {
        report.attempted += 1;
        match search_hits(&op.response) {
            Ok(_) => lat.push(op.latency_ms),
            Err(e) => {
                report.failed += 1;
                report.fail(format!("search: {e}"));
            }
        }
    }
    lat
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let inputs = generate(args.seed, &mut report);
    if args.inputs_only {
        return report;
    }
    let mut mirror = DocMirror::default();
    for d in &inputs.corpus {
        mirror.push(d);
    }
    args.mark("generated");

    let mut setup_s = Vec::new();
    let mut current = None;
    for i in 0..SETUPS {
        drop(current.take());
        let dir = common::fresh_dir(args, "store");
        let t0 = Instant::now();
        let live = match start(args, &dir, &inputs) {
            Ok(l) => l,
            Err(e) => {
                report.fail(e);
                return report;
            }
        };
        let query = live
            .coll
            .domain()
            .encode(&inputs.queries[0])
            .expect("non-empty");
        report.attempted += 1;
        if let Err(e) = live.searcher.search(live.coll.id(), K as u32, query) {
            report.failed += 1;
            report.fail(format!("first search of setup {i}: {e}"));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        current = Some(live);
    }
    let live = current.expect("SETUPS >= 1");
    let dir = args.work.join("store");
    let id = live.coll.id();
    let domain = live.coll.domain();
    report.set("setup_s", median(&setup_s));
    args.mark("setups done");

    let mut picks = Rng::new(args.seed ^ 0x2195);
    let mut source = MutationSource {
        deletes: Rng::new(args.seed ^ 0xde1e7e).permutation(N),
        next_delete: 0,
        next_insert: 0,
    };
    let mut deleted_at = HashMap::new();
    let (mut st, mut mt) = (
        Tracer::new(args.origin, args.trace),
        Tracer::new(args.origin, args.trace),
    );
    let stats0 = live.db.stats();
    let mut phases = Vec::new();
    let mut wire_untraced_p50 = 0.0;
    if args.trace {
        let plain = live_phase(
            &live,
            &inputs,
            args.seconds / 2.0,
            &mut picks,
            &mut source,
            (
                &mut Tracer::new(args.origin, false),
                &mut Tracer::new(args.origin, false),
            ),
        );
        let (s1, n1) = (live.db.stats(), live.server.net_stats());
        let traced = live_phase(
            &live,
            &inputs,
            args.seconds / 2.0,
            &mut picks,
            &mut source,
            (&mut st, &mut mt),
        );
        let (s2, n2) = (live.db.stats(), live.server.net_stats());
        common::service_layers(&mut report, &s1, &s2);
        report.set("net.frames_in", (n2.frames_in - n1.frames_in) as f64);
        report.set("net.frames_out", (n2.frames_out - n1.frames_out) as f64);
        let med = |p: &Phase| median(&p.searches.iter().map(|o| o.latency_ms).collect::<Vec<_>>());
        report.set(
            "trace.overhead_pct",
            common::overhead_pct(med(&plain), med(&traced)),
        );
        wire_untraced_p50 = med(&plain);
        report.set(
            "net.server_ms_p50",
            median(
                &traced
                    .searches
                    .iter()
                    .map(|o| o.server_ms)
                    .collect::<Vec<_>>(),
            ),
        );
        report.set(
            "net.full_ms_p50",
            median(
                &traced
                    .searches
                    .iter()
                    .map(|o| o.full_ms)
                    .collect::<Vec<_>>(),
            ),
        );
        let late: Vec<f64> = traced
            .searches
            .iter()
            .chain(traced.mutations.iter().map(|m| &m.0))
            .map(|o| (o.sent - o.due).as_secs_f64() * 1e3)
            .collect();
        report.set("loadgen.late_ms_p99", quantile(&late, 0.99));
        phases.push(plain);
        phases.push(traced);
    } else {
        phases.push(live_phase(
            &live,
            &inputs,
            args.seconds,
            &mut picks,
            &mut source,
            (&mut st, &mut mt),
        ));
    }
    let stats1 = live.db.stats();
    report.set(
        "compaction.count",
        (stats1.compactions - stats0.compactions) as f64,
    );
    report.set(
        "compaction.stale",
        (stats1.stale_compactions - stats0.stale_compactions) as f64,
    );
    let status = live.coll.mutation_status();
    report.set("delta.pending_end", status.delta as f64);
    report.set("delta.tombstones_end", status.tombstones as f64);

    let mut search_ms = Vec::new();
    let mut mutate_ms = Vec::new();
    let (mut answered, mut wall) = (0usize, 0.0);
    for p in &phases {
        let lat = record_searches(&p.searches, &mut report);
        answered += lat.len();
        wall += p.wall_s;
        search_ms.extend(lat);
        mutate_ms.extend(
            p.mutations
                .iter()
                .filter(|m| m.0.response.is_ok())
                .map(|m| m.0.latency_ms),
        );
        apply_acks(&p.mutations, &mut mirror, &mut deleted_at, &mut report);
    }
    for p in &phases {
        check_no_deleted(&p.searches, &deleted_at, &mut report);
    }
    let wire_p50 = median(&search_ms);
    report.set("search_qps", answered as f64 / wall);
    report.set("search_p50_ms", wire_p50);
    report.note("search_p99_ms", quantile(&search_ms, 0.99));
    println!(
        "# live: {} searches, {} mutation batches",
        search_ms.len(),
        mutate_ms.len()
    );
    args.mark("live phase done");

    let mut specs: Vec<Vec<String>> = inputs.queries[..CHECKED].to_vec();
    specs.extend(inputs.inserts[..4].iter().cloned());
    let live_count = |m: &DocMirror| (0..m.len() as u32).filter(|&i| m.is_live(i)).count();
    quiescent_check(
        &live.searcher,
        id,
        &domain,
        &specs,
        &mirror,
        "after the live phase",
        &mut report,
    );
    check_status(
        &live.searcher,
        id,
        &mirror,
        live_count(&mirror),
        "after the live phase",
        &mut report,
    );

    if args.trace {
        probes(
            args,
            &live,
            &inputs,
            &mut source,
            &mut mirror,
            wire_untraced_p50,
            &mut report,
        );
    }

    // fold the debt, checkpoint, then the journaled tail
    let t0 = Instant::now();
    if let Err(e) = live.coll.compact() {
        report.fail(format!("compact: {e}"));
    }
    report.set("compaction.s", t0.elapsed().as_secs_f64());
    common::checkpoint(&live.db, &dir, &mut report);
    let tail_batches: Vec<_> = (0..TAIL)
        .map(|_| source.batch(&inputs, TAIL_PER_BATCH))
        .collect();
    let tail = mutation_loop(
        &live,
        &domain,
        &tail_batches,
        Instant::now(),
        TAIL_RATE,
        &mut mt,
    );
    mutate_ms.extend(
        tail.iter()
            .filter(|m| m.0.response.is_ok())
            .map(|m| m.0.latency_ms),
    );
    apply_acks(&tail, &mut mirror, &mut deleted_at, &mut report);
    report.note("mutate_p50_ms", median(&mutate_ms));
    report.note("mutate_p99_ms", quantile(&mutate_ms, 0.99));
    common::store_layers(&mut report, &live.db.stats());
    report.set(
        "compaction.count",
        (stats1.compactions - stats0.compactions) as f64,
    );
    report.set(
        "compaction.stale",
        (stats1.stale_compactions - stats0.stale_compactions) as f64,
    );
    let answers_live = quiescent_check(
        &live.searcher,
        id,
        &domain,
        &specs,
        &mirror,
        "after the tail",
        &mut report,
    );
    check_status(
        &live.searcher,
        id,
        &mirror,
        live_count(&mirror),
        "after the tail",
        &mut report,
    );
    // the exact answers make the Eqn. 13 form (best possible over
    // returned overlap) read 1 unless a check above failed
    let ratios: Vec<f64> = specs
        .iter()
        .zip(&answers_live)
        .map(|(q, (hits, _))| {
            let want: u32 = mirror.top_k(q, K).0.iter().map(|h| h.1).sum();
            let got: u32 = hits.iter().map(|h| h.1).sum();
            if got > 0 {
                f64::from(want) / f64::from(got)
            } else {
                1.0
            }
        })
        .collect();
    report.set("ann_approx_ratio", crate::util::mean(&ratios));
    args.mark("tail done");

    let Live {
        db,
        coll,
        mut server,
        searcher,
        mutator,
    } = live;
    drop((searcher, mutator));
    server.shutdown();
    drop((server, coll, db));

    match common::reopen(args, &dir, REOPENS) {
        Ok((secs, db2, replayed)) => {
            report.attempted += REOPENS as u64;
            report.set("recover_s", median(&secs));
            report.set("recovery.events_replayed", replayed as f64);
            match NetServer::spawn(db2.service_handle(), "127.0.0.1:0", ServerConfig::default())
                .map_err(|e| e.to_string())
                .and_then(|s| {
                    Client::connect(s.addr())
                        .map(|c| (s, c))
                        .map_err(|e| e.to_string())
                }) {
                Ok((mut server, client)) => {
                    let answers = quiescent_check(
                        &client,
                        id,
                        &domain,
                        &specs,
                        &mirror,
                        "reopened",
                        &mut report,
                    );
                    if answers != answers_live {
                        report.fail("answers changed across the reopen");
                    }
                    check_status(
                        &client,
                        id,
                        &mirror,
                        live_count(&mirror),
                        "reopened",
                        &mut report,
                    );
                    drop(client);
                    server.shutdown();
                }
                Err(e) => report.fail(format!("serving the reopened store: {e}")),
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
        common::write_trace(args, &[("searcher", st.take()), ("mutator", mt.take())]);
    }
    report
}

/// Traced-run probes: index build, backend and kernel, in-process
/// latency of the same search stream, and the journal's fsync cost.
#[allow(clippy::too_many_arguments)]
fn probes(
    args: &Args,
    live: &Live,
    inputs: &Inputs,
    source: &mut MutationSource,
    mirror: &mut DocMirror,
    wire_p50: f64,
    report: &mut Report,
) {
    let db = common::open_memory(args);
    let t0 = Instant::now();
    let mem = db
        .create_collection_sharded::<DocumentIndex>("docs", (), inputs.corpus.clone(), SHARDS)
        .expect("in-memory collection");
    report.set("index.build_s", t0.elapsed().as_secs_f64());
    let domain = live.coll.domain();
    report.set(
        "index.postings_m",
        domain.index().list_array().len() as f64 / 1e6,
    );
    let encoded: Vec<_> = inputs
        .queries
        .iter()
        .map(|q| domain.encode(q).expect("non-empty"))
        .collect();
    let batches: Vec<Vec<_>> = encoded.chunks(64).map(<[_]>::to_vec).collect();
    common::backend_probe(report, domain.index(), &batches, K);

    // the same Zipf stream in process, at the same rate: this thread
    // submits on schedule, a second one waits for the tickets in order
    let zipf = Zipf::new(POOL, 1.0);
    let mut picks = Rng::new(args.seed ^ 0x2195);
    let n = (args.seconds / 4.0 * SEARCH_RATE).round() as usize;
    let before = live.db.stats();
    let start = Instant::now();
    let (tx, rx) =
        std::sync::mpsc::channel::<(Instant, genie_service::TypedTicket<DocumentIndex>)>();
    let (in_process, failed) = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let (mut lat, mut failed) = (Vec::new(), 0u64);
            for (due, ticket) in rx {
                match ticket.wait() {
                    Ok(_) => lat.push(ms_since(due)),
                    Err(_) => failed += 1,
                }
            }
            (lat, failed)
        });
        for i in 0..n {
            let due = start + Duration::from_secs_f64(i as f64 / SEARCH_RATE);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let q = zipf.sample(&mut picks);
            let ticket = live
                .coll
                .submit(inputs.queries[q].clone(), K)
                .expect("pool queries encode");
            tx.send((due, ticket)).expect("waiter is alive");
        }
        drop(tx);
        waiter.join().expect("waiter thread")
    });
    report.attempted += n as u64;
    report.failed += failed;
    let after = live.db.stats();
    let per_wave = common::wave_ms(&before, &after);
    report.set("service.wait_ms_p50", median(&in_process) - per_wave);
    report.set("net.overhead_ms_p50", wire_p50 - median(&in_process));

    // durable in-process batches against the same batches in memory
    let batches: Vec<_> = (0..50)
        .map(|_| source.batch(inputs, TAIL_PER_BATCH))
        .collect();
    let mut t = Tracer::new(args.origin, false);
    let (durable_ms, ids) = common::timed_mutations(&live.coll, batches.clone(), 1, report, &mut t);
    let (memory_ms, _) = common::timed_mutations(&mem, batches.clone(), 1, report, &mut t);
    common::fsync_layer(report, &durable_ms, &memory_ms);
    for ((deletes, inserts), ids) in batches.iter().zip(ids) {
        for &d in deletes {
            mirror.delete(d);
        }
        if ids
            != (0..inserts.len() as u32)
                .map(|i| mirror.len() as u32 + i)
                .collect::<Vec<_>>()
        {
            report.fail(format!("in-process mutation got ids {ids:?}"));
        }
        for d in inserts {
            mirror.push(d);
        }
    }
}
