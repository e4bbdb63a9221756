//! The pieces every workload shares: the backend fleet, durable and
//! in-memory databases, the closed batch loop, reopening, counter
//! deltas and the backend/kernel probe.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie_core::backend::{CpuBackend, SearchBackend};
use genie_core::domain::Domain;
use genie_core::index::InvertedIndex;
use genie_core::model::{ObjectId, Query};
use genie_service::{Collection, DbError, GenieDb, SchedulerConfig, ServiceConfig, ServiceStats};

use crate::check::Hit;
use crate::slow::DelayedBackend;
use crate::util::{median, ms_since, quantile, Tracer};
use crate::{Args, Report};

/// The one backend every database of a run uses: the host CPU backend,
/// or the delayed wrapper of the sensitivity self-test.
pub fn backend(args: &Args) -> Arc<dyn SearchBackend> {
    if args.delay_us > 0 {
        Arc::new(DelayedBackend::new(
            CpuBackend::new(),
            Duration::from_micros(args.delay_us),
        ))
    } else {
        Arc::new(CpuBackend::new())
    }
}

pub fn open_durable(args: &Args, dir: &Path) -> Result<GenieDb, String> {
    GenieDb::open_at(
        dir,
        vec![backend(args)],
        SchedulerConfig::default(),
        ServiceConfig::default(),
    )
    .map_err(|e| format!("open_at {}: {e}", dir.display()))
}

pub fn open_memory(args: &Args) -> GenieDb {
    GenieDb::open(
        vec![backend(args)],
        SchedulerConfig::default(),
        ServiceConfig::default(),
    )
    .expect("a one-backend fleet opens")
}

/// An empty directory for one store under the run's scratch directory.
pub fn fresh_dir(args: &Args, name: &str) -> PathBuf {
    let dir = args.work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    dir
}

/// A raw match-count search through a database's shared service.
pub fn raw_search(
    db: &GenieDb,
    collection: u64,
    query: Query,
    k: usize,
) -> Result<(Vec<Hit>, u32), String> {
    let r = db
        .service()
        .submit_to(collection, query, k)
        .wait()
        .map_err(|e| format!("search failed: {e}"))?;
    Ok((
        r.hits.iter().map(|h| (h.id, h.count)).collect(),
        r.audit_threshold,
    ))
}

/// What the closed batch loop measured.
pub struct BatchPhase<R> {
    /// Submit of a batch's first query to the decoded reply of its last.
    pub batch_ms: Vec<f64>,
    /// Per ticket: admission to observed resolution.
    pub ticket_ms: Vec<f64>,
    pub answered: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Responses to pool entries `< keep`, first time each was asked.
    pub kept: Vec<Option<R>>,
}

/// Raw `(hits, AT)` of every check query through the service, each
/// compared hit for hit with the checker's `expected` top-`k`.
pub fn check_raw(
    db: &GenieDb,
    id: u64,
    queries: &[Query],
    expected: &[(Vec<Hit>, u32)],
    k: usize,
    when: &str,
    report: &mut Report,
) -> Vec<(Vec<Hit>, u32)> {
    queries
        .iter()
        .zip(expected)
        .enumerate()
        .map(|(i, (q, want))| {
            report.attempted += 1;
            match raw_search(db, id, q.clone(), k) {
                Ok((hits, at)) => {
                    report.check(
                        &format!("{when} check query {i}"),
                        crate::check::check_top_k(&hits, at, want),
                    );
                    (hits, at)
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

/// One thread, closed loop: submit `batch` distinct pool queries, wait
/// for every ticket (decoding on this thread), repeat until `seconds`
/// have passed. `cursor` walks the pool cyclically across calls.
#[allow(clippy::too_many_arguments)]
pub fn batch_loop<D>(
    coll: &Collection<D>,
    pool: &[D::QuerySpec],
    batch: usize,
    k: usize,
    seconds: f64,
    keep: usize,
    cursor: &mut usize,
    tracer: &mut Tracer,
    inspect: &(dyn Fn(&D::Response) + Sync),
) -> BatchPhase<D::Response>
where
    D: Domain,
    D::QuerySpec: Clone,
{
    let mut out = BatchPhase {
        batch_ms: Vec::new(),
        ticket_ms: Vec::new(),
        answered: 0,
        failed: 0,
        wall_s: 0.0,
        kept: (0..keep).map(|_| None).collect(),
    };
    let started = Instant::now();
    let mut serial = *cursor as u64;
    while started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let batch_no = out.batch_ms.len() as u64;
        let root = tracer.open("batch", 0, batch_no);
        let mut tickets = Vec::with_capacity(batch);
        for _ in 0..batch {
            let idx = *cursor % pool.len();
            *cursor += 1;
            serial += 1;
            let ticket = tracer.span("collection.submit", root, serial, || {
                coll.submit(pool[idx].clone(), k)
            });
            match ticket {
                Ok(t) => tickets.push((idx, serial, t)),
                Err(_) => out.failed += 1,
            }
        }
        for (idx, req, ticket) in tickets {
            let admitted = ticket.submitted_at();
            match tracer.span("ticket.wait_decode", root, req, || ticket.wait()) {
                Ok(resp) => {
                    out.ticket_ms.push(ms_since(admitted));
                    inspect(&resp);
                    out.answered += 1;
                    if idx < keep && out.kept[idx].is_none() {
                        out.kept[idx] = Some(resp);
                    }
                }
                Err(_) => out.failed += 1,
            }
        }
        out.batch_ms.push(ms_since(t));
        if root > 0 {
            tracer.close(root);
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// [`batch_loop`] on `callers` threads at once, each walking its own
/// stretch of the pool; only the first keeps responses. Two callers
/// keep both cores busy, so the result does not hang on which core a
/// single caller thread lands on.
#[allow(clippy::too_many_arguments)]
pub fn batch_callers<D>(
    coll: &Collection<D>,
    pool: &[D::QuerySpec],
    batch: usize,
    k: usize,
    seconds: f64,
    keep: usize,
    cursor: &mut usize,
    tracers: &mut [Tracer],
    inspect: &(dyn Fn(&D::Response) + Sync),
) -> BatchPhase<D::Response>
where
    D: Domain,
    D::QuerySpec: Clone + Sync,
{
    let stride = pool.len() / tracers.len();
    let base = *cursor;
    let mut phases: Vec<(usize, BatchPhase<D::Response>)> = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(t, tracer)| {
                s.spawn(move || {
                    let mut c = base + t * stride;
                    let keep = if t == 0 { keep } else { 0 };
                    let phase =
                        batch_loop(coll, pool, batch, k, seconds, keep, &mut c, tracer, inspect);
                    (c, phase)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let (c0, mut out) = phases.remove(0);
    *cursor = c0;
    for (_, p) in phases {
        out.batch_ms.extend(p.batch_ms);
        out.ticket_ms.extend(p.ticket_ms);
        out.answered += p.answered;
        out.failed += p.failed;
        out.wall_s = out.wall_s.max(p.wall_s);
    }
    out
}

/// Builds a collection from its items inside a database.
pub type Create<'a, D> =
    &'a dyn Fn(&GenieDb, Vec<<D as Domain>::Item>) -> Result<Collection<D>, DbError>;

/// Set a collection up `times` times, each on a fresh durable store
/// and timed until it has answered `first`; keeps the last and reports
/// the median as `setup_s`. `items` runs outside the timing.
#[allow(clippy::too_many_arguments)]
pub fn durable_setups<D: Domain>(
    args: &Args,
    times: usize,
    items: &dyn Fn() -> Vec<D::Item>,
    create: Create<'_, D>,
    first: &D::QuerySpec,
    k: usize,
    report: &mut Report,
) -> Option<(GenieDb, Collection<D>)> {
    let mut setup_s = Vec::with_capacity(times);
    let mut live = None;
    for i in 0..times {
        drop(live.take());
        let dir = fresh_dir(args, "store");
        let items = items();
        let t0 = Instant::now();
        let db = match open_durable(args, &dir) {
            Ok(db) => db,
            Err(e) => {
                report.fail(e);
                return None;
            }
        };
        let coll = match create(&db, items) {
            Ok(c) => c,
            Err(e) => {
                report.fail(format!("create_collection: {e}"));
                return None;
            }
        };
        report.attempted += 1;
        if let Err(e) = coll.search(first, k) {
            report.failed += 1;
            report.fail(format!("first search of setup {i}: {e}"));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        live = Some((db, coll));
    }
    report.set("setup_s", median(&setup_s));
    live
}

/// The measured phase of a batch workload: [`batch_callers`] for the
/// whole run, or, traced, half untraced and half traced with the
/// service counters read around the traced half. Sets the search
/// metrics and returns the untraced phase.
#[allow(clippy::too_many_arguments)]
pub fn search_phase<D>(
    args: &Args,
    db: &GenieDb,
    coll: &Collection<D>,
    pool: &[D::QuerySpec],
    batch: usize,
    k: usize,
    keep: usize,
    callers: usize,
    tracer: &mut Tracer,
    inspect: &(dyn Fn(&D::Response) + Sync),
    report: &mut Report,
) -> BatchPhase<D::Response>
where
    D: Domain,
    D::QuerySpec: Clone + Sync,
{
    let mut cursor = 0;
    let mut tracers: Vec<Tracer> = (0..callers).map(|_| tracer.sibling()).collect();
    let (phase, overhead) = if args.trace {
        let mut quiet: Vec<Tracer> = (0..callers)
            .map(|_| Tracer::new(args.origin, false))
            .collect();
        let half = args.seconds / 2.0;
        let plain = batch_callers(
            coll,
            pool,
            batch,
            k,
            half,
            keep,
            &mut cursor,
            &mut quiet,
            inspect,
        );
        let before = db.stats();
        let traced = batch_callers(
            coll,
            pool,
            batch,
            k,
            half,
            0,
            &mut cursor,
            &mut tracers,
            inspect,
        );
        let after = db.stats();
        service_layers(report, &before, &after);
        let per_wave = wave_ms(&before, &after);
        let waits: Vec<f64> = traced.ticket_ms.iter().map(|t| t - per_wave).collect();
        report.set("service.wait_ms_p50", median(&waits));
        report.attempted += traced.answered + traced.failed;
        report.failed += traced.failed;
        let per_query = |p: &BatchPhase<D::Response>| p.wall_s / p.answered.max(1) as f64;
        let overhead = overhead_pct(per_query(&plain), per_query(&traced));
        (plain, overhead)
    } else {
        let phase = batch_callers(
            coll,
            pool,
            batch,
            k,
            args.seconds,
            keep,
            &mut cursor,
            &mut tracers,
            inspect,
        );
        (phase, 0.0)
    };
    for t in tracers {
        tracer.absorb(t);
    }
    report.attempted += phase.answered + phase.failed;
    report.failed += phase.failed;
    report.set("search_qps", phase.answered as f64 / phase.wall_s);
    report.set("search_p50_ms", median(&phase.batch_ms));
    report.note("search_p99_ms", quantile(&phase.batch_ms, 0.99));
    report.set("trace.overhead_pct", overhead);
    println!(
        "# search: {} queries in {} batches of {batch} from {callers} caller(s)",
        phase.answered,
        phase.batch_ms.len()
    );
    phase
}

/// The journaled tail of the batch workloads: `n` single-operation
/// batches alternating a delete of a base object and an insert, one
/// unit of compaction debt each.
pub fn tail_batches<T: Clone>(n: usize, deletes: &[u32], inserts: &[T]) -> Vec<Batch<T>> {
    (0..n)
        .map(|j| match j % 2 {
            0 => (vec![deletes[j / 2]], Vec::new()),
            _ => (Vec::new(), vec![inserts[j / 2].clone()]),
        })
        .collect()
}

/// A timed explicit checkpoint, then the store's size.
pub fn checkpoint(db: &GenieDb, dir: &Path, report: &mut Report) {
    let t0 = Instant::now();
    if let Err(e) = db.checkpoint() {
        report.fail(format!("checkpoint: {e}"));
    }
    report.set("store.checkpoint_s", t0.elapsed().as_secs_f64());
    report.set("store_mb", crate::util::dir_bytes(dir) as f64 / 1e6);
}

/// Time `GenieDb::open_at` on `dir` `times` times; returns the seconds
/// of each, the last database and its replayed event count.
pub fn reopen(args: &Args, dir: &Path, times: usize) -> Result<(Vec<f64>, GenieDb, usize), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = Instant::now();
        let db = open_durable(args, dir)?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(db);
    }
    let db = last.ok_or("no reopen")?;
    let replayed = db.recovery().map(|r| r.events_replayed).unwrap_or(0);
    Ok((secs, db, replayed))
}

/// One mutation batch: ids to delete, items to insert.
pub type Batch<T> = (Vec<ObjectId>, Vec<T>);

/// A writer's outcome for batch `i`: latency and assigned ids.
type Applied = (usize, Result<(f64, Vec<ObjectId>), String>);

/// Apply mutation batches through `Collection::mutate` from `writers`
/// threads at once (batch `i` on thread `i % writers`, each in order),
/// timing each call. Returns the latencies and the assigned ids, both
/// in batch order; a failed batch has no latency and no ids.
pub fn timed_mutations<D: Domain>(
    coll: &Collection<D>,
    batches: Vec<Batch<D::Item>>,
    writers: usize,
    report: &mut Report,
    tracer: &mut Tracer,
) -> (Vec<f64>, Vec<Vec<ObjectId>>)
where
    D::Item: Send,
{
    let n = batches.len();
    let mut lanes: Vec<Vec<(usize, Batch<D::Item>)>> = (0..writers).map(|_| Vec::new()).collect();
    for (i, b) in batches.into_iter().enumerate() {
        lanes[i % writers].push((i, b));
    }
    let origin_tracers: Vec<Tracer> = (0..writers).map(|_| tracer.sibling()).collect();
    let results: Vec<(Vec<Applied>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .zip(origin_tracers)
            .map(|(lane, mut t)| {
                s.spawn(move || {
                    let out = lane
                        .into_iter()
                        .map(|(i, (deletes, inserts))| {
                            let started = Instant::now();
                            let r = t.span("collection.mutate", 0, i as u64, || {
                                coll.mutate(&deletes, inserts)
                            });
                            (
                                i,
                                r.map(|ids| (ms_since(started), ids))
                                    .map_err(|e| e.to_string()),
                            )
                        })
                        .collect();
                    (out, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect()
    });
    let mut ms = vec![None; n];
    let mut ids = vec![Vec::new(); n];
    for (lane, t) in results {
        tracer.absorb(t);
        for (i, r) in lane {
            report.attempted += 1;
            match r {
                Ok((m, got)) => {
                    ms[i] = Some(m);
                    ids[i] = got;
                }
                Err(e) => {
                    report.failed += 1;
                    report.fail(format!("mutate batch {i}: {e}"));
                }
            }
        }
    }
    (ms.into_iter().flatten().collect(), ids)
}

/// Service counters over a window: admission, scheduling, cache, cost
/// model, shards, compaction and journal.
pub fn service_layers(report: &mut Report, before: &ServiceStats, after: &ServiceStats) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let ratio = |n: f64, m: f64| if m > 0.0 { n / m } else { 0.0 };
    let batches = d(after.batches, before.batches);
    let batched = d(after.batched_requests, before.batched_requests);
    report.set("service.batch_occupancy", ratio(batched, batches));
    report.set(
        "service.deadline_triggers",
        d(after.deadline_triggers, before.deadline_triggers),
    );
    report.set(
        "service.size_triggers",
        d(after.size_triggers, before.size_triggers),
    );
    report.set(
        "service.cache_hit_ratio",
        ratio(
            d(after.cache_hits, before.cache_hits),
            d(after.submitted, before.submitted),
        ),
    );
    report.set(
        "service.cost_fit",
        ratio(
            after.predicted_cost_us - before.predicted_cost_us,
            after.actual_cost_us - before.actual_cost_us,
        ),
    );
    report.set(
        "shard.runs_per_request",
        ratio(d(after.shard_runs, before.shard_runs), batched),
    );
}

/// Lifetime compaction and journal counters of a database.
pub fn store_layers(report: &mut Report, stats: &ServiceStats) {
    report.set("compaction.count", stats.compactions as f64);
    report.set("compaction.stale", stats.stale_compactions as f64);
    if stats.mutation_batches > 0 {
        // every event appended (creates, mutations, swaps) over the
        // mutation batches: 1 + (non-mutation events / batches)
        report.set(
            "store.events_per_mutation_batch",
            stats.journaled_events as f64 / stats.mutation_batches as f64,
        );
    }
    if stats.persist_errors > 0 {
        report.fail(format!(
            "{} journal/checkpoint errors",
            stats.persist_errors
        ));
    }
}

/// Mean scheduler wall time per wave between two snapshots, ms.
pub fn wave_ms(before: &ServiceStats, after: &ServiceStats) -> f64 {
    let waves = after.waves.saturating_sub(before.waves);
    if waves == 0 {
        0.0
    } else {
        (after.wall_us - before.wall_us) / waves as f64 / 1e3
    }
}

/// Upload `index` to a fresh CPU backend and run `batches` through
/// `search_batch` directly, reading the kernel counters around them.
/// Returns each batch's raw output.
pub fn backend_probe(
    report: &mut Report,
    index: &Arc<InvertedIndex>,
    batches: &[Vec<Query>],
    k: usize,
) -> Vec<genie_core::exec::SearchOutput> {
    let cpu = CpuBackend::new();
    let bindex = cpu
        .upload(Arc::clone(index))
        .expect("host upload cannot fail");
    // one warm-up batch fills the scratch pool
    if let Some(b) = batches.first() {
        std::hint::black_box(cpu.search_batch(&bindex, b, k));
    }
    let before = cpu.kernel_stats();
    let t = Instant::now();
    let outs: Vec<_> = batches
        .iter()
        .map(|b| std::hint::black_box(cpu.search_batch(&bindex, b, k)))
        .collect();
    let ns = t.elapsed().as_nanos() as f64;
    let after = cpu.kernel_stats();
    let queries = (after.queries - before.queries).max(1) as f64;
    let postings = (after.postings_scanned - before.postings_scanned) as f64;
    report.set("backend.us_per_query", ns / 1e3 / queries);
    report.set("kernel.postings_per_query", postings / queries);
    report.set(
        "kernel.candidates_per_query",
        (after.candidates - before.candidates) as f64 / queries,
    );
    report.set(
        "kernel.ns_per_posting",
        if postings > 0.0 { ns / postings } else { 0.0 },
    );
    report.set(
        "kernel.dense_finalize",
        (after.dense_finalize - before.dense_finalize) as f64,
    );
    outs
}

/// `store.fsync_ms`: the median durable mutate latency minus the median
/// of the same batches on an in-memory collection.
pub fn fsync_layer(report: &mut Report, durable_ms: &[f64], memory_ms: &[f64]) {
    report.set("store.fsync_ms", median(durable_ms) - median(memory_ms));
}

/// `trace.overhead_pct` from the same quantity measured untraced and
/// traced (lower is better for both).
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (traced / untraced - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Fail the run when `got` differs from the digest recorded for this
/// workload and seed in `input_digests.txt` (seeds not listed there are
/// only checked for determinism by the workload itself).
pub fn check_digest(report: &mut Report, workload: &str, seed: u64, got: &str) {
    println!("# inputs: workload={workload} seed={seed} digest={got}");
    let table = include_str!("../input_digests.txt");
    let want = table.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(&seed.to_string()))
            .then(|| f.next().unwrap_or("").to_owned())
    });
    if let Some(want) = want {
        if want != got {
            report.fail(format!(
                "inputs for seed {seed} digest to {got}, recorded {want}"
            ));
        }
    }
}

/// Write the spans of a traced run next to the stores.
pub fn write_trace(args: &Args, threads: &[(&str, Vec<crate::util::Span>)]) {
    let path = PathBuf::from(".perfbench_work")
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match crate::util::write_spans(&path, threads) {
        Ok(n) => println!("# trace: {n} spans in {}", path.display()),
        Err(e) => eprintln!("cannot write trace {}: {e}", path.display()),
    }
}
