//! The database workload (`db_batch`).
//!
//! Set-up is `make_db` + `Database::open` + `DbSession::new`; serving is
//! a closed loop with one client: each query of the batch is built as
//! its own bank (as `scoris_n --batch` does with a multi-FASTA file) and
//! run through `DbSession::run_query_into`, records streaming to an
//! `-m 8` file. Steps inside a database query are reachable only through
//! the `PipelineStats`, `SearchReport` and `CacheCounters` the public API
//! returns; those figures are program-reported.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use oris_core::{CollectSink, PipelineStats, RecordSink, StreamWriter};
use oris_db::{make_db, Database, DbOptions, DbSession, MakeDbOptions};
use oris_dust::{EntropyMasker, Masker};
use oris_eval::M8Record;
use oris_index::BankIndex;
use oris_seqio::{Bank, BankBuilder};

use crate::trace::Tracer;
use crate::util::{create_output, secs, Counts, Digest, Observed, Traced};
use crate::workload::Workload;
use crate::ALLOC;

fn read(path: &Path) -> Result<Bank, String> {
    oris_seqio::read_fasta_file(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The parsed `makedb` inputs, kept resident across set-ups so set-up
/// time covers the database build, not FASTA parsing.
pub struct Sources(Vec<Bank>);

impl Sources {
    pub fn load(w: &Workload) -> Result<Sources, String> {
        w.db_sources
            .iter()
            .map(|p| read(p))
            .collect::<Result<_, _>>()
            .map(Sources)
    }
}

fn options(w: &Workload) -> DbOptions {
    DbOptions {
        volume_workers: w.volume_workers,
        result_cache_bytes: w.result_cache_mb << 20,
        ..DbOptions::default()
    }
}

/// Builds the database from copies of the sources into `dir`, which must
/// not exist (`make_db` refuses to build over a manifest).
fn build(w: &Workload, banks: Vec<Bank>, dir: &Path) -> Result<(), String> {
    let opts = MakeDbOptions::new(&w.cfg, w.db_volume_residues);
    make_db(banks, dir, &opts).map_err(|e| e.to_string())?;
    Ok(())
}

/// Removes the database a previous set-up left at `dir`.
fn clear(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Times one set-up: `make_db` + `Database::open` + `DbSession::new`.
/// Clearing the previous database and copying the sources stay outside
/// the clock.
pub fn setup(w: &Workload, src: &Sources, dir: &Path) -> Result<f64, String> {
    clear(dir)?;
    let banks = src.0.clone();
    let t = Instant::now();
    build(w, banks, dir)?;
    let db = Database::open(dir).map_err(|e| e.to_string())?;
    let _session = DbSession::new(&db, &w.cfg, options(w)).map_err(|e| e.to_string())?;
    Ok(secs(t))
}

/// Ensures a built database exists at `dir` (for the `scoris_n` runs).
pub fn ensure_built(w: &Workload, src: &Sources, dir: &Path) -> Result<(), String> {
    if dir.join(oris_db::MANIFEST_FILE).exists() {
        return Ok(());
    }
    clear(dir)?;
    build(w, src.0.clone(), dir)
}

/// The query batch, one bank per record, as `scoris_n --batch` builds it.
fn query_bank(batch: &Bank, i: usize) -> Bank {
    let mut b = BankBuilder::new();
    b.push_codes(&batch.record(i).name, batch.sequence(i));
    b.finish()
}

/// One untraced serving pass over an already built database.
pub struct Untraced {
    pub wall: f64,
    /// Seconds of the closed query loop.
    pub serve: f64,
    /// Seconds of each `run_query_into`, in batch order.
    pub latencies: Vec<f64>,
    pub peak_heap: usize,
    pub digest: Digest,
    pub counts: Counts,
}

pub fn untraced(w: &Workload, dir: &Path, out: &Path) -> Result<Untraced, String> {
    let base = ALLOC.reset_peak();
    let t0 = Instant::now();
    let db = Database::open(dir).map_err(|e| e.to_string())?;
    let mut session = DbSession::new(&db, &w.cfg, options(w)).map_err(|e| e.to_string())?;
    let batch = read(&w.query)?;
    let mut sink = StreamWriter::new(create_output(out)?);
    let mut latencies = Vec::with_capacity(batch.num_sequences());
    let mut counts = Counts::default();
    let tl = Instant::now();
    for i in 0..batch.num_sequences() {
        let q = query_bank(&batch, i);
        let tq = Instant::now();
        let stats = session
            .run_query_into(&q, &mut sink)
            .map_err(|e| format!("query {i}: {e}"))?;
        latencies.push(secs(tq));
        counts.add_pipeline(&stats);
    }
    let serve = secs(tl);
    let mut o = sink.into_inner();
    o.flush().map_err(|e| e.to_string())?;
    let wall = secs(t0);
    let peak_heap = ALLOC.peak().saturating_sub(base);
    counts.cache_hits = session.result_cache_counters().hits;
    Ok(Untraced {
        wall,
        serve,
        latencies,
        peak_heap,
        digest: o.digest,
        counts,
    })
}

/// The sink of the traced pass: `StreamWriter`'s work split at the layer
/// boundary — the per-query total-order sort (step 4's boundary sort)
/// and the `-m 8` write (eval), each in its own span.
struct TracedSink<'t, W: Write> {
    tr: &'t Tracer,
    req: u64,
    pending: CollectSink,
    out: W,
}

impl<W: Write> RecordSink for TracedSink<'_, W> {
    fn accept(&mut self, rec: M8Record) {
        self.pending.accept(rec);
    }

    fn end_query(&mut self) -> std::io::Result<()> {
        self.tr
            .time("core.step4", self.req, || self.pending.end_query())?;
        let recs = std::mem::replace(&mut self.pending, CollectSink::new()).into_records();
        self.tr.time("eval.m8_write", self.req, || {
            for rec in &recs {
                writeln!(self.out, "{rec}")?;
            }
            self.out.flush()
        })
    }
}

/// One traced pass: the set-up under a `build` root (`make_db`), then the
/// work `scoris_n --db --batch` does under a `run` root.
pub fn traced(
    w: &Workload,
    src: &Sources,
    dir: &Path,
    out: &Path,
    tr: &Tracer,
) -> Result<Traced, String> {
    clear(dir)?;
    let banks = src.0.clone();
    tr.time("build", 0, || {
        tr.time("db.makedb", 0, || build(w, banks, dir))
    })?;
    let mut obs = Observed::default();
    let mut counts = Counts::default();
    let mut searched = PipelineStats::default();
    let digest = tr.time("run", 0, || -> Result<Digest, String> {
        let db = tr
            .time("db.open", 0, || Database::open(dir))
            .map_err(|e| e.to_string())?;
        let mut session = tr
            .time("db.session_new", 0, || {
                DbSession::new(&db, &w.cfg, options(w))
            })
            .map_err(|e| e.to_string())?;
        let batch = tr.time("seqio.parse", 0, || read(&w.query))?;
        obs.residues = batch.num_residues() as u64;
        let mut sink = TracedSink {
            tr,
            req: 0,
            pending: CollectSink::new(),
            out: create_output(out)?,
        };
        let mut masked = 0.0;
        for i in 0..batch.num_sequences() {
            let req = i as u64;
            sink.req = req;
            let (stats, report) = tr
                .time("db.query", req, || {
                    let q = tr.time("seqio.parse", req, || query_bank(&batch, i));
                    session.run_query_reported(&q, &mut sink)
                })
                .map_err(|e| format!("query {i}: {e}"))?;
            counts.add_pipeline(&stats);
            masked += stats.masked_fraction1 * batch.sequence(i).len() as f64;
            let from_cache = report.cache_hits.len() as u64;
            obs.volume_searches += report.searched.len() as u64 - from_cache;
            if from_cache < report.searched.len() as u64 {
                searched = searched.merge(&stats);
            }
        }
        obs.query_masked_fraction = masked / batch.num_residues().max(1) as f64;
        let cache = session.result_cache_counters();
        obs.cache_hits = cache.hits;
        obs.cache_misses = cache.misses;
        counts.cache_hits = cache.hits;
        for c in session.volume_costs() {
            obs.attach_secs += c.attach_secs;
            obs.attaches += u64::from(c.attaches);
        }
        sink.out.flush().map_err(|e| e.to_string())?;
        Ok(sink.out.digest)
    })?;
    obs.m8_bytes = digest.bytes;
    obs.searched = Some(searched);
    Ok(Traced {
        digest,
        counts,
        observed: obs,
    })
}

/// Step 1 of every query, timed layer by layer outside the database
/// session (the session runs it internally, where no span can reach):
/// the benchmark calls the same mask and index functions the session
/// calls, under a `probe` root. Returns the largest query index's bytes
/// and its distinct seed codes summed over queries.
pub fn probe_step1(w: &Workload, tr: &Tracer) -> Result<(u64, u64), String> {
    let batch = read(&w.query)?;
    let icfg = w.cfg.query_index_config();
    let (mut bytes, mut codes) = (0u64, 0u64);
    tr.time("probe", 0, || {
        for i in 0..batch.num_sequences() {
            let req = i as u64;
            let q = query_bank(&batch, i);
            let mask = tr.time("dust.mask", req, || EntropyMasker::default().mask_bank(&q));
            let index = tr.time("index.build", req, || {
                let dilated = mask.dilated_left(icfg.w);
                BankIndex::build_filtered(&q, icfg, |p| dilated.contains(p))
            });
            bytes = bytes.max(index.heap_bytes() as u64);
            codes += index.distinct_codes() as u64;
        }
    });
    Ok((bytes, codes))
}
