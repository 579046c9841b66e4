//! Whole-bank workloads (`est_vs_est`, `genome_vs_viral`).
//!
//! The untraced run is the `scoris_n` plain path in-process: read both
//! FASTA files, `Session::new` on the subject, `Session::run` on the
//! query, write `-m 8` lines. The traced run performs the same work by
//! calling each layer's public functions in turn, with a span around
//! every call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use oris_core::{step2, step3, step4, CollectSink, OrisConfig, RecordSink, Session};
use oris_dust::{EntropyMasker, Masker};
use oris_index::{BankIndex, IndexConfig};
use oris_seqio::Bank;

use crate::trace::Tracer;
use crate::util::{create_output, secs, Counts, Digest, Observed, Traced};
use crate::workload::Workload;
use crate::ALLOC;

fn read(path: &Path) -> Result<Bank, String> {
    oris_seqio::read_fasta_file(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// One untraced in-process execution.
pub struct Untraced {
    pub wall: f64,
    /// `Session::run` on the query bank.
    pub query: f64,
    /// Sequences in the query bank.
    pub queries: usize,
    /// Peak live heap bytes over the whole execution: parsing, subject
    /// set-up, the query and the writing of its records.
    pub peak_heap: usize,
    pub digest: Digest,
    pub counts: Counts,
}

pub fn untraced(w: &Workload, out: &Path) -> Result<Untraced, String> {
    let base = ALLOC.reset_peak();
    let t0 = Instant::now();
    let query = read(&w.query)?;
    let subject = read(&w.subject)?;
    let session = Session::new(&subject, &w.cfg)?;
    let tq = Instant::now();
    let r = session.run(&query);
    let query_secs = secs(tq);
    let mut o = create_output(out)?;
    for rec in &r.alignments {
        writeln!(o, "{rec}").map_err(|e| e.to_string())?;
    }
    o.flush().map_err(|e| e.to_string())?;
    let wall = secs(t0);
    let peak_heap = ALLOC.peak().saturating_sub(base);
    let mut counts = Counts::default();
    counts.add_pipeline(&r.stats);
    Ok(Untraced {
        wall,
        query: query_secs,
        queries: query.num_sequences(),
        peak_heap,
        digest: o.digest,
        counts,
    })
}

/// Set-up alone: `Session::new` on an already parsed subject.
pub fn setup(subject: &Bank, cfg: &OrisConfig) -> Result<f64, String> {
    let t = Instant::now();
    let _session = Session::new(subject, cfg)?;
    Ok(secs(t))
}

/// Step 1 for one bank, as `PreparedBank::prepare` does it: mask, then
/// index with words overlapping a masked region left out.
fn prepare(tr: &Tracer, bank: &Bank, icfg: IndexConfig, obs: &mut Observed) -> (BankIndex, f64) {
    let mask = tr.time("dust.mask", 0, || EntropyMasker::default().mask_bank(bank));
    let index = tr.time("index.build", 0, || {
        let dilated = mask.dilated_left(icfg.w);
        BankIndex::build_filtered(bank, icfg, |p| dilated.contains(p))
    });
    obs.index_bytes += index.heap_bytes() as u64;
    obs.distinct_codes += index.distinct_codes() as u64;
    (index, mask.masked_fraction())
}

/// One traced execution. Differs from the untraced one only in that the
/// two subject strands are prepared one after the other (spans nest per
/// thread), which the reported tracing overhead includes.
pub fn traced(w: &Workload, out: &Path, tr: &Tracer) -> Result<Traced, String> {
    let cfg = &w.cfg;
    if cfg.filter != oris_core::FilterKind::Entropy {
        return Err("the traced run reproduces the entropy filter only".into());
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads.unwrap_or(1))
        .build()
        .map_err(|e| format!("thread pool: {e:?}"))?;
    let mut obs = Observed::default();
    let mut counts = Counts::default();
    let digest = tr.time("run", 0, || -> Result<Digest, String> {
        let query = tr.time("seqio.parse", 0, || read(&w.query))?;
        let plus = tr.time("seqio.parse", 0, || read(&w.subject))?;
        obs.residues = (query.num_residues() + plus.num_residues()) as u64;
        pool.install(|| {
            let scfg = cfg.subject_index_config();
            let (plus_idx, _) = prepare(tr, &plus, scfg, &mut obs);
            let minus = cfg
                .both_strands
                .then(|| tr.time("seqio.parse", 0, || plus.reverse_complement()));
            let minus_idx = minus.as_ref().map(|m| prepare(tr, m, scfg, &mut obs).0);
            let (qidx, qmasked) = prepare(tr, &query, cfg.query_index_config(), &mut obs);
            obs.query_masked_fraction = qmasked;

            let mut sink = CollectSink::new();
            let strands = [
                Some((&plus, &plus_idx, false)),
                minus
                    .as_ref()
                    .zip(minus_idx.as_ref())
                    .map(|(b, i)| (b, i, true)),
            ];
            for (subject, sidx, flip) in strands.into_iter().flatten() {
                let (hsps, s2) = tr.time("core.step2", 0, || {
                    step2::find_hsps(&query, &qidx, subject, sidx, cfg)
                });
                counts.step2_pairs += s2.pairs_examined;
                counts.step2_aborted += s2.aborted;
                counts.step2_below += s2.below_threshold;
                counts.step2_kept += s2.kept;
                let mut s4 = oris_core::step4::Step4Stats::default();
                let mut raw = 0u64;
                let mut emit = |alns: Vec<step3::GappedAlignment>| {
                    tr.time("core.step4", 0, || {
                        raw += alns.len() as u64;
                        step4::emit_records(
                            &query,
                            subject,
                            &alns,
                            cfg,
                            query.num_residues(),
                            flip,
                            &mut s4,
                            &mut |rec| sink.accept(rec),
                        );
                    })
                };
                let s3 = tr.time("core.step3", 0, || {
                    step3::gapped_alignments_into(&query, subject, &hsps, cfg, &mut emit)
                });
                counts.step3_extended += s3.extended;
                counts.step3_skipped_contained += s3.skipped_contained;
                counts.step3_alignments += raw;
                counts.step4_emitted += s4.emitted;
                counts.step4_dropped_by_evalue += s4.dropped_by_evalue;
            }
            // The query boundary: the sink's strict total-order sort.
            tr.time("core.step4", 0, || sink.end_query())
                .map_err(|e| e.to_string())?;
            tr.time("eval.m8_write", 0, || -> Result<Digest, String> {
                let mut o = create_output(out)?;
                for rec in sink.records() {
                    writeln!(o, "{rec}").map_err(|e| e.to_string())?;
                }
                o.flush().map_err(|e| e.to_string())?;
                Ok(o.digest)
            })
        })
    })?;
    obs.m8_bytes = digest.bytes;
    Ok(Traced {
        digest,
        counts,
        observed: obs,
    })
}
