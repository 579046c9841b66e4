//! # oris-core — the Ordered Index Seed (ORIS) pipeline
//!
//! The paper's primary contribution, restructured around its *intensive
//! comparison* premise twice over: index construction is separated from
//! query execution so one build amortizes over many comparisons, and
//! result production is **sink-driven** so peak memory tracks output
//! *rate* (one query's working set) instead of output *volume* (every
//! record a run produces).
//!
//! **Prepare once** ([`engine`]):
//!
//! * [`engine::PreparedBank`] — a bank with its low-complexity mask
//!   statistics and occurrence index, built **once** (or attached from an
//!   index file written by `oris_index::persist`, skipping the build
//!   entirely).
//! * [`engine::Session`] — one prepared subject (both strands if
//!   configured) plus the worker pool; any number of query banks run
//!   against it without the subject ever being re-indexed.
//!
//! **Stream results** ([`sink`]): steps 2–4 hand off per-record-pair
//! results as they are produced — step 3 emits each `(query, subject)`
//! record-pair group the moment it is computed, step 4 converts it and
//! pushes records into a [`sink::RecordSink`]. The sink owns retention
//! and ordering policy:
//!
//! * [`sink::CollectSink`] keeps everything (this *is* how
//!   [`OrisResult`] is built — the collected path is the streamed path);
//! * [`sink::TopKSink`] retains the best `k` per query sequence in a
//!   bounded heap (serving workloads);
//! * [`sink::StreamWriter`] emits `-m 8` lines incrementally through
//!   [`oris_eval::M8Writer`], holding at most one query's records.
//!
//! Every sink orders records with the strict total order
//! [`oris_eval::M8Record::total_order`], so streamed and collected output
//! are byte-identical regardless of thread count or batch order — even
//! under tied e-values.
//!
//! **Batch front-end**: [`engine::Session::run_batch`] runs N query banks
//! against the prepared subject, streaming each query's records out (one
//! `end_query` boundary per bank) and freeing its working set before the
//! next query starts. [`engine::BatchStats`] reports the subject's
//! one-time cost exactly once plus a per-query report each.
//!
//! * [`compare_banks`] — the single-shot wrapper (one throwaway session,
//!   one query) that keeps the original two-bank API; a `both_strands`
//!   call prepares each bank exactly once instead of rebuilding the
//!   query per strand.
//!
//! **Scale out** (the `oris-db` crate builds on these hooks): a sharded
//! subject database runs one query against many volumes, each volume an
//! [`engine::PreparedBank`] attached from disk
//! ([`engine::PreparedBank::from_index_owned`], mmap-backed via
//! `oris_index::mmap`). Per volume the search goes through
//! [`engine::Session::run_prepared_streaming`] — record pushes without
//! the query boundary — and the database session fires the sink's single
//! `end_query` after the last volume, so one boundary sort merges all
//! volumes and multi-volume output stays byte-identical to a
//! concatenated single-bank run. E-values price the subject side under
//! [`config::OrisConfig::subject_space`]: the SCORIS-N per-sequence
//! convention by default, or a database-wide residue total
//! (`oris_eval::SubjectSpace::Database`) so significance cannot depend
//! on the sharding.
//!
//! ```no_run
//! # let subject = oris_seqio::parse_fasta(">s\nACGT\n").unwrap();
//! # let queries: Vec<oris_seqio::Bank> = vec![];
//! use oris_core::{OrisConfig, Session, StreamWriter};
//!
//! let cfg = OrisConfig::default();
//! let session = Session::new(&subject, &cfg).unwrap(); // step 1, once
//!
//! // Collected: one OrisResult per query.
//! for query in &queries {
//!     let result = session.run(query); // steps 2–4 (+ query's step 1)
//!     println!("{} alignments", result.alignments.len());
//! }
//!
//! // Streamed: records leave as each query finishes; memory stays at one
//! // query's working set no matter how many queries the batch holds.
//! let mut sink = StreamWriter::new(std::io::stdout().lock());
//! let batch = session.run_batch(&queries, &mut sink).unwrap();
//! eprintln!(
//!     "{} records from {} queries, subject built {} time(s)",
//!     batch.total_records(),
//!     batch.queries(),
//!     batch.subject.builds,
//! );
//! ```
//!
//! The pipeline itself is structured exactly as the paper's Figure 1:
//!
//! 1. **Step 1 — indexing** ([`engine`]): both banks are indexed with
//!    the Figure-2 structure (`oris-index`), optionally after discarding
//!    low-complexity words (`oris-dust`).
//! 2. **Step 2 — hit extension** ([`step2`]): all `4^W` seeds are
//!    enumerated in increasing code order; each occurrence pair is
//!    extended ungapped with the ordered-seed abort rule, producing
//!    **unique HSPs** with no duplicate-suppression structure.
//! 3. **Step 3 — gapped extension** ([`step3`]): HSPs sorted by diagonal
//!    are grown into gapped alignments from their midpoints, skipping
//!    HSPs contained in an already-computed alignment.
//! 4. **Step 4 — display** ([`step4`]): e-values, sorting, BLAST `-m 8`
//!    records.
//!
//! The "perspectives" section of the paper observes that "the outer loop
//! of step 2 which considers all the possible 4^W seeds can be run in
//! parallel since seed order prevents identical HSPs to be generated".
//! [`step2::find_hsps`] implements exactly that with rayon, splitting the
//! seed-code space into contiguous equal-width ranges; [`step3`]
//! parallelizes over sequence-pair groups.
//! Both are bit-for-bit deterministic regardless of thread count (verified
//! by tests).
//!
//! [`ablation`] contains the unordered variant (hash-set duplicate
//! suppression) that the paper's design argument rules out — benchmarked
//! against the ordered rule in experiment A1.

pub mod ablation;
pub mod config;
pub mod deadline;
pub mod engine;
pub mod hsp;
pub mod pipeline;
pub mod sink;
pub mod step2;
pub mod step3;
pub mod step4;

pub use config::{FilterKind, OrisConfig};
pub use deadline::{Deadline, DeadlineExceeded};
pub use engine::{BatchStats, PrepareStats, PreparedBank, Session};
pub use hsp::Hsp;
pub use pipeline::{compare_banks, merge_strands, OrisResult, PipelineStats};
pub use sink::{CollectSink, RecordSink, StreamWriter, TopKSink};

/// The output record type (BLAST `-m 8` row), re-exported from
/// `oris-eval` so both engines share one definition.
pub type AlignmentRecord = oris_eval::M8Record;
