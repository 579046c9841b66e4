//! The full 4-step ORIS pipeline (paper Figure 1), expressed over
//! prepared banks: step 1 lives in [`crate::engine`] (build-once), this
//! module runs steps 2–4 against the prepared artifacts and merges
//! strands. [`compare_banks`] is the single-shot wrapper that glues the
//! two together.
//!
//! Since the streaming refactor, steps 2–4 are **sink-driven**: the
//! per-strand runner (`run_prepared_pipeline_into`) pushes records into a
//! caller-supplied callback as step 3 finishes each `(query, subject)`
//! record-pair group, instead of returning a whole `Vec`. Whole-result
//! materialization is a *sink policy* (`CollectSink`) now, not a pipeline
//! property.

use oris_eval::M8Record;
use oris_obs::{Field, Obs, Stopwatch};
use oris_seqio::Bank;

use crate::config::OrisConfig;
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::engine::{PreparedBank, Session};
use crate::hsp::Hsp;
use crate::step2::{self, Step2Stats};
use crate::step3::{self, GappedAlignment, Step3Stats};
use crate::step4::{self, Step4Stats};

/// Timing and counter report for one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Seconds spent in step 1 (masking + indexing) *for this result*.
    /// A session run counts only its query's build here; the subject's
    /// one-time cost is reported by `Session::subject_stats` (and folded
    /// back in by the single-shot [`compare_banks`] wrapper).
    pub index_secs: f64,
    /// Number of mask+index builds attributed to this result. A
    /// `both_strands` [`compare_banks`] performs 3 (query once, subject
    /// twice — one per strand); a session run performs 1 (its query);
    /// `Session::run_prepared` performs 0.
    pub index_builds: u32,
    /// Seconds spent in step 2 (hit extension).
    pub step2_secs: f64,
    /// Seconds spent in step 3 (gapped extension).
    pub step3_secs: f64,
    /// Seconds spent in step 4 (records).
    pub step4_secs: f64,
    /// HSPs surviving step 2.
    pub hsps: usize,
    /// Gapped alignments out of step 3 (pre e-value filter).
    pub raw_alignments: usize,
    /// Step-2 counters.
    pub step2: Step2Stats,
    /// Step-3 counters.
    pub step3: Step3Stats,
    /// Step-4 counters.
    pub step4: Step4Stats,
    /// Fraction of bank-1 positions masked by the filter.
    pub masked_fraction1: f64,
    /// Fraction of bank-2 positions masked by the filter.
    pub masked_fraction2: f64,
    /// Index footprint (both banks), bytes — the paper's ≈5·N model.
    pub index_bytes: usize,
}

impl PipelineStats {
    /// Total wall-clock seconds.
    pub fn total_secs(&self) -> f64 {
        self.index_secs + self.step2_secs + self.step3_secs + self.step4_secs
    }

    /// Merges another run's report into this one: seconds and counters
    /// sum; the footprint fields (masked fractions, index bytes) describe
    /// concurrent-resident state, so the merge takes the worse (max) of
    /// the two runs. Used by the strand merge (plus + minus runs of one
    /// query) and by batch totals (per-query reports of one subject).
    pub fn merge(mut self, s: &PipelineStats) -> PipelineStats {
        self.index_secs += s.index_secs;
        self.index_builds += s.index_builds;
        self.step2_secs += s.step2_secs;
        self.step3_secs += s.step3_secs;
        self.step4_secs += s.step4_secs;
        self.hsps += s.hsps;
        self.raw_alignments += s.raw_alignments;
        self.step2 = self.step2.merge(s.step2);
        self.step3 = self.step3.merge(s.step3);
        self.step4 = self.step4.merge(s.step4);
        self.masked_fraction1 = self.masked_fraction1.max(s.masked_fraction1);
        self.masked_fraction2 = self.masked_fraction2.max(s.masked_fraction2);
        self.index_bytes = self.index_bytes.max(s.index_bytes);
        self
    }
}

/// Result of comparing two banks.
#[derive(Debug, Clone, PartialEq)]
pub struct OrisResult {
    /// Final `-m 8` records, sorted by e-value.
    pub alignments: Vec<M8Record>,
    /// Timing/counter report.
    pub stats: PipelineStats,
}

/// Which subject strand a pipeline run searches. `Minus` means `bank2`
/// is the reverse complement of the original subject bank and step 4 maps
/// subject coordinates back to the original records (`sstart > send`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubjectStrand {
    Plus,
    Minus,
}

/// Report of one fused steps-3+4 streaming stage ([`gapped_stage_into`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GappedStageReport {
    /// Step-3 counters.
    pub step3: Step3Stats,
    /// Step-4 counters.
    pub step4: Step4Stats,
    /// Gapped alignments produced (pre e-value filter).
    pub raw_alignments: usize,
    /// Seconds in step 3 (gapped extension), step 4's share subtracted.
    pub step3_secs: f64,
    /// Seconds in step 4 (record conversion), metered inside the fusion.
    pub step4_secs: f64,
}

/// Fused steps 3+4 over step-2 HSPs: each record-pair group's alignments
/// go straight through step 4 into `push` the moment step 3 finishes the
/// group, and are freed — the whole-run alignment vector of the
/// collect-then-merge pipeline never exists. Step 4 runs inside step 3's
/// emission, so its seconds are metered separately and subtracted from
/// the fused region's wall clock.
///
/// Shared by the ORIS per-strand runner and the BLAST baseline's gapped
/// stage (the engines differ in hit *detection* only — keeping the
/// result path literally the same code is what keeps the baseline
/// comparable). `query_residues` is the e-value search-space size on the
/// query side (the full bank for a batched baseline run); with
/// `flip_subject`, subject coordinates are mapped back to the original
/// records' plus-strand numbering *here*, where each alignment still
/// resolves to a record index — a name-keyed mapping after the fact
/// would corrupt coordinates whenever bank 2 carries duplicate record
/// names.
pub fn gapped_stage_into(
    bank1: &Bank,
    bank2: &Bank,
    hsps: &[Hsp],
    cfg: &OrisConfig,
    query_residues: usize,
    flip_subject: bool,
    push: &mut dyn FnMut(M8Record),
) -> GappedStageReport {
    let t0 = Stopwatch::start();
    let mut report = GappedStageReport::default();
    let mut emit = |alns: Vec<GappedAlignment>| {
        let t4 = Stopwatch::start();
        report.raw_alignments += alns.len();
        step4::emit_records(
            bank1,
            bank2,
            &alns,
            cfg,
            query_residues,
            flip_subject,
            &mut report.step4,
            push,
        );
        report.step4_secs += t4.elapsed_secs();
    };
    report.step3 = step3::gapped_alignments_into(bank1, bank2, hsps, cfg, &mut emit);
    report.step3_secs = (t0.elapsed_secs() - report.step4_secs).max(0.0);
    report
}

/// Steps 2–4 against prepared banks, streaming records into `push` as
/// step 3 finishes each record-pair group (unsorted — ordering is the
/// sink's job at the query boundary). Step 1 does not run here: the
/// report's step-1 fields describe the prepared artifacts (masked
/// fractions, resident index bytes) with zero build time and zero builds.
///
/// `deadline` is the cooperative cancellation token, consulted at step-2
/// partition boundaries (and within hot partitions — see
/// [`step2::find_hsps_deadline`]); an expiry aborts the strand before
/// the gapped stage pushes anything further. Disarmed
/// ([`Deadline::none`]) it costs one dead branch and the run is
/// infallible.
///
/// `obs` emits `step2`/`step3` spans and a `step4` point event (steps
/// 3+4 are fused — step 4 runs inside step 3's group callback, so its
/// time is a derived quantity, not a span of its own). Disarmed, each
/// emission is one branch.
pub(crate) fn run_prepared_pipeline_into(
    query: &PreparedBank<'_>,
    subject: &PreparedBank<'_>,
    cfg: &OrisConfig,
    strand: SubjectStrand,
    push: &mut dyn FnMut(M8Record),
    deadline: &Deadline,
    obs: &Obs,
) -> Result<PipelineStats, DeadlineExceeded> {
    let mut stats = PipelineStats::default();
    let (bank1, idx1) = (query.bank(), query.index());
    let (bank2, idx2) = (subject.bank(), subject.index());
    stats.masked_fraction1 = query.stats().masked_fraction;
    stats.masked_fraction2 = subject.stats().masked_fraction;
    stats.index_bytes = idx1.heap_bytes() + idx2.heap_bytes();

    // ---- Step 2: ordered hit extension ----------------------------------
    let t0 = Stopwatch::start();
    let step2_span = obs.span("step2");
    let (hsps, s2) = step2::find_hsps_deadline(
        bank1,
        idx1,
        bank2,
        idx2,
        cfg,
        step2::select_guard(idx1, idx2),
        deadline,
    )?;
    drop(step2_span);
    stats.hsps = hsps.len();
    stats.step2 = s2;
    stats.step2_secs = t0.elapsed_secs();

    // ---- Steps 3+4, fused per group --------------------------------------
    let step3_span = obs.span("step3");
    let r = gapped_stage_into(
        bank1,
        bank2,
        &hsps,
        cfg,
        bank1.num_residues(),
        matches!(strand, SubjectStrand::Minus),
        push,
    );
    drop(step3_span);
    obs.point(
        "step4",
        &[
            Field::F64("secs", r.step4_secs),
            Field::U64("records", r.step4.emitted),
        ],
    );
    stats.raw_alignments = r.raw_alignments;
    stats.step3 = r.step3;
    stats.step4 = r.step4;
    stats.step3_secs = r.step3_secs;
    stats.step4_secs = r.step4_secs;
    Ok(stats)
}

/// Merges plus- and minus-strand runs into one sorted result, under the
/// strict total order [`M8Record::total_order`] (e-value, then score
/// descending, then ids and coordinates), so the merged order is unique
/// even with tied e-values — and NaN e-values (degenerate Karlin–Altschul
/// parameters) sort deterministically last instead of panicking the
/// comparator. Minus-strand records already carry original subject
/// coordinates (`sstart > send`) — see `SubjectStrand::Minus`.
///
/// The streaming engine merges strands implicitly (one sink sort over
/// both strand streams at the query boundary — the same total order, so
/// the same bytes); this function is the collected-results form of that
/// merge for callers holding two [`OrisResult`]s.
pub fn merge_strands(plus: OrisResult, mut minus: OrisResult) -> OrisResult {
    let mut alignments = plus.alignments;
    alignments.append(&mut minus.alignments);
    alignments.sort_by(|x, y| x.total_order(y));
    OrisResult {
        alignments,
        stats: plus.stats.merge(&minus.stats),
    }
}

/// Compares two banks with the ORIS algorithm.
///
/// This is the library's single-shot entry point — the equivalent of
/// running the SCORIS-N prototype on two FASTA banks — implemented as a
/// thin wrapper over a one-query [`Session`]: bank 2 is prepared once
/// (both strands when `cfg.both_strands`, so a dual-strand run no longer
/// rebuilds bank 1's mask+index a second time), bank 1 once, and the
/// subject's preparation cost is folded back into the returned stats so
/// the report covers the whole call. For *many* queries against one
/// subject, hold a [`Session`] instead and pay the subject build once.
///
/// `cfg.threads` selects the worker count (a dedicated rayon pool);
/// `None` uses the global pool. With `cfg.both_strands` the complementary
/// strand of bank 2 is searched too (minus-strand records carry
/// `sstart > send`, BLAST style).
///
/// # Panics
/// Panics if the configuration fails [`OrisConfig::validate`].
pub fn compare_banks(bank1: &Bank, bank2: &Bank, cfg: &OrisConfig) -> OrisResult {
    if let Err(e) = cfg.validate() {
        panic!("invalid ORIS configuration: {e}");
    }
    // Subject strands and query are prepared concurrently (the step-1
    // parallelism the per-call pipeline had), so index_secs sums per-bank
    // build seconds that may overlap in wall-clock.
    let (session, query) = Session::new_with_query(bank2, bank1, cfg)
        .unwrap_or_else(|e| panic!("failed to start comparison session: {e}"));
    let mut r = session.run_prepared(&query);
    let subject = session.subject_stats();
    r.stats.index_secs += query.stats().build_secs + subject.build_secs;
    r.stats.index_builds += query.stats().builds + subject.builds;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterKind;
    use oris_seqio::BankBuilder;

    fn bank(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    #[test]
    fn end_to_end_finds_planted_homology() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCT";
        let b1 = bank(&[&format!("TTACCGGTTAACC{core}GGTTACGCAT")]);
        let b2 = bank(&[&format!("CCGGAACCTT{core}TTGGCCAACGGT")]);
        let r = compare_banks(&b1, &b2, &OrisConfig::small(8));
        assert_eq!(r.alignments.len(), 1, "{:?}", r.alignments);
        let a = &r.alignments[0];
        assert!(a.length >= core.len());
        assert!(a.pident > 90.0);
    }

    #[test]
    fn no_homology_no_output() {
        let b1 = bank(&["ATATATATGCGCGCGCATATATATGCGCGCGC"]);
        let b2 = bank(&["GGTTCCAAGGTTCCAAGGTTCCAAGGTTCCAA"]);
        let r = compare_banks(&b1, &b2, &OrisConfig::small(8));
        assert!(r.alignments.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT";
        let b1 = bank(&[core]);
        let b2 = bank(&[core]);
        let r = compare_banks(&b1, &b2, &OrisConfig::small(6));
        assert!(r.stats.hsps > 0);
        assert!(r.stats.raw_alignments > 0);
        assert!(r.stats.index_bytes > 0);
        assert!(r.stats.total_secs() > 0.0);
        assert_eq!(r.stats.step4.emitted as usize, r.alignments.len());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let core1 = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT";
        let core2 = "GGCCATTAGGCCATTAACGGTTAACCGGATCCAT";
        let b1 = bank(&[core1, core2, &format!("{core1}TT{core2}")]);
        let b2 = bank(&[core2, core1]);
        let mut cfg = OrisConfig::small(7);
        cfg.threads = Some(1);
        let r1 = compare_banks(&b1, &b2, &cfg);
        cfg.threads = Some(4);
        let r4 = compare_banks(&b1, &b2, &cfg);
        assert_eq!(r1.alignments, r4.alignments);
    }

    #[test]
    fn filter_suppresses_low_complexity_matches() {
        // Two banks sharing only a poly-A run: with the entropy filter the
        // match disappears; without it, it is reported.
        let polya = "A".repeat(120);
        let b1 = bank(&[&format!("ATGGCGTACGTTAGCC{polya}")]);
        let b2 = bank(&[&format!("GGCCATTAGGCCTTAA{polya}")]);
        let mut cfg = OrisConfig::small(8);
        cfg.filter = FilterKind::None;
        let unfiltered = compare_banks(&b1, &b2, &cfg);
        assert!(!unfiltered.alignments.is_empty());
        cfg.filter = FilterKind::Entropy;
        let filtered = compare_banks(&b1, &b2, &cfg);
        assert!(filtered.alignments.len() < unfiltered.alignments.len());
        assert!(filtered.stats.masked_fraction1 > 0.0);
    }

    #[test]
    fn asymmetric_mode_still_finds_homology() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTAAGCT";
        let b1 = bank(&[&format!("TTACCGGTTAACC{core}GGTTACGCAT")]);
        let b2 = bank(&[&format!("CCGGAACCTT{core}TTGGCCAACGGT")]);
        let mut cfg = OrisConfig::small(8);
        cfg.asymmetric = true;
        let r = compare_banks(&b1, &b2, &cfg);
        assert!(!r.alignments.is_empty());
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let b = bank(&["ACGT"]);
        let mut cfg = OrisConfig::small(6);
        cfg.xdrop_ungapped = -1;
        let _ = compare_banks(&b, &b, &cfg);
    }

    #[test]
    fn empty_banks_are_handled() {
        let empty = Bank::empty();
        let b = bank(&["ACGTACGTACGTACGT"]);
        let r = compare_banks(&empty, &b, &OrisConfig::small(6));
        assert!(r.alignments.is_empty());
        let r = compare_banks(&b, &empty, &OrisConfig::small(6));
        assert!(r.alignments.is_empty());
    }
}

#[cfg(test)]
mod strand_tests {
    use super::*;
    use crate::config::FilterKind;
    use oris_seqio::BankBuilder;

    fn bank(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    fn revcomp(s: &str) -> String {
        s.chars()
            .rev()
            .map(|c| match c {
                'A' => 'T',
                'T' => 'A',
                'C' => 'G',
                'G' => 'C',
                other => other,
            })
            .collect()
    }

    #[test]
    fn minus_strand_homology_needs_both_strands() {
        // A/C-only core: its reverse complement is G/T-only, so no plus-
        // strand seed can exist between the banks (and no accidental
        // reverse-complement palindrome inside the core, unlike mixed
        // sequence).
        let core = "ACCACAACCCACAACACCAACCCAACACACCACAACCAAC";
        let b1 = bank(&[&format!("TTACC{core}GGTTA")]);
        // subject carries only the reverse complement of the core
        let b2 = bank(&[&format!("CCGGA{}TTGGC", revcomp(core))]);
        let mut cfg = OrisConfig::small(8);
        let single = compare_banks(&b1, &b2, &cfg);
        assert!(single.alignments.is_empty(), "{:?}", single.alignments);
        cfg.both_strands = true;
        let both = compare_banks(&b1, &b2, &cfg);
        assert_eq!(both.alignments.len(), 1, "{:?}", both.alignments);
        let a = &both.alignments[0];
        assert!(a.sstart > a.send, "minus strand must report sstart > send");
        assert!(a.length >= core.len());
    }

    #[test]
    fn minus_strand_coordinates_map_back() {
        // The reported subject range, read on the minus strand, must
        // reverse-complement to the query range.
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCG";
        let b1 = bank(&[core]);
        let b2 = bank(&[&format!("GGTTCCAA{}AACCGGTT", revcomp(core))]);
        let mut cfg = OrisConfig::small(8);
        cfg.both_strands = true;
        let r = compare_banks(&b1, &b2, &cfg);
        assert_eq!(r.alignments.len(), 1);
        let a = &r.alignments[0];
        // subject slice on the plus strand is [send, sstart] (1-based)
        let subj = b2.sequence_string(0);
        let plus_slice = &subj[a.send - 1..a.sstart];
        let q = b1.sequence_string(0);
        let q_slice = &q[a.qstart - 1..a.qend];
        assert_eq!(revcomp(plus_slice), q_slice);
    }

    #[test]
    fn plus_strand_hits_unchanged_by_both_strands() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGG";
        let b1 = bank(&[core]);
        let b2 = bank(&[&format!("TT{core}AA")]);
        let mut cfg = OrisConfig::small(8);
        let single = compare_banks(&b1, &b2, &cfg);
        cfg.both_strands = true;
        let both = compare_banks(&b1, &b2, &cfg);
        // the plus-strand alignment is present in both runs
        assert!(!single.alignments.is_empty());
        for a in &single.alignments {
            assert!(
                both.alignments.iter().any(|b| b == a),
                "plus-strand record lost: {a}"
            );
        }
    }

    #[test]
    fn merged_stats_account_for_both_strand_runs() {
        // Homology on both strands: the merged report must include the
        // minus-strand run's step counters (they were silently dropped
        // before), and the footprint fields must survive the merge.
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCG";
        let b1 = bank(&[core]);
        let b2 = bank(&[&format!("TT{core}AA{}GG", revcomp(core))]);
        let mut cfg = OrisConfig::small(8);

        let single = compare_banks(&b1, &b2, &cfg);
        cfg.both_strands = true;
        let both = compare_banks(&b1, &b2, &cfg);

        // The minus-strand run sees the reverse-complemented core too, so
        // every step-2/3/4 counter at least doubles relative to one run.
        assert!(both.stats.step2.pairs_examined >= 2 * single.stats.step2.pairs_examined);
        assert!(both.stats.step2.kept >= 2 * single.stats.step2.kept);
        assert!(both.stats.step3.extended >= 2 * single.stats.step3.extended);
        assert!(both.stats.step4.emitted >= 2 * single.stats.step4.emitted);
        assert_eq!(
            both.stats.step4.emitted as usize,
            both.alignments.len(),
            "emitted must match the merged record count"
        );
        // Counter-accounting invariant holds after the merge.
        assert_eq!(
            both.stats.step2.pairs_examined,
            both.stats.step2.aborted + both.stats.step2.below_threshold + both.stats.step2.kept
        );
        // Footprint fields: max across runs, not zero and not doubled.
        assert_eq!(both.stats.index_bytes, single.stats.index_bytes);
        assert!(both.stats.index_bytes > 0);
    }

    #[test]
    fn merged_stats_keep_masked_fractions() {
        // A poly-A run is low-complexity on both strands (poly-T on the
        // reverse complement); the merged masked fractions must be > 0,
        // not the minus-run-dropped 0.0 of the old merge.
        let polya = "A".repeat(120);
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCG";
        let b1 = bank(&[&format!("{core}{polya}")]);
        let b2 = bank(&[&format!("{polya}{core}")]);
        let mut cfg = OrisConfig::small(8);
        cfg.filter = FilterKind::Entropy;
        cfg.both_strands = true;
        let r = compare_banks(&b1, &b2, &cfg);
        assert!(r.stats.masked_fraction1 > 0.0);
        assert!(r.stats.masked_fraction2 > 0.0);
    }

    #[test]
    fn duplicate_subject_names_flip_with_the_right_length() {
        // Two subject records share the name "dup" but have different
        // lengths; the minus-strand homology sits in the FIRST one. The
        // old name-keyed length map silently took the last length,
        // corrupting the flipped coordinates. Resolving by record index
        // must produce coordinates that reverse-complement back to the
        // query.
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCG";
        let b1 = bank(&[core]);
        let mut bb = BankBuilder::new();
        bb.push_str("dup", &format!("GGTTCCAA{}AACCGGTT", revcomp(core)))
            .unwrap();
        // Same name, much longer record, no homology.
        bb.push_str("dup", &"GATTACAA".repeat(40)).unwrap();
        let b2 = bb.finish();
        let mut cfg = OrisConfig::small(8);
        cfg.both_strands = true;
        let r = compare_banks(&b1, &b2, &cfg);
        assert_eq!(r.alignments.len(), 1, "{:?}", r.alignments);
        let a = &r.alignments[0];
        assert!(a.sstart > a.send, "minus strand flips to sstart > send");
        // The subject slice read on the plus strand of record 0 must
        // reverse-complement to the query slice — only true if the flip
        // used record 0's length, not its namesake's.
        let subj = b2.sequence_string(0);
        let plus_slice = &subj[a.send - 1..a.sstart];
        let q = b1.sequence_string(0);
        let q_slice = &q[a.qstart - 1..a.qend];
        assert_eq!(revcomp(plus_slice), q_slice);
    }

    #[test]
    fn both_strands_builds_query_index_exactly_once() {
        // The prepared-bank engine's accounting: a single-strand compare
        // builds two indexes (query + subject); a both-strands compare
        // builds three (query ONCE, subject once per strand) — not the
        // four the per-strand pipeline used to pay.
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCG";
        let b1 = bank(&[core]);
        let b2 = bank(&[&format!("TT{core}AA{}GG", revcomp(core))]);
        let mut cfg = OrisConfig::small(8);
        let single = compare_banks(&b1, &b2, &cfg);
        assert_eq!(single.stats.index_builds, 2);
        cfg.both_strands = true;
        let both = compare_banks(&b1, &b2, &cfg);
        assert_eq!(both.stats.index_builds, 3);
    }

    #[test]
    fn merge_survives_nan_evalues() {
        // partial_cmp().unwrap() panicked when an e-value was NaN (e.g.
        // degenerate Karlin–Altschul parameters); total_cmp must sort
        // deterministically instead.
        use oris_eval::M8Record;
        let rec = |sid: &str, evalue: f64| M8Record {
            qid: "q".into(),
            sid: sid.into(),
            pident: 100.0,
            length: 10,
            mismatch: 0,
            gapopen: 0,
            qstart: 1,
            qend: 10,
            sstart: 1,
            send: 10,
            evalue,
            bitscore: 20.0,
        };
        let plus = OrisResult {
            alignments: vec![rec("a", f64::NAN), rec("b", 1e-5)],
            stats: PipelineStats::default(),
        };
        let minus = OrisResult {
            alignments: vec![rec("c", 1e-9), rec("d", f64::NAN)],
            stats: PipelineStats::default(),
        };
        let merged = super::merge_strands(plus, minus);
        assert_eq!(merged.alignments.len(), 4);
        // Finite e-values sort ahead of NaN (total_cmp places NaN last),
        // and the call above not panicking is the regression being pinned.
        assert_eq!(merged.alignments[0].sid, "c");
        assert_eq!(merged.alignments[1].sid, "b");
        assert!(merged.alignments[2].evalue.is_nan());
        assert!(merged.alignments[3].evalue.is_nan());
    }

    #[test]
    fn palindromic_subject_reports_both_strands() {
        // A reverse-complement palindrome aligns on both strands.
        let half = "ATGGCGTACGTTAGCC";
        let palindrome = format!("{half}{}", {
            let rc: String = half
                .chars()
                .rev()
                .map(|c| match c {
                    'A' => 'T',
                    'T' => 'A',
                    'C' => 'G',
                    'G' => 'C',
                    o => o,
                })
                .collect();
            rc
        });
        let b1 = bank(&[&palindrome]);
        let b2 = bank(&[&palindrome]);
        let mut cfg = OrisConfig::small(8);
        cfg.both_strands = true;
        let r = compare_banks(&b1, &b2, &cfg);
        let plus = r.alignments.iter().filter(|a| a.sstart <= a.send).count();
        let minus = r.alignments.iter().filter(|a| a.sstart > a.send).count();
        assert!(plus >= 1, "{:?}", r.alignments);
        assert!(minus >= 1, "{:?}", r.alignments);
    }
}
