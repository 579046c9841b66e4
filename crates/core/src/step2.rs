//! Step 2 — ordered seed enumeration and unique HSP generation.
//!
//! The heart of ORIS (paper section 2.2). For every seed code `s` in
//! `0 .. 4^W`, in increasing order, every occurrence pair
//! `(s1 ∈ index1, s2 ∈ index2)` is extended ungapped under the
//! ordered-seed abort rule (`oris-align::ungapped`). The code-order
//! enumeration has two effects the paper leans on:
//!
//! * **uniqueness** — an HSP is emitted only by the leftmost occurrence of
//!   its smallest contained seed, so no duplicate-suppression structure is
//!   needed;
//! * **locality** — all sequence portions sharing a seed are processed
//!   together ("implicitly and simultaneously moved into the cache
//!   memory"), giving the nested loops near-perfect cache reuse. With the
//!   CSR index the X1/X2 occurrence lists are contiguous sorted slices, so
//!   the inner loops stream through memory with no pointer chasing at all.
//!
//! **Guard selection.** The ordered-seed abort rule needs to know whether
//! a candidate seed is actually enumerated. [`find_hsps`] picks the
//! cheapest correct answer from the indexes' build-time exclusion
//! provenance ([`select_guard`]): both banks fully indexed → the
//! probe-free `OrderedFull` fast path; any masking or stride exclusion →
//! `OrderedIndexed`, which probes both indexes' bit-sets per candidate.
//!
//! Because uniqueness is a property of the *rule*, not of the visit
//! order, the outer loop parallelizes embarrassingly (paper section 4).
//! [`find_hsps`] splits the code space into contiguous equal-width ranges
//! processed by rayon and concatenates results in range order, so output
//! is identical for any thread count. Debug builds assert the paper's
//! claim on every ordered run: the concatenated, diagonal-sorted output
//! holds no duplicate HSP.
//!
//! The enumeration drives from the *populated* rows of whichever index
//! holds fewer distinct codes ([`oris_index::BankIndex::populated_in`])
//! rather than sweeping `0..4^W`: a code absent from either index
//! contributes no pairs, so skipping it changes nothing in the output —
//! and at W = 11 the sweep would visit 4 M codes to find a few thousand
//! populated ones.

use oris_align::{extend_hit, ExtensionOutcome, OrderGuard, UngappedParams};
use oris_index::BankIndex;
use oris_seqio::Bank;
use rayon::prelude::*;

use crate::config::OrisConfig;
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::hsp::Hsp;

/// With an armed [`Deadline`], the extension loop consults the clock
/// after at most this many additional occurrence pairs — frequent enough
/// that even a single hot seed code responds within a sliver of the
/// range's work, rare enough that the clock read vanishes against the
/// extensions it paces.
const DEADLINE_CHECK_PAIRS: u64 = 4096;

/// Counters reported by step 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step2Stats {
    /// Occurrence pairs examined (hit extensions attempted).
    pub pairs_examined: u64,
    /// Extensions aborted by the ordered-seed rule.
    pub aborted: u64,
    /// HSPs below the score threshold.
    pub below_threshold: u64,
    /// HSPs kept.
    pub kept: u64,
}

impl Step2Stats {
    /// Sums the counters of two reports (used by range concatenation and
    /// by the pipeline's strand merge).
    pub fn merge(mut self, o: Step2Stats) -> Step2Stats {
        self.pairs_examined += o.pairs_examined;
        self.aborted += o.aborted;
        self.below_threshold += o.below_threshold;
        self.kept += o.kept;
        self
    }
}

/// Splits `0..num_codes` into at most `chunks` contiguous ranges of equal
/// code width, covering the whole code space in order.
fn partition_codes(num_codes: u32, chunks: u32) -> Vec<std::ops::Range<u32>> {
    let chunk = num_codes.div_ceil(chunks.max(1)).max(1);
    (0..num_codes)
        .step_by(chunk as usize)
        .map(|lo| lo..(lo + chunk).min(num_codes))
        .collect()
}

/// Processes one contiguous range of seed codes sequentially.
///
/// With an armed `deadline` the pair loop re-checks the token every
/// [`DEADLINE_CHECK_PAIRS`] examined pairs (and at the range entry) and
/// returns [`DeadlineExceeded`] instead of its partial output; with the
/// disarmed default the checks are a dead branch and the function cannot
/// fail.
fn process_code_range(
    bank1: &Bank,
    idx1: &BankIndex,
    bank2: &Bank,
    idx2: &BankIndex,
    params: &UngappedParams,
    min_score: i32,
    codes: std::ops::Range<u32>,
    guard: OrderGuard<'_>,
    deadline: &Deadline,
) -> Result<(Vec<Hsp>, Step2Stats), DeadlineExceeded> {
    let d1 = bank1.data();
    let d2 = bank2.data();
    let coder = idx1.coder();
    let w = params.w as u32;
    let mut out = Vec::new();
    let mut stats = Step2Stats::default();
    let armed = deadline.is_armed();
    if armed {
        deadline.check()?;
    }
    let mut next_check = DEADLINE_CHECK_PAIRS;

    // Walk only the populated rows of the smaller-vocabulary index and
    // probe the partner per code. The visited (code, X1, X2) triples —
    // ascending codes, both rows non-empty — are exactly those of a
    // `for code in codes` sweep, so the output is byte-identical; the
    // iteration cost no longer scales with the range width (4^W/chunks).
    let (drive_is_1, drive, other) = if idx1.distinct_codes() <= idx2.distinct_codes() {
        (true, idx1, idx2)
    } else {
        (false, idx2, idx1)
    };
    for (code, drow) in drive.populated_in(codes) {
        let orow = other.occurrences(code);
        if orow.is_empty() {
            continue;
        }
        // X1 × X2 hit extensions for this seed (paper notation): both
        // occurrence lists are contiguous sorted slices in the CSR index.
        let (x1, x2) = if drive_is_1 {
            (drow, orow)
        } else {
            (orow, drow)
        };
        for &a in x1 {
            if armed && stats.pairs_examined >= next_check {
                deadline.check()?;
                next_check = stats.pairs_examined + DEADLINE_CHECK_PAIRS;
            }
            for &b in x2 {
                stats.pairs_examined += 1;
                match extend_hit(d1, d2, a as usize, b as usize, code, coder, params, guard) {
                    ExtensionOutcome::Aborted => stats.aborted += 1,
                    ExtensionOutcome::Hsp { score, left, right } => {
                        if score >= min_score {
                            stats.kept += 1;
                            out.push(Hsp {
                                start1: a - left as u32,
                                start2: b - left as u32,
                                len: left as u32 + w + right as u32,
                                score,
                            });
                        } else {
                            stats.below_threshold += 1;
                        }
                    }
                }
            }
        }
    }
    Ok((out, stats))
}

/// Picks the cheapest correct order guard for a pair of indexes, from
/// their build-time exclusion provenance.
///
/// The indexed guard is required whenever positions may be excluded from
/// an index (low-complexity masking, asymmetric stride): the rule must
/// not defer to a seed the enumeration will never visit. But when **both**
/// banks are fully indexed ([`BankIndex::is_fully_indexed`]), every
/// "would the enumeration visit this candidate?" probe answers yes — the
/// candidate's run of `W` matches already proves a valid window — so the
/// probe-free [`OrderGuard::OrderedFull`] is behaviourally identical and
/// strictly cheaper. The guard-equivalence proptest below pins the
/// identity.
pub fn select_guard<'a>(idx1: &'a BankIndex, idx2: &'a BankIndex) -> OrderGuard<'a> {
    if idx1.is_fully_indexed() && idx2.is_fully_indexed() {
        OrderGuard::OrderedFull
    } else {
        OrderGuard::OrderedIndexed { idx1, idx2 }
    }
}

/// Enumerates all seeds in code order and returns the unique HSPs,
/// sorted by diagonal (the step-3 input order). The order guard is
/// auto-selected from the indexes' exclusion provenance ([`select_guard`]).
pub fn find_hsps(
    bank1: &Bank,
    idx1: &BankIndex,
    bank2: &Bank,
    idx2: &BankIndex,
    cfg: &OrisConfig,
) -> (Vec<Hsp>, Step2Stats) {
    find_hsps_with_guard(bank1, idx1, bank2, idx2, cfg, select_guard(idx1, idx2))
}

/// Same enumeration with an explicit guard (the ablation uses
/// [`OrderGuard::None`]).
pub fn find_hsps_with_guard(
    bank1: &Bank,
    idx1: &BankIndex,
    bank2: &Bank,
    idx2: &BankIndex,
    cfg: &OrisConfig,
    guard: OrderGuard<'_>,
) -> (Vec<Hsp>, Step2Stats) {
    find_hsps_deadline(bank1, idx1, bank2, idx2, cfg, guard, &Deadline::none())
        .expect("a disarmed deadline cannot expire")
}

/// [`find_hsps_with_guard`] under a cooperative [`Deadline`]: the token
/// is consulted at every partition boundary and every
/// `DEADLINE_CHECK_PAIRS` extension pairs within a partition, and an
/// expiry surfaces as a clean [`DeadlineExceeded`] with no partial
/// output. The deadline never changes *what* is computed — a run that
/// completes returns exactly the [`find_hsps_with_guard`] result (the
/// chunk count never affects output; ranges concatenate in code order) —
/// so the no-deadline path and a generously-budgeted run are
/// byte-identical.
pub fn find_hsps_deadline(
    bank1: &Bank,
    idx1: &BankIndex,
    bank2: &Bank,
    idx2: &BankIndex,
    cfg: &OrisConfig,
    guard: OrderGuard<'_>,
    deadline: &Deadline,
) -> Result<(Vec<Hsp>, Step2Stats), DeadlineExceeded> {
    assert_eq!(
        idx1.w(),
        idx2.w(),
        "both indexes must use the same word length"
    );
    let params = UngappedParams {
        w: idx1.w(),
        xdrop: cfg.xdrop_ungapped,
        scheme: cfg.scheme,
        max_span: usize::MAX / 4,
    };

    // Enough chunks to keep workers busy even when a few ranges run long;
    // results are concatenated in range order, so the chunk count (and
    // hence the thread count) never changes the output. A single worker
    // gets one range. An armed deadline gets no finer split: the pair
    // loop inside each range already polls the token every
    // [`DEADLINE_CHECK_PAIRS`] extensions, so partition granularity adds
    // nothing to cancellation latency — only overhead.
    let threads = rayon::current_num_threads();
    let chunks = if threads <= 1 {
        1
    } else {
        (threads * 16).clamp(16, 1024) as u32
    };
    let ranges = partition_codes(idx1.coder().num_seeds() as u32, chunks);

    let results: Vec<Result<(Vec<Hsp>, Step2Stats), DeadlineExceeded>> = ranges
        .into_par_iter()
        .map(|r| {
            process_code_range(
                bank1,
                idx1,
                bank2,
                idx2,
                &params,
                cfg.min_hsp_score,
                r,
                guard,
                deadline,
            )
        })
        .collect();

    let mut stats = Step2Stats::default();
    let mut hsps = Vec::new();
    for res in results {
        let (v, s) = res?;
        hsps.extend(v);
        stats = stats.merge(s);
    }
    // "the storage is made by sorting the HSPs by diagonal number to
    // optimize data access of the next step"
    hsps.sort_by(Hsp::diag_order);
    // The ordered rule generates each HSP exactly once (paper section
    // 2.2); only the unguarded ablation relies on the dedup below.
    debug_assert!(
        !guard.is_ordered() || hsps.windows(2).all(|p| p[0] != p[1]),
        "the ordered rule emitted a duplicate HSP"
    );
    hsps.dedup();
    Ok((hsps, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_index::IndexConfig;
    use oris_seqio::BankBuilder;

    fn bank(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    fn cfg(w: usize) -> OrisConfig {
        OrisConfig {
            w,
            min_hsp_score: w as i32, // keep anything scoring at least a bare seed
            ..OrisConfig::small(w)
        }
    }

    fn run(b1: &Bank, b2: &Bank, c: &OrisConfig) -> Vec<Hsp> {
        let i1 = BankIndex::build(b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(b2, IndexConfig::full(c.w));
        find_hsps(b1, &i1, b2, &i2, c).0
    }

    #[test]
    fn identical_sequences_give_one_hsp() {
        let s = "ATGGCGTACGTTAGCCTAGGCTTA";
        let b1 = bank(&[s]);
        let b2 = bank(&[s]);
        let hsps = run(&b1, &b2, &cfg(6));
        // One full-length HSP on the main diagonal; off-diagonal repeats
        // of 6-mers are absent in this diverse sequence.
        assert_eq!(hsps.len(), 1, "{hsps:?}");
        assert_eq!(hsps[0].len as usize, s.len());
        assert_eq!(hsps[0].diag(), 0);
        assert_eq!(hsps[0].score, s.len() as i32);
    }

    #[test]
    fn unrelated_sequences_give_nothing() {
        let b1 = bank(&["ATATATGCGCATATGCGCATATAT"]);
        let b2 = bank(&["GGTTCCAAGGTTCCAAGGTTCCAA"]);
        let hsps = run(&b1, &b2, &cfg(8));
        assert!(hsps.is_empty(), "{hsps:?}");
    }

    #[test]
    fn each_hsp_is_unique() {
        // Long shared region: many seeds anchor the same HSP; the ordered
        // rule must emit it once.
        let shared = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTTAACC";
        let b1 = bank(&[&format!("TTTT{shared}GGGG")]);
        let b2 = bank(&[&format!("CCCC{shared}AAAA")]);
        let hsps = run(&b1, &b2, &cfg(6));
        let mut seen = std::collections::HashSet::new();
        for h in &hsps {
            assert!(seen.insert((h.start1, h.start2, h.len)), "duplicate {h:?}");
        }
        // The main shared HSP is found exactly once.
        let main: Vec<&Hsp> = hsps
            .iter()
            .filter(|h| h.len as usize >= shared.len())
            .collect();
        assert_eq!(main.len(), 1, "{hsps:?}");
    }

    #[test]
    fn hsps_are_diag_sorted() {
        let shared = "ATGGCGTACGTTAGCCTAGG";
        let b1 = bank(&[&format!("{shared}TTTTTTTTTT{shared}")]);
        let b2 = bank(&[shared]);
        let hsps = run(&b1, &b2, &cfg(6));
        assert!(hsps.len() >= 2);
        for w in hsps.windows(2) {
            assert!(Hsp::diag_order(&w[0], &w[1]) != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn hsp_scoring_exactly_min_score_is_kept() {
        // min_hsp_score is the *minimum score to keep* (the paper's S1):
        // the boundary case must pass, not be dropped by an off-by-one.
        // A lone 6-mer with no extendable context scores exactly 6.
        let s = "ATGGCG";
        let b1 = bank(&[s]);
        let b2 = bank(&[s]);
        let mut c = cfg(6);
        c.min_hsp_score = 6;
        let hsps = run(&b1, &b2, &c);
        assert_eq!(hsps.len(), 1, "{hsps:?}");
        assert_eq!(hsps[0].score, 6);
        // One above the score: dropped.
        c.min_hsp_score = 7;
        assert!(run(&b1, &b2, &c).is_empty());
    }

    #[test]
    fn score_threshold_filters() {
        let shared = "ATGGCGTACGTTAGCCTAGGCTTA";
        let b1 = bank(&[shared]);
        let b2 = bank(&[shared]);
        let mut c = cfg(6);
        c.min_hsp_score = 1000;
        let hsps = run(&b1, &b2, &c);
        assert!(hsps.is_empty());
    }

    #[test]
    fn parallel_matches_serial() {
        // Same inputs, forced single-chunk vs default parallel: identical
        // HSP vectors (order included).
        let shared = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTTAACC";
        let b1 = bank(&[
            &format!("AAAACC{shared}"),
            "TTGGCCATGGCCAATT",
            &format!("{shared}GGTTAA"),
        ]);
        let b2 = bank(&[&format!("TTTTG{shared}ACGT"), "CCGGTTAACCGGTTAA"]);
        let c = cfg(5);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));

        let pool1 = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let pool4 = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let (h1, s1) = pool1.install(|| find_hsps(&b1, &i1, &b2, &i2, &c));
        let (h4, s4) = pool4.install(|| find_hsps(&b1, &i1, &b2, &i2, &c));
        assert_eq!(h1, h4);
        assert_eq!(s1, s4);
    }

    #[test]
    fn skewed_bank_output_is_thread_count_invariant() {
        // Long homopolymer runs concentrate nearly all pair work in two
        // seed codes (AAAA…, TTTT…) — the distribution that defeats
        // equal-width scheduling. Output and counters must be identical
        // for 1, 2 and 8 threads.
        let polya = "A".repeat(120);
        let polyt = "T".repeat(90);
        let mixed = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCG";
        let b1 = bank(&[
            &format!("{polya}{mixed}"),
            &format!("{mixed}{polyt}"),
            "GGCCTTAAGGCCTTAA",
        ]);
        let b2 = bank(&[&format!("{polyt}{mixed}{polya}"), "CCGGATCGATCCGG"]);
        let c = cfg(5);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));

        let mut outputs = Vec::new();
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            outputs.push(pool.install(|| find_hsps(&b1, &i1, &b2, &i2, &c)));
        }
        let (h1, s1) = &outputs[0];
        assert!(!h1.is_empty());
        for (h, s) in &outputs[1..] {
            assert_eq!(h1, h, "HSPs differ across thread counts");
            assert_eq!(s1, s, "Step2Stats differ across thread counts");
        }
    }

    #[test]
    fn sparse_partition_handles_w11_code_space() {
        // At W = 11 the code space holds 4^11 ≈ 4.2 M codes; the
        // equal-width ranges still cover it exactly, and each range's
        // populated-row walk over a sparse index finds the shared region.
        use oris_index::IndexBackend;
        let shared = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGATCCGGTTAACC";
        let b1 = bank(&[&format!("TTTT{shared}GGGG")]);
        let b2 = bank(&[&format!("CCCC{shared}AAAA")]);
        let icfg = IndexConfig::full(11).with_backend(IndexBackend::Sparse);
        let i1 = BankIndex::build(&b1, icfg);
        let i2 = BankIndex::build(&b2, icfg);
        let num_codes = i1.coder().num_seeds() as u32;
        let ranges = partition_codes(num_codes, 16);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, num_codes);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // And the full pipeline finds the shared region at W = 11.
        let c = cfg(11);
        let (hsps, _) = find_hsps(&b1, &i1, &b2, &i2, &c);
        assert!(
            hsps.iter().any(|h| h.len as usize >= shared.len()),
            "{hsps:?}"
        );
    }

    #[test]
    fn stats_account_for_all_pairs() {
        let shared = "ATGGCGTACGTTAGCC";
        let b1 = bank(&[shared, "AAAATTTTGGGGCCCC"]);
        let b2 = bank(&[shared]);
        let c = cfg(4);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));
        let (_, st) = find_hsps(&b1, &i1, &b2, &i2, &c);
        assert_eq!(st.pairs_examined, st.aborted + st.below_threshold + st.kept);
        assert!(st.pairs_examined > 0);
    }

    #[test]
    fn guard_auto_selection_follows_provenance() {
        let b = bank(&["ACGTACGTTTGGCCAAACGT"]);
        let full = BankIndex::build(&b, IndexConfig::full(4));
        let masked = BankIndex::build_filtered(&b, IndexConfig::full(4), |p| p == 2);
        let strided = BankIndex::build(&b, IndexConfig::asymmetric(4));
        assert!(matches!(
            select_guard(&full, &full),
            OrderGuard::OrderedFull
        ));
        assert!(matches!(
            select_guard(&full, &masked),
            OrderGuard::OrderedIndexed { .. }
        ));
        assert!(matches!(
            select_guard(&masked, &full),
            OrderGuard::OrderedIndexed { .. }
        ));
        assert!(matches!(
            select_guard(&full, &strided),
            OrderGuard::OrderedIndexed { .. }
        ));
    }

    use proptest::prelude::*;

    fn banks_from(seqs: &[String]) -> Bank {
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        bank(&refs)
    }

    proptest! {
        /// On fully indexed banks the auto-selected probe-free fast path
        /// (`OrderedFull`) and the indexed guard are byte-identical: same
        /// HSP vector (order included) and same `Step2Stats`.
        #[test]
        fn full_and_indexed_guards_agree_on_fully_indexed_banks(
            seqs1 in proptest::collection::vec("[ACGTN]{5,60}", 1..4),
            seqs2 in proptest::collection::vec("[ACGTN]{5,60}", 1..4),
            w in 3usize..6,
        ) {
            let b1 = banks_from(&seqs1);
            let b2 = banks_from(&seqs2);
            let c = cfg(w);
            let i1 = BankIndex::build(&b1, IndexConfig::full(w));
            let i2 = BankIndex::build(&b2, IndexConfig::full(w));
            prop_assert!(matches!(select_guard(&i1, &i2), OrderGuard::OrderedFull));

            let auto = find_hsps(&b1, &i1, &b2, &i2, &c);
            let indexed = find_hsps_with_guard(
                &b1, &i1, &b2, &i2, &c,
                OrderGuard::OrderedIndexed { idx1: &i1, idx2: &i2 },
            );
            prop_assert_eq!(&auto, &indexed);
        }

        /// Reference: extend every *indexed* hit pair unguarded with the
        /// same xdrop and dedup the resulting (start1, start2, len)
        /// triples. The ordered generator must produce the same set —
        /// under masking on bank 1 (`mask_mod` 1 = unmasked) and a
        /// strided bank-2 index too, where the auto-selected guard must
        /// be the indexed one.
        #[test]
        fn matches_bruteforce_hsp_set(
            mask_mod in 1usize..7,
            stride in 1usize..3,
        ) {
            let b1 = bank(&["ATGGCGTACGTTAGCCTAGGACGGATCGAT", "GGCCTTAAGGCCTTAA"]);
            let b2 = bank(&["TTATGGCGTACGTTAGCCTAGGTT", "CGGATCGATACGT"]);
            let c = cfg(5);
            let i1 = BankIndex::build_filtered(&b1, IndexConfig::full(c.w), |p| {
                mask_mod > 1 && p.is_multiple_of(mask_mod)
            });
            let i2 = BankIndex::build(&b2, IndexConfig { stride, ..IndexConfig::full(c.w) });
            if !i1.is_fully_indexed() || !i2.is_fully_indexed() {
                prop_assert!(matches!(
                    select_guard(&i1, &i2),
                    OrderGuard::OrderedIndexed { .. }
                ));
            }
            let params = UngappedParams {
                w: c.w,
                xdrop: c.xdrop_ungapped,
                scheme: c.scheme,
                max_span: usize::MAX / 4,
            };
            let coder = i1.coder();
            let mut brute = std::collections::HashSet::new();
            for code in 0..coder.num_seeds() as u32 {
                for &a in i1.occurrences(code) {
                    for &b in i2.occurrences(code) {
                        if let ExtensionOutcome::Hsp { score, left, right } = extend_hit(
                            b1.data(), b2.data(), a as usize, b as usize,
                            code, coder, &params, OrderGuard::None,
                        ) {
                            // `>=`: min_hsp_score is the minimum score to
                            // KEEP (the paper's S1) — matches
                            // process_code_range.
                            if score >= c.min_hsp_score {
                                brute.insert((
                                    a - left as u32,
                                    b - left as u32,
                                    left as u32 + c.w as u32 + right as u32,
                                ));
                            }
                        }
                    }
                }
            }
            let ordered: std::collections::HashSet<(u32, u32, u32)> =
                find_hsps(&b1, &i1, &b2, &i2, &c)
                    .0
                    .into_iter()
                    .map(|h| (h.start1, h.start2, h.len))
                    .collect();
            prop_assert_eq!(ordered, brute);
        }

        /// Dense and sparse index backends are interchangeable in step 2:
        /// same HSP vector (order included) and same `Step2Stats`, for
        /// random banks, word lengths, masking and stride — including the
        /// mixed pairing one mmap-attached dense volume against a fresh
        /// sparse query index produces.
        #[test]
        fn step2_output_is_backend_invariant(
            seqs1 in proptest::collection::vec("[ACGTN]{5,60}", 1..4),
            seqs2 in proptest::collection::vec("[ACGTN]{5,60}", 1..4),
            w in 3usize..6,
            mask_mod in 2usize..7,
            stride in 1usize..3,
        ) {
            use oris_index::IndexBackend;
            let b1 = banks_from(&seqs1);
            let b2 = banks_from(&seqs2);
            let c = cfg(w);
            let dense = IndexConfig::full(w).with_backend(IndexBackend::Dense);
            let sparse = IndexConfig::full(w).with_backend(IndexBackend::Sparse);
            let d1 = BankIndex::build_filtered(&b1, dense, |p| p % mask_mod == 0);
            let s1 = BankIndex::build_filtered(&b1, sparse, |p| p % mask_mod == 0);
            let strided = |backend| IndexConfig { stride, ..IndexConfig::full(w) }
                .with_backend(backend);
            let d2 = BankIndex::build(&b2, strided(IndexBackend::Dense));
            let s2 = BankIndex::build(&b2, strided(IndexBackend::Sparse));

            let reference = find_hsps(&b1, &d1, &b2, &d2, &c);
            prop_assert_eq!(&reference, &find_hsps(&b1, &s1, &b2, &s2, &c));
            prop_assert_eq!(&reference, &find_hsps(&b1, &d1, &b2, &s2, &c));
            prop_assert_eq!(&reference, &find_hsps(&b1, &s1, &b2, &d2, &c));
        }

        /// The equal-width partition returns at most `chunks` contiguous,
        /// in-order ranges covering the whole code space, for random seed
        /// lengths and chunk counts.
        #[test]
        fn partition_bound_holds_for_random_offsets(
            w in 1usize..12,
            chunks in 1u32..2000,
        ) {
            let num_codes = oris_index::SeedCoder::new(w).num_seeds() as u32;
            let ranges = partition_codes(num_codes, chunks);
            prop_assert!(!ranges.is_empty());
            prop_assert!(
                ranges.len() <= chunks as usize,
                "{} ranges for {} chunks", ranges.len(), chunks
            );
            prop_assert_eq!(ranges.first().unwrap().start, 0);
            prop_assert_eq!(ranges.last().unwrap().end, num_codes);
            for pair in ranges.windows(2) {
                prop_assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }
}
