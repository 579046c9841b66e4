//! Step 3 — gapped extension of HSPs (paper section 2.3).
//!
//! HSPs arrive sorted by diagonal number. Each HSP not already contained
//! in a previously computed gapped alignment is extended from its midpoint
//! in both directions by X-drop dynamic programming (`oris-align::gapped`)
//! and the two halves are merged.
//!
//! The containment test mirrors the paper's: "a gapped extension will be
//! done only if an HSP does not belong to a gapped alignment previously
//! computed… both HSPs and gapped alignments are sorted using the same
//! criteria (diagonal number)… testing this condition does not involve
//! time consuming search… due to the locality of the data". We keep an
//! *active window* of recent alignments ordered by their maximum diagonal;
//! since HSPs arrive in increasing diagonal order, alignments whose
//! diagonal range lies entirely below the current HSP diagonal (minus the
//! band slack) can never contain a future HSP and are retired. An HSP is
//! contained when its midpoint falls inside an alignment's coordinate box
//! and its diagonal within the alignment's [min, max] diagonal range.
//!
//! Parallel mode groups HSPs by `(query record, subject record)` — gapped
//! alignments never cross sentinel boundaries, so groups are independent —
//! and processes groups with rayon, preserving deterministic output by
//! sorting groups and concatenating in order. Each worker's share of a
//! wave owns one [`GappedScratch`] (the DP row buffers and traceback
//! pool), and the serial per-group loop runs every extension on it, so an
//! extension allocates only its operation list.
//!
//! The streaming pipeline enters through [`gapped_alignments_into`]: each
//! group's alignments are handed to a [`Step3Emit`] receiver as soon as
//! the group is computed (in ascending group-key order, so emission stays
//! deterministic for any thread count), and groups are computed in bounded
//! waves — at most a few groups' alignments are ever live at once instead
//! of the whole query's. [`gapped_alignments`] is the collect-everything
//! wrapper over the same machinery.

use oris_align::{AlignStats, GappedParams, GappedScratch};
use oris_seqio::Bank;
use rayon::prelude::*;

use crate::config::OrisConfig;
use crate::hsp::Hsp;

/// A gapped alignment in global bank coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct GappedAlignment {
    /// Start on bank 1 (global, inclusive).
    pub start1: usize,
    /// Start on bank 2 (global, inclusive).
    pub start2: usize,
    /// Characters consumed on bank 1.
    pub len1: usize,
    /// Characters consumed on bank 2.
    pub len2: usize,
    /// Alignment score (affine gaps).
    pub score: i32,
    /// Column statistics (identity, mismatches, gap openings).
    pub stats: AlignStats,
    /// Smallest diagonal touched by the alignment path.
    pub diag_min: i64,
    /// Largest diagonal touched by the alignment path.
    pub diag_max: i64,
}

impl GappedAlignment {
    /// End on bank 1 (exclusive).
    pub fn end1(&self) -> usize {
        self.start1 + self.len1
    }

    /// End on bank 2 (exclusive).
    pub fn end2(&self) -> usize {
        self.start2 + self.len2
    }

    /// Whether the point `(p1, p2, diag)` lies inside this alignment's
    /// coordinate box and diagonal band.
    pub fn contains_point(&self, p1: usize, p2: usize, diag: i64) -> bool {
        p1 >= self.start1
            && p1 < self.end1()
            && p2 >= self.start2
            && p2 < self.end2()
            && diag >= self.diag_min
            && diag <= self.diag_max
    }
}

/// Counters reported by step 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step3Stats {
    /// HSPs skipped because an existing alignment contained them.
    pub skipped_contained: u64,
    /// Gapped extensions performed.
    pub extended: u64,
}

impl Step3Stats {
    /// Sums the counters of two reports (used by group concatenation and
    /// by the pipeline's strand merge).
    pub fn merge(mut self, o: Step3Stats) -> Step3Stats {
        self.skipped_contained += o.skipped_contained;
        self.extended += o.extended;
        self
    }
}

/// Extends one HSP from its midpoint and packages the result.
fn extend_one(
    bank1: &Bank,
    bank2: &Bank,
    hsp: &Hsp,
    params: &GappedParams,
    scratch: &mut GappedScratch,
) -> GappedAlignment {
    let (m1, m2) = hsp.midpoint();
    let (merged, start1, start2) = scratch.extend_both(bank1.data(), bank2.data(), m1, m2, params);
    let stats = AlignStats::from_ops(&merged.ops);
    // Diagonal range along the path.
    let mut diag = start1 as i64 - start2 as i64;
    let mut dmin = diag;
    let mut dmax = diag;
    for op in &merged.ops {
        match op {
            oris_align::AlignOp::Ins => {
                diag += 1;
                dmax = dmax.max(diag);
            }
            oris_align::AlignOp::Del => {
                diag -= 1;
                dmin = dmin.min(diag);
            }
            _ => {}
        }
    }
    GappedAlignment {
        start1,
        start2,
        len1: merged.len1,
        len2: merged.len2,
        score: merged.score,
        stats,
        diag_min: dmin,
        diag_max: dmax,
    }
}

/// Sequential step 3 over diagonal-sorted HSPs. Every extension runs on
/// `scratch`, the DP buffers of the calling worker.
fn gapped_serial(
    bank1: &Bank,
    bank2: &Bank,
    hsps: &[Hsp],
    params: &GappedParams,
    scratch: &mut GappedScratch,
) -> (Vec<GappedAlignment>, Step3Stats) {
    let mut stats = Step3Stats::default();
    let mut out: Vec<GappedAlignment> = Vec::new();
    // Active window: indexes into `out`, retired once their diag_max falls
    // behind the sweep (with slack for the midpoint offset).
    let mut active: Vec<usize> = Vec::new();

    for hsp in hsps {
        let (m1, m2) = hsp.midpoint();
        let diag = hsp.diag();
        // Retire alignments that end (in diagonal terms) before the sweep.
        active.retain(|&i| out[i].diag_max >= diag);

        let contained = active.iter().any(|&i| out[i].contains_point(m1, m2, diag));
        if contained {
            stats.skipped_contained += 1;
            continue;
        }
        stats.extended += 1;
        let aln = extend_one(bank1, bank2, hsp, params, scratch);
        active.push(out.len());
        out.push(aln);
    }
    (out, stats)
}

/// Receiver for step 3's streamed output: one call per
/// `(query record, subject record)` group, in ascending group-key order,
/// made as soon as the group's alignments exist. The streaming pipeline
/// implements this with a closure that runs step 4 on the group and feeds
/// the records straight into a `RecordSink`, so whole-query alignment
/// vectors never materialize.
pub trait Step3Emit {
    /// Delivers one group's gapped alignments (ownership transfers — the
    /// receiver is the buffer's last stop).
    fn group(&mut self, alns: Vec<GappedAlignment>);
}

impl<F: FnMut(Vec<GappedAlignment>)> Step3Emit for F {
    fn group(&mut self, alns: Vec<GappedAlignment>) {
        self(alns)
    }
}

/// Shared step-3 scheduler: groups HSPs by record pair, processes the
/// groups in parallel in waves of `wave` groups, and emits each group in
/// ascending key order as its wave completes. `wave = usize::MAX` is one
/// wave — maximum overlap, no memory bound — for collect-everything
/// callers; a small wave bounds in-flight alignments for streaming
/// callers at the cost of a barrier per wave.
fn gapped_grouped(
    bank1: &Bank,
    bank2: &Bank,
    hsps: &[Hsp],
    cfg: &OrisConfig,
    wave: usize,
    emit: &mut dyn Step3Emit,
) -> Step3Stats {
    let params = GappedParams {
        scheme: cfg.scheme,
        xdrop: cfg.xdrop_gapped,
        max_span: cfg.max_gapped_span,
        max_cells: 1 << 24,
    };

    // Group HSPs by sequence pair. Alignments cannot cross sentinels, so
    // groups are fully independent.
    use std::collections::HashMap;
    // oris-lint: allow(det-hash) — grouping only; group keys are collected and sorted before processing
    let mut groups: HashMap<(usize, usize), Vec<Hsp>> = HashMap::new();
    for h in hsps {
        let r1 = bank1
            .locate(h.start1 as usize)
            .expect("HSP start must lie inside a sequence");
        let r2 = bank2
            .locate(h.start2 as usize)
            .expect("HSP start must lie inside a sequence");
        groups.entry((r1, r2)).or_default().push(*h);
    }
    let mut keys: Vec<(usize, usize)> = groups.keys().copied().collect();
    keys.sort_unstable();

    let mut stats = Step3Stats::default();
    for wave_keys in keys.chunks(wave.max(1)) {
        // One DP scratch per worker chunk of the wave, reused by every
        // extension of the groups that worker runs.
        let results: Vec<(Vec<GappedAlignment>, Step3Stats)> = wave_keys
            .par_iter()
            .map_init(GappedScratch::new, |scratch, k| {
                // Within a group HSPs keep their global diagonal order.
                let group = &groups[k];
                gapped_serial(bank1, bank2, group, &params, scratch)
            })
            .collect();
        for (v, s) in results {
            stats = stats.merge(s);
            emit.group(v);
        }
    }
    stats
}

/// Runs step 3, parallelizing over `(record1, record2)` groups and
/// streaming each group's alignments into `emit` the moment the group is
/// done. Groups are computed in waves of `2 × worker-count`, so at most
/// one wave's alignments are live at a time; within and across waves,
/// emission follows ascending group key, which keeps the stream
/// deterministic for any thread count.
pub fn gapped_alignments_into(
    bank1: &Bank,
    bank2: &Bank,
    hsps: &[Hsp],
    cfg: &OrisConfig,
    emit: &mut dyn Step3Emit,
) -> Step3Stats {
    // Wave width: enough groups to occupy every worker with some slack for
    // uneven group sizes, small enough that in-flight alignments stay
    // bounded by the wave, not the query.
    let wave = rayon::current_num_threads().max(1) * 2;
    gapped_grouped(bank1, bank2, hsps, cfg, wave, emit)
}

/// Collect-everything wrapper: the pre-streaming signature, kept for the
/// ablation harness, the brute-force references and any caller that
/// genuinely needs the whole vector. Runs all groups as one wave —
/// callers that hold every alignment anyway should not pay the streaming
/// path's per-wave barriers.
pub fn gapped_alignments(
    bank1: &Bank,
    bank2: &Bank,
    hsps: &[Hsp],
    cfg: &OrisConfig,
) -> (Vec<GappedAlignment>, Step3Stats) {
    let mut out: Vec<GappedAlignment> = Vec::new();
    let mut collect = |mut alns: Vec<GappedAlignment>| out.append(&mut alns);
    let stats = gapped_grouped(bank1, bank2, hsps, cfg, usize::MAX, &mut collect);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_index::{BankIndex, IndexConfig};
    use oris_seqio::BankBuilder;

    fn bank(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    fn pipeline_to_step3(
        b1: &Bank,
        b2: &Bank,
        cfg: &OrisConfig,
    ) -> (Vec<GappedAlignment>, Step3Stats) {
        let i1 = BankIndex::build(b1, IndexConfig::full(cfg.w));
        let i2 = BankIndex::build(b2, IndexConfig::full(cfg.w));
        let (hsps, _) = crate::step2::find_hsps(b1, &i1, b2, &i2, cfg);
        gapped_alignments(b1, b2, &hsps, cfg)
    }

    fn cfg(w: usize) -> OrisConfig {
        OrisConfig {
            w,
            min_hsp_score: w as i32 + 2,
            ..OrisConfig::small(w)
        }
    }

    #[test]
    fn identical_sequences_one_alignment() {
        let s = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT";
        let b1 = bank(&[s]);
        let b2 = bank(&[s]);
        let (alns, stats) = pipeline_to_step3(&b1, &b2, &cfg(6));
        assert_eq!(alns.len(), 1, "{alns:?}");
        assert_eq!(alns[0].len1, s.len());
        assert_eq!(alns[0].score, s.len() as i32);
        assert_eq!(stats.extended, 1);
    }

    #[test]
    fn gapped_alignment_bridges_indel() {
        // Two HSP-diagonals separated by a 2-nt insertion: step 3 must
        // produce ONE gapped alignment spanning both, and the second HSP
        // must be skipped as contained.
        let left = "ATGGCGTACGTTAGCCTAGG";
        let right = "CTTAACGGATCGATCCGGTA";
        let s1 = format!("{left}{right}");
        let s2 = format!("{left}GG{right}");
        let b1 = bank(&[&s1]);
        let b2 = bank(&[&s2]);
        let (alns, stats) = pipeline_to_step3(&b1, &b2, &cfg(8));
        assert_eq!(alns.len(), 1, "{alns:?}");
        let a = &alns[0];
        assert_eq!(a.len1, s1.len());
        assert_eq!(a.len2, s2.len());
        assert_eq!(a.stats.gap_opens, 1);
        assert_eq!(a.stats.gap_columns, 2);
        assert_eq!(a.diag_max - a.diag_min, 2);
        assert_eq!(stats.skipped_contained, 1);
        assert_eq!(stats.extended, 1);
    }

    #[test]
    fn distinct_homologies_stay_distinct() {
        // The same core aligned at two distant subject locations: two
        // alignments, neither suppressed.
        let core = "ATGGCGTACGTTAGCCTAGGCTTA";
        let b1 = bank(&[core]);
        let b2 = bank(&[&format!("{core}TTTTTTTTTTTTTTTTTTTTTTTTTTTTTT{core}")]);
        let (alns, _) = pipeline_to_step3(&b1, &b2, &cfg(8));
        assert_eq!(alns.len(), 2, "{alns:?}");
    }

    #[test]
    fn parallel_groups_match_serial() {
        let core1 = "ATGGCGTACGTTAGCCTAGGCTTA";
        let core2 = "GGCCATTAGGCCATTAACGGTTAA";
        let b1 = bank(&[core1, core2, &format!("{core1}AC{core2}")]);
        let b2 = bank(&[core2, core1]);
        let c = cfg(7);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));
        let (hsps, _) = crate::step2::find_hsps(&b1, &i1, &b2, &i2, &c);

        let pool1 = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let pool4 = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let (a1, s1) = pool1.install(|| gapped_alignments(&b1, &b2, &hsps, &c));
        let (a4, s4) = pool4.install(|| gapped_alignments(&b1, &b2, &hsps, &c));
        assert_eq!(a1, a4);
        assert_eq!(s1, s4);
    }

    #[test]
    fn containment_respects_coordinates_not_just_diagonal() {
        // The core appears twice in each bank → 4 distinct cross
        // alignments, two of which share diagonal 0 but sit far apart
        // along it: neither may be suppressed by the other.
        let core = "ATGGCGTACGTTAGCCTAGGCTTA";
        let filler1 = "CCCCCCCCCCCCCCCCCCCCCCCCCCCCCC";
        let filler2 = "GGGGGGGGGGGGGGGGGGGGGGGGGGGGGG";
        let b1 = bank(&[&format!("{core}{filler1}{core}")]);
        let b2 = bank(&[&format!("{core}{filler2}{core}")]);
        let (alns, _) = pipeline_to_step3(&b1, &b2, &cfg(8));
        assert_eq!(alns.len(), 4, "{alns:?}");
        let on_diag0: Vec<_> = alns.iter().filter(|a| a.diag_min == 0).collect();
        assert_eq!(on_diag0.len(), 2);
        assert_ne!(on_diag0[0].start1, on_diag0[1].start1);
    }

    #[test]
    fn stats_sum_to_hsp_count() {
        let core = "ATGGCGTACGTTAGCCTAGGCTTAACGGATCGAT";
        let b1 = bank(&[core]);
        let b2 = bank(&[core]);
        let c = cfg(6);
        let i1 = BankIndex::build(&b1, IndexConfig::full(c.w));
        let i2 = BankIndex::build(&b2, IndexConfig::full(c.w));
        let (hsps, _) = crate::step2::find_hsps(&b1, &i1, &b2, &i2, &c);
        let (_, st) = gapped_alignments(&b1, &b2, &hsps, &c);
        assert_eq!(st.extended + st.skipped_contained, hsps.len() as u64);
    }
}
