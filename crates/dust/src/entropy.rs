//! Windowed Shannon-entropy masker — the "SCORIS-N side" filter.
//!
//! The paper states SCORIS-N's low-complexity filter differs from BLASTN's
//! dust (\[14\]) and charges part of the sensitivity gap to that difference.
//! We model SCORIS-N's filter as a windowed mononucleotide-entropy test:
//! a window is low-complexity when the Shannon entropy of its base
//! composition falls below a threshold (in bits; a uniform window has 2
//! bits, a homopolymer 0).
//!
//! Entropy and triplet scores disagree on the margins — e.g. a perfect
//! `ACGTACGT…` repeat has maximal mononucleotide entropy (2 bits, never
//! masked here) but an extreme triplet score (always masked by DUST) —
//! which is precisely the kind of discrepancy the paper describes.

use oris_seqio::alphabet::is_nucleotide;
use oris_seqio::Bank;

use oris_index::MaskSet;

/// Windowed Shannon-entropy low-complexity masker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntropyMasker {
    /// Window length in nucleotides.
    pub window: usize,
    /// Mask windows with entropy strictly below this many bits.
    pub min_bits: f64,
}

impl Default for EntropyMasker {
    fn default() -> Self {
        // A 20-nt window catches the short poly-A tails and
        // microsatellites that dominate spurious EST hits (a longer
        // window dilutes a short tail below the threshold), while random
        // 20-mers sit near 1.9 bits — comfortably above 1.25.
        EntropyMasker {
            window: 20,
            min_bits: 1.25,
        }
    }
}

impl EntropyMasker {
    /// Creates a masker with explicit parameters.
    pub fn new(window: usize, min_bits: f64) -> EntropyMasker {
        assert!(window >= 4);
        assert!((0.0..=2.0).contains(&min_bits));
        EntropyMasker { window, min_bits }
    }

    /// Shannon entropy (bits) of base counts: the per-window definition
    /// that [`Self::mask`] reproduces from its term table, and that the
    /// tests check it against.
    #[cfg(test)]
    fn entropy_bits(counts: &[u32; 4], total: u32) -> f64 {
        if total == 0 {
            return 2.0;
        }
        let mut h = 0.0f64;
        for &c in counts {
            if c > 0 {
                h -= Self::term(c, total);
            }
        }
        h
    }

    /// `p·log2 p` for `p = c / total`: one base's share of the entropy.
    fn term(c: u32, total: u32) -> f64 {
        let p = c as f64 / total as f64;
        p * p.log2()
    }

    /// Masks low-entropy regions of `bank` (global positions).
    ///
    /// Only full windows are tested, so the entropy terms come from a
    /// table indexed by count, built once per call. The table holds the
    /// very values `entropy_bits` computes and the sum runs over
    /// the counts in the same order; a zero count reads `0.0`, and
    /// subtracting `+0.0` leaves any float unchanged. Each window's
    /// entropy, and so the mask, is therefore bit-identical to evaluating
    /// `entropy_bits` per window.
    pub fn mask(&self, bank: &Bank) -> MaskSet {
        let data = bank.data();
        let mut mask = MaskSet::new(data.len());
        let window = self.window as u32;
        let terms: Vec<f64> = (0..=window)
            .map(|c| if c == 0 { 0.0 } else { Self::term(c, window) })
            .collect();

        for rec_idx in 0..bank.num_sequences() {
            let rec = bank.record(rec_idx);
            let seq = &data[rec.start..rec.end()];
            let mut counts = [0u32; 4];
            let mut run_start = 0usize; // start of the current valid run
            let mut i = 0usize;
            while i < seq.len() {
                let c = seq[i];
                if !is_nucleotide(c) {
                    counts = [0; 4];
                    run_start = i + 1;
                    i += 1;
                    continue;
                }
                counts[c as usize] += 1;
                let in_window = i + 1 - run_start;
                if in_window > self.window {
                    counts[seq[i - self.window] as usize] -= 1;
                    run_start = i + 1 - self.window;
                }
                if i + 1 - run_start == self.window {
                    let h = counts.iter().fold(0.0f64, |h, &n| h - terms[n as usize]);
                    if h < self.min_bits {
                        mask.set_range(rec.start + run_start, rec.start + i + 1);
                    }
                }
                i += 1;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_seqio::BankBuilder;
    use proptest::prelude::*;

    fn bank(s: &str) -> Bank {
        let mut b = BankBuilder::new();
        b.push_str("s", s).unwrap();
        b.finish()
    }

    #[test]
    fn homopolymer_masked() {
        let b = bank(&"T".repeat(100));
        let m = EntropyMasker::default().mask(&b);
        assert!(m.masked_count() >= 95);
    }

    #[test]
    fn two_letter_repeat_masked() {
        // AT repeat: entropy 1.0 bit < 1.2 threshold.
        let b = bank(&"AT".repeat(50));
        let m = EntropyMasker::default().mask(&b);
        assert!(m.masked_count() >= 95);
    }

    #[test]
    fn acgt_repeat_not_masked_unlike_dust() {
        // The documented divergence from DUST: maximal mononucleotide
        // entropy, extreme triplet repetitiveness.
        let b = bank(&"ACGT".repeat(30));
        let ent = EntropyMasker::default().mask(&b);
        assert_eq!(ent.masked_count(), 0);
        let dust = crate::DustMasker::default().mask(&b);
        assert!(dust.masked_count() > 100);
    }

    #[test]
    fn diverse_sequence_clear() {
        let s = "ACGTTGCAATCGGATCCTAGGTACCATGGCAATTCGCGATACGTAGCTAGCTAGGCATCG";
        let b = bank(s);
        let m = EntropyMasker::default().mask(&b);
        assert_eq!(m.masked_count(), 0);
    }

    #[test]
    fn window_shorter_than_sequence_required() {
        // Sequences shorter than the window are never masked (no full
        // window forms).
        let b = bank(&"A".repeat(30));
        let m = EntropyMasker::new(48, 1.2).mask(&b);
        assert_eq!(m.masked_count(), 0);
    }

    #[test]
    fn ambiguous_base_resets() {
        let s = format!("{}N{}", "A".repeat(60), "A".repeat(15));
        let b = bank(&s);
        let m = EntropyMasker::default().mask(&b);
        let rec = b.record(0);
        assert!(m.contains(rec.start + 30));
        // The 15-long tail after the N never fills a 20-window.
        assert!(!m.contains(rec.start + 70));
        assert!(!m.contains(rec.start + 60)); // the N itself
    }

    #[test]
    fn entropy_of_uniform_is_two_bits() {
        assert!((EntropyMasker::entropy_bits(&[25, 25, 25, 25], 100) - 2.0).abs() < 1e-12);
        assert_eq!(EntropyMasker::entropy_bits(&[100, 0, 0, 0], 100), 0.0);
    }

    /// Masks full windows by evaluating [`EntropyMasker::entropy_bits`]
    /// directly: the per-window definition the table-driven `mask`
    /// must reproduce.
    fn direct_mask(m: &EntropyMasker, bank: &Bank) -> MaskSet {
        let mut mask = MaskSet::new(bank.data().len());
        for r in 0..bank.num_sequences() {
            let rec = bank.record(r);
            let seq = bank.sequence(r);
            for end in m.window..=seq.len() {
                let win = &seq[end - m.window..end];
                if !win.iter().all(|&c| is_nucleotide(c)) {
                    continue;
                }
                let mut counts = [0u32; 4];
                for &c in win {
                    counts[c as usize] += 1;
                }
                if EntropyMasker::entropy_bits(&counts, m.window as u32) < m.min_bits {
                    mask.set_range(rec.start + end - m.window, rec.start + end);
                }
            }
        }
        mask
    }

    proptest! {
        /// The table-driven mask equals the direct per-window entropy
        /// test on sequences with ambiguous bases, over windows 4..=64
        /// and thresholds across [0, 2] bits.
        #[test]
        fn table_mask_matches_direct_entropy(
            seqs in proptest::collection::vec("[ACGTN]{0,150}", 1..4),
            low_complexity in "[AT]{0,60}",
            window in 4usize..65,
            millibits in 0u32..2001,
        ) {
            let mut b = BankBuilder::new();
            for (i, s) in seqs.iter().enumerate() {
                b.push_str(&format!("s{i}"), &format!("{s}{low_complexity}")).unwrap();
            }
            let bank = b.finish();
            let m = EntropyMasker::new(window, millibits as f64 / 1000.0);
            prop_assert_eq!(m.mask(&bank), direct_mask(&m, &bank));
        }
    }
}
