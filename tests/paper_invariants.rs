//! Property-based tests of the paper's central claims, spanning crates.

use oris::prelude::*;
use oris_align::{extend_hit, ExtensionOutcome, OrderGuard, UngappedParams};
use oris_index::IndexConfig;
use oris_seqio::BankBuilder;
use proptest::prelude::*;

fn bank_from(seqs: &[String]) -> Bank {
    let mut b = BankBuilder::new();
    for (i, s) in seqs.iter().enumerate() {
        b.push_str(&format!("s{i}"), s).unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// THE paper invariant (section 2.2): with the ordered-seed rule,
    /// every HSP is generated exactly once, and the set of HSPs equals
    /// the deduplicated set produced by unguarded extension of every
    /// *indexed* hit — also when bank 1 is masked (every `mask_mod`-th
    /// position; 1 = unmasked) and bank 2 is indexed with a stride, where
    /// the order guard must probe both indexes.
    #[test]
    fn ordered_rule_generates_each_hsp_exactly_once(
        seqs1 in proptest::collection::vec("[ACGT]{30,90}", 1..3),
        seqs2 in proptest::collection::vec("[ACGT]{30,90}", 1..3),
        core in "[ACGT]{25,50}",
        w in 5usize..8,
        mask_mod in 1usize..7,
        stride in 1usize..3,
    ) {
        // Plant the shared core into both banks so real HSPs exist.
        let mut v1 = seqs1.clone();
        let mut v2 = seqs2.clone();
        v1[0] = format!("{}{core}{}", &v1[0][..10], &v1[0][10..]);
        v2[0] = format!("{}{core}", &v2[0][..15]);
        let b1 = bank_from(&v1);
        let b2 = bank_from(&v2);

        let cfg = oris::core::OrisConfig {
            w,
            // min_hsp_score is inclusive (keep score ≥ S1). One above the
            // bare-seed score: an HSP of score exactly W contains only its
            // own seed, and under a *saturating* xdrop the walk (which
            // carries the abort rule far beyond the final extent) may
            // legitimately reassign it to a smaller-code seed whose own
            // maximal extension does not cover it — so bare seeds sit
            // outside the exactly-once ⇔ brute-dedup equivalence this
            // test pins.
            min_hsp_score: w as i32 + 1,
            // saturating xdrop: extension extents become path-independent
            xdrop_ungapped: 10_000,
            ..oris::core::OrisConfig::small(w)
        };
        let i1 = BankIndex::build_filtered(&b1, IndexConfig::full(w), |p| {
            mask_mod > 1 && p.is_multiple_of(mask_mod)
        });
        let i2 = BankIndex::build(&b2, IndexConfig { stride, ..IndexConfig::full(w) });

        // Ordered generation.
        let (ordered, _) = oris::core::step2::find_hsps(&b1, &i1, &b2, &i2, &cfg);

        // Brute force: extend every indexed hit unguarded, dedup by extent.
        let params = UngappedParams {
            w,
            xdrop: cfg.xdrop_ungapped,
            scheme: cfg.scheme,
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
                        // `>=`: min_hsp_score is the minimum score to keep
                        // (matches step 2's corrected threshold).
                        if score >= cfg.min_hsp_score {
                            brute.insert((a - left as u32, b - left as u32,
                                          left as u32 + w as u32 + right as u32));
                        }
                    }
                }
            }
        }

        // Exactly once: no duplicates in the ordered output.
        let mut seen = std::collections::HashSet::new();
        for h in &ordered {
            prop_assert!(seen.insert((h.start1, h.start2, h.len)),
                "duplicate HSP {h:?}");
        }
        // Same set as brute force.
        prop_assert_eq!(seen, brute);
    }

    /// Planted homologies are found end-to-end whenever they contain a
    /// clean seed, and the reported alignment covers most of the core.
    #[test]
    fn planted_homology_is_recovered(
        prefix1 in "[ACGT]{0,40}", suffix1 in "[ACGT]{0,40}",
        prefix2 in "[ACGT]{0,40}", suffix2 in "[ACGT]{0,40}",
        core in "[ACGT]{40,80}",
    ) {
        let b1 = bank_from(&[format!("{prefix1}{core}{suffix1}")]);
        let b2 = bank_from(&[format!("{prefix2}{core}{suffix2}")]);
        let cfg = oris::core::OrisConfig::small(8);
        let r = compare_banks(&b1, &b2, &cfg);
        prop_assert!(!r.alignments.is_empty(), "planted core not found");
        let best = &r.alignments[0];
        prop_assert!(best.length >= core.len() * 8 / 10,
            "alignment too short: {} vs core {}", best.length, core.len());
    }

    /// Both engines find the same planted homology.
    #[test]
    fn engines_agree_on_planted_homology(
        noise1 in "[ACGT]{10,50}",
        noise2 in "[ACGT]{10,50}",
        core in "[ACGT]{40,70}",
    ) {
        let b1 = bank_from(&[format!("{noise1}{core}")]);
        let b2 = bank_from(&[format!("{core}{noise2}")]);
        let oris_cfg = oris::core::OrisConfig::small(8);
        let blast_cfg = BlastConfig::matched(&oris_cfg);
        let r1 = compare_banks(&b1, &b2, &oris_cfg);
        let r2 = blast_compare_banks(&b1, &b2, &blast_cfg);
        prop_assert!(!r1.alignments.is_empty());
        prop_assert!(!r2.alignments.is_empty());
        prop_assert!(oris::eval::equivalent(&r1.alignments[0], &r2.alignments[0], 0.8),
            "engines disagree: {} vs {}", r1.alignments[0], r2.alignments[0]);
    }

    /// The heuristic never reports an alignment scoring above the exact
    /// local optimum (Smith–Waterman-style upper bound via Gotoh).
    #[test]
    fn reported_alignments_respect_the_exact_optimum(
        s1 in "[ACGT]{30,80}",
        core in "[ACGT]{30,50}",
    ) {
        let b1 = bank_from(&[format!("{s1}{core}")]);
        let b2 = bank_from(std::slice::from_ref(&core));
        let cfg = oris::core::OrisConfig::small(7);
        let r = compare_banks(&b1, &b2, &cfg);
        if let Some(best) = r.alignments.first() {
            let oracle = oris::align::gotoh_local(
                b1.sequence(0),
                b2.sequence(0),
                &cfg.scheme,
            );
            // convert reported stats back to a score
            let rescore = best.length as i32 - (best.mismatch as i32) * 4
                - best.gapopen as i32 * 5; // upper bound on our scheme
            prop_assert!(rescore <= oracle.score + 1,
                "reported {} vs oracle {}", rescore, oracle.score);
        }
    }
}

use oris_index::BankIndex;

#[test]
fn full_paper_configuration_smoke() {
    // One end-to-end run with every paper feature on: W=11, filters,
    // e-value threshold, parallel steps — verifying the library in its
    // defaults rather than test-sized configs.
    let b1 = paper_banks(&["EST1"], 0.08).remove(0).bank;
    let b2 = paper_banks(&["EST2"], 0.08).remove(0).bank;
    let r = compare_banks(&b1, &b2, &OrisConfig::default());
    // Deterministic generated banks → deterministic expectations.
    assert!(r.stats.hsps >= r.alignments.len());
    for a in &r.alignments {
        assert!(a.pident > 0.0 && a.pident <= 100.0);
        assert!(a.qstart <= a.qend);
        assert!(a.sstart <= a.send);
    }
}
