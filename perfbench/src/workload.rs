//! Seeded workload generation. Every input is drawn from
//! `oris-simulate`'s public generators with per-bank seeds derived from
//! the workload seed, and written as FASTA: the program sees only files.

use std::path::{Path, PathBuf};

use oris_core::OrisConfig;
use oris_seqio::{Bank, BankBuilder};
use oris_simulate::banks::{build, spec_by_name};
use oris_simulate::{
    est_bank_with_contaminants, EstBankConfig, GenePool, RepeatLibrary, SimConfig,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EstVsEst,
    GenomeVsViral,
    DbBatch,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "est_vs_est" => Some(Kind::EstVsEst),
            "genome_vs_viral" => Some(Kind::GenomeVsViral),
            "db_batch" => Some(Kind::DbBatch),
            _ => None,
        }
    }
}

/// Bank sizes as multipliers of the `oris-simulate` paper-bank grid.
struct Sizes {
    est_query: f64,
    est_subject: f64,
    genome: f64,
    viral: f64,
    db_bct: f64,
    db_vrl: f64,
    db_h19: f64,
    db_volume_residues: usize,
    db_queries: usize,
    /// Share of `db_batch` ESTs drawn from bacterial contamination. Each
    /// matches the BCT-like volumes' repeat families and costs ~50 plain
    /// queries, so their count moves the p99 wherever it lands: at the
    /// paper grid's 1.5 % they are ~1 % of fresh queries and the p99
    /// jumped between 2 and 20 ms by seed; at 4 % it sat in their sparse
    /// band and spread by a third. At 0.5 % they stay beyond the p99 on
    /// every seed. The tiny size uses more, so its output is not empty.
    db_contamination: f64,
}

const FULL: Sizes = Sizes {
    est_query: 0.4,
    est_subject: 0.4,
    genome: 0.12,
    viral: 0.12,
    db_bct: 0.45,
    db_vrl: 0.5,
    db_h19: 0.6,
    db_volume_residues: 1_400_000,
    db_queries: 2_000,
    db_contamination: 0.005,
};

/// The self-test size: every path runs, in seconds.
const TINY: Sizes = Sizes {
    est_query: 0.02,
    est_subject: 0.02,
    genome: 0.01,
    viral: 0.01,
    db_bct: 0.03,
    db_vrl: 0.02,
    db_h19: 0.01,
    db_volume_residues: 30_000,
    db_queries: 200,
    db_contamination: 0.05,
};

/// Share of `db_batch` queries that repeat an earlier query verbatim.
const REPEAT_SHARE: f64 = 0.25;

/// A generated workload: its files, the `scoris_n` arguments that run
/// it, and the equivalent in-process configuration.
///
/// Every workload runs single-threaded. On a small shared host the
/// second core's availability drifts over tens of seconds: medians of
/// eight `-t 2` runs of `est_vs_est` ranged over ±25 % of their median
/// where `-t 1` stayed within ±8 %, and a bound must sit above that
/// noise.
pub struct Workload {
    pub kind: Kind,
    /// Query bank (plain workloads) or the multi-FASTA query batch.
    pub query: PathBuf,
    /// Subject bank (plain workloads).
    pub subject: PathBuf,
    /// `makedb` inputs (database workload).
    pub db_sources: Vec<PathBuf>,
    pub db_volume_residues: usize,
    pub cfg: OrisConfig,
    /// `--workers` (database workload).
    pub volume_workers: usize,
    /// `--result-cache` in MB (database workload).
    pub result_cache_mb: usize,
    /// Arguments of the `scoris_n` command, minus `-o` (and minus
    /// `--db`, which names a database built at run time).
    pub cli_args: Vec<String>,
}

/// SplitMix64: the seed mixer and the repeat picker.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The paper bank `name` at `scale`, drawn with a seed derived from the
/// workload seed.
fn bank(name: &str, scale: f64, seed: u64) -> Bank {
    let spec = spec_by_name(name).expect("paper bank name");
    let mixed = SplitMix(seed ^ spec.seed.wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64();
    let spec = oris_simulate::BankSpec {
        seed: mixed,
        ..spec
    };
    build(&spec, SimConfig { scale }).bank
}

fn write(bank: &Bank, path: PathBuf) -> Result<PathBuf, String> {
    oris_seqio::write_fasta_file(bank, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// `n` single-EST queries: fresh ESTs, except that each query after the
/// first repeats a uniformly chosen earlier query verbatim with
/// probability [`REPEAT_SHARE`].
fn query_batch(n: usize, contamination: f64, seed: u64) -> Result<Bank, String> {
    let bact = RepeatLibrary::bacterial_default();
    let contaminants: Vec<Vec<u8>> = (0..bact.len()).map(|i| bact.element(i).to_vec()).collect();
    let cfg = EstBankConfig {
        // ~540 nt per EST; draw a pool with slack.
        target_nt: n * 700,
        ..EstBankConfig::default()
    };
    let pool_seed = SplitMix(seed ^ 0xe57_9001).next_u64();
    let pool = est_bank_with_contaminants(
        &GenePool::paper_default(),
        pool_seed,
        &cfg,
        &contaminants,
        contamination,
    );
    let mut rng = SplitMix(seed ^ 0x5eed_ba7c);
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    let mut fresh = 0;
    for i in 0..n {
        if i > 0 && rng.unit() < REPEAT_SHARE {
            let j = (rng.next_u64() % i as u64) as usize;
            picked.push(picked[j]);
        } else {
            if fresh >= pool.num_sequences() {
                return Err(format!("EST pool of {} too small", pool.num_sequences()));
            }
            picked.push(fresh);
            fresh += 1;
        }
    }
    let mut b = BankBuilder::new();
    for &r in &picked {
        b.push_codes(&pool.record(r).name, pool.sequence(r));
    }
    Ok(b.finish())
}

/// Generates workload `kind` from `seed` into `dir`.
pub fn generate(kind: Kind, seed: u64, tiny: bool, dir: &Path) -> Result<Workload, String> {
    let z = if tiny { &TINY } else { &FULL };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let s = |p: &PathBuf| p.display().to_string();
    let mut w = Workload {
        kind,
        query: dir.join("query.fa"),
        subject: dir.join("subject.fa"),
        db_sources: Vec::new(),
        db_volume_residues: z.db_volume_residues,
        cfg: OrisConfig::default(),
        volume_workers: 1,
        result_cache_mb: 0,
        cli_args: Vec::new(),
    };
    match kind {
        Kind::EstVsEst | Kind::GenomeVsViral => {
            let (q, sb) = if kind == Kind::EstVsEst {
                (
                    bank("EST5", z.est_query, seed),
                    bank("EST7", z.est_subject, seed),
                )
            } else {
                (bank("H19", z.genome, seed), bank("VRL", z.viral, seed))
            };
            write(&q, w.query.clone())?;
            write(&sb, w.subject.clone())?;
            w.cfg.threads = Some(1);
            w.cfg.both_strands = kind == Kind::EstVsEst;
            w.cli_args = vec![s(&w.query), s(&w.subject)];
            if w.cfg.both_strands {
                w.cli_args.push("--both-strands".into());
            }
            w.cli_args.extend(["-t".into(), "1".into()]);
        }
        Kind::DbBatch => {
            for (name, scale) in [("BCT", z.db_bct), ("VRL", z.db_vrl), ("H19", z.db_h19)] {
                let path = dir.join(format!("{}.fa", name.to_ascii_lowercase()));
                w.db_sources.push(write(&bank(name, scale, seed), path)?);
            }
            write(
                &query_batch(z.db_queries, z.db_contamination, seed)?,
                w.query.clone(),
            )?;
            w.cfg.threads = Some(1);
            w.volume_workers = 1;
            w.result_cache_mb = 64;
            w.cli_args = vec![
                "--batch".into(),
                s(&w.query),
                "--workers".into(),
                "1".into(),
                "-t".into(),
                "1".into(),
                "--result-cache".into(),
                "64".into(),
            ];
        }
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(bank("EST1", 0.01, 3), bank("EST1", 0.01, 3));
        assert_ne!(bank("EST1", 0.01, 3), bank("EST1", 0.01, 4));
    }

    #[test]
    fn query_batch_repeats_about_a_quarter() {
        let b = query_batch(400, 0.005, 9).unwrap();
        assert_eq!(b.num_sequences(), 400);
        let mut names: Vec<&str> = b.records().iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let repeats = 400 - names.len();
        assert!((60..140).contains(&repeats), "{repeats} repeats");
    }
}
