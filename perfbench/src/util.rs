//! Small shared pieces: the output digest, order statistics, the metric
//! table, the correctness gate and the `scoris_n` process runner.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte stream, with byte and line counts: the
/// digest every `-m 8` output of a run is compared by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub bytes: u64,
    pub lines: u64,
}

impl Default for Digest {
    fn default() -> Digest {
        Digest {
            hash: FNV_OFFSET,
            bytes: 0,
            lines: 0,
        }
    }
}

impl Digest {
    pub fn update(&mut self, buf: &[u8]) {
        for &b in buf {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.lines += u64::from(b == b'\n');
        }
        self.bytes += buf.len() as u64;
    }

    pub fn of_file(path: &Path) -> io::Result<Digest> {
        let mut f = std::fs::File::open(path)?;
        let mut d = Digest::default();
        let mut buf = vec![0u8; 1 << 16];
        loop {
            let n = f.read(&mut buf)?;
            if n == 0 {
                return Ok(d);
            }
            d.update(&buf[..n]);
        }
    }
}

/// A writer that digests exactly the bytes its inner writer accepted.
pub struct HashWriter<W: Write> {
    inner: W,
    pub digest: Digest,
}

impl<W: Write> HashWriter<W> {
    pub fn new(inner: W) -> HashWriter<W> {
        HashWriter {
            inner,
            digest: Digest::default(),
        }
    }
}

impl<W: Write> Write for HashWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.digest.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Creates `path` behind a buffered, digesting writer.
pub fn create_output(path: &Path) -> Result<HashWriter<io::BufWriter<std::fs::File>>, String> {
    let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(HashWriter::new(io::BufWriter::new(f)))
}

/// Median of `v` (NaN-safe order); 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile: the smallest sample with at least a share `q`
/// of the samples at or below it. With fewer than 100 samples the p99
/// is the maximum.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Named metrics with their units, printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &'static str)> {
        self.0.iter().map(|(k, (_, u))| (k.as_str(), *u))
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit the f64 carries.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Counts the program reports at the step boundaries of one execution.
/// These are deterministic: every repetition over the same inputs must
/// reproduce them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub step2_pairs: u64,
    pub step2_aborted: u64,
    pub step2_below: u64,
    pub step2_kept: u64,
    pub step3_extended: u64,
    pub step3_skipped_contained: u64,
    pub step3_alignments: u64,
    pub step4_emitted: u64,
    pub step4_dropped_by_evalue: u64,
    pub cache_hits: u64,
}

impl Counts {
    pub fn add_pipeline(&mut self, s: &oris_core::PipelineStats) {
        self.step2_pairs += s.step2.pairs_examined;
        self.step2_aborted += s.step2.aborted;
        self.step2_below += s.step2.below_threshold;
        self.step2_kept += s.step2.kept;
        self.step3_extended += s.step3.extended;
        self.step3_skipped_contained += s.step3.skipped_contained;
        self.step3_alignments += s.raw_alignments as u64;
        self.step4_emitted += s.step4.emitted;
        self.step4_dropped_by_evalue += s.step4.dropped_by_evalue;
    }
}

/// What a traced pass observes besides its spans. On the database
/// workload most of it is program-reported.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    pub residues: u64,
    pub query_masked_fraction: f64,
    pub index_bytes: u64,
    pub distinct_codes: u64,
    pub m8_bytes: u64,
    /// Database workload: the sum of per-query `PipelineStats` over
    /// queries that were searched (a query served wholly from the result
    /// cache replays the stats of its first run, so it is left out).
    pub searched: Option<oris_core::PipelineStats>,
    pub attach_secs: f64,
    pub attaches: u64,
    pub volume_searches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// One traced pass: its output digest, counts and observations.
pub struct Traced {
    pub digest: Digest,
    pub counts: Counts,
    pub observed: Observed,
}

/// The correctness gate. Every execution of the workload (a `scoris_n`
/// run, an in-process run, a traced run, a set-up) is one operation;
/// one fails when it errors, when its `-m 8` digest differs from the
/// run's first, or when its deterministic counts differ from the first
/// execution that reported counts.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: Option<Digest>,
    pub counts: Option<Counts>,
}

impl Gate {
    /// Books one operation; an error fails it.
    pub fn op<T>(&mut self, label: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.fail(format!("{label}: {e}"))).ok()
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Checks the output (and, if reported, the counts) of an operation
    /// that [`Gate::op`] booked as successful against the run's first.
    pub fn verify(&mut self, label: &str, digest: Digest, counts: Option<Counts>) {
        let want = *self.digest.get_or_insert(digest);
        if want != digest {
            return self.fail(format!(
                "{label}: output {:016x}/{} records differs from {:016x}/{} records",
                digest.hash, digest.lines, want.hash, want.lines
            ));
        }
        if let Some(c) = counts {
            let want = *self.counts.get_or_insert(c);
            if want != c {
                self.fail(format!("{label}: counts {c:?} differ from {want:?}"));
            }
        }
    }
}

/// Runs `scoris_n` with `args` (its `-m 8` output goes to `out`) and
/// returns its wall time in seconds and the output digest.
pub fn run_cli(bin: &Path, args: &[String], out: &Path) -> Result<(f64, Digest), String> {
    let t0 = Instant::now();
    let res = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let wall = secs(t0);
    if !res.status.success() {
        return Err(format!(
            "scoris_n exited with {}: {}",
            res.status,
            String::from_utf8_lossy(&res.stderr).trim()
        ));
    }
    let d = Digest::of_file(out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok((wall, d))
}
