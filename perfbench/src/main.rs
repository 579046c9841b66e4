//! `oris-perfbench` — one run of one benchmark workload.
//!
//! ```text
//! oris-perfbench --workload <est_vs_est|genome_vs_viral|db_batch> --seed N
//!                --seconds S --trace <0|1> --scoris-n PATH --work DIR [--tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: the
//! workload's `scoris_n` command and an untraced in-process run that
//! calls the same public entry points the command uses, plus a set-up of
//! the subject alone, in rounds until `S` seconds have passed (at least
//! three rounds). `--trace 1` measures the per-layer metrics from
//! traced passes, alternated with untraced passes (the tracing overhead)
//! and `scoris_n` runs (the wall time the layers leave unaccounted).
//!
//! Every execution is checked: `-m 8` digests must agree across the
//! command, the untraced and the traced runs, and the deterministic
//! counts must repeat exactly. The last stdout line is one JSON object
//! with the metrics, the gate's tally and the output digest.

mod db;
mod plain;
mod trace;
mod util;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use oris_bench::CountingAlloc;

use trace::{self_times, Span, Tracer};
use util::{median, quantile, run_cli, secs, Counts, Gate, Metrics, Observed};
use workload::{Kind, Workload};

#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc::new();

/// Minimum measured rounds, however short `--seconds`.
const MIN_REPS: usize = 3;
/// Minimum traced passes per per-layer run.
const MIN_TRACED_PASSES: usize = 2;

struct Args {
    name: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scoris_n: PathBuf,
    work: PathBuf,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let name = get("--workload")?.to_string();
    let kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    Ok(Args {
        name,
        kind,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace,
        scoris_n: PathBuf::from(get("--scoris-n")?),
        work: PathBuf::from(get("--work")?),
        tiny: argv.iter().any(|a| a == "--tiny"),
    })
}

/// Output files of one run.
struct Files {
    dir: PathBuf,
    cli: PathBuf,
    inproc: PathBuf,
    traced: PathBuf,
}

impl Files {
    fn new(dir: &Path) -> Files {
        Files {
            dir: dir.to_path_buf(),
            cli: dir.join("cli.m8"),
            inproc: dir.join("inproc.m8"),
            traced: dir.join("traced.m8"),
        }
    }

    fn db(&self) -> PathBuf {
        self.dir.join("db-main")
    }

    /// Removes the run's inputs, databases and outputs (a database run
    /// leaves hundreds of MB); the spans stay. Best effort.
    fn clean(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for p in entries.flatten().map(|e| e.path()) {
            if p.is_dir() {
                let _ = std::fs::remove_dir_all(&p);
            } else if p.extension().is_some_and(|x| x == "m8") {
                let _ = std::fs::remove_file(&p);
            }
        }
    }
}

fn cli_args(w: &Workload, f: &Files) -> Vec<String> {
    let mut a = w.cli_args.clone();
    if w.kind == Kind::DbBatch {
        a.extend(["--db".into(), f.db().display().to_string()]);
    }
    a.extend(["-o".into(), f.cli.display().to_string()]);
    a
}

/// One `scoris_n` execution, booked in the gate.
fn cli(a: &Args, w: &Workload, f: &Files, gate: &mut Gate) -> Option<f64> {
    let (wall, d) = gate.op("scoris_n", run_cli(&a.scoris_n, &cli_args(w, f), &f.cli))?;
    gate.verify("scoris_n", d, None);
    Some(wall)
}

/// The end-to-end run: each round sets the subject up once, runs the
/// `scoris_n` command once and the in-process run once, so every metric
/// samples the whole measuring window (the host's speed drifts over
/// seconds; interleaving keeps that drift out of the comparisons).
fn end_to_end(
    a: &Args,
    w: &Workload,
    f: &Files,
    gate: &mut Gate,
    m: &mut Metrics,
) -> Result<(), String> {
    let t0 = Instant::now();
    let (mut setups, mut walls, mut heaps, mut qps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Per-query latencies or, on db_batch, each pass's p50 and p99: a
    // stolen core stalls a few passes' queries, and the median over
    // passes keeps those out of the reported tail. On the whole-bank
    // workloads one query is the whole bank (`Session::run`), so their
    // p99, over fewer than 100 samples, is the slowest of the run.
    let (mut lat, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let src = match w.kind {
        Kind::DbBatch => {
            let src = db::Sources::load(w)?;
            db::ensure_built(w, &src, &f.db())?;
            Some(src)
        }
        _ => None,
    };
    let subject = match w.kind {
        Kind::DbBatch => None,
        _ => Some(oris_seqio::read_fasta_file(&w.subject).map_err(|e| e.to_string())?),
    };
    while walls.len() < MIN_REPS || secs(t0) < a.seconds {
        let setup = match (&src, &subject) {
            (Some(src), _) => db::setup(w, src, &f.dir.join("db-setup")),
            (_, Some(subject)) => plain::setup(subject, &w.cfg),
            _ => unreachable!("every workload has a subject or a database"),
        };
        setups.extend(gate.op("setup", setup));
        walls.extend(cli(a, w, f, gate));
        if src.is_some() {
            if let Some(u) = gate.op("in-process", db::untraced(w, &f.db(), &f.inproc)) {
                gate.verify("in-process", u.digest, Some(u.counts));
                heaps.push(u.peak_heap as f64);
                qps.push(u.latencies.len() as f64 / u.serve);
                p50s.push(quantile(&u.latencies, 0.5));
                p99s.push(quantile(&u.latencies, 0.99));
                lat.extend(u.latencies);
            }
        } else if let Some(u) = gate.op("in-process", plain::untraced(w, &f.inproc)) {
            gate.verify("in-process", u.digest, Some(u.counts));
            heaps.push(u.peak_heap as f64);
            // Query sequences over the whole in-process run (parse,
            // set-up, search, write): the latencies below time
            // `Session::run` alone, so the two do not mirror each other.
            qps.push(u.queries as f64 / u.wall);
            lat.push(u.query);
        }
        if gate.failed > 0 {
            break;
        }
    }
    m.set("wall_s", median(&walls), "s");
    m.set("setup_s", median(&setups), "s");
    m.set("peak_heap_mb", median(&heaps) / 1e6, "MB");
    m.set("queries_per_s", median(&qps), "1/s");
    let (p50, p99) = if src.is_some() {
        (median(&p50s), median(&p99s))
    } else {
        (quantile(&lat, 0.5), quantile(&lat, 0.99))
    };
    m.set("query_p50_ms", p50 * 1e3, "ms");
    m.set("query_p99_ms", p99 * 1e3, "ms");
    m.set("samples.wall", walls.len() as f64, "count");
    m.set("samples.query", lat.len() as f64, "count");
    m.set("samples.setup", setups.len() as f64, "count");
    Ok(())
}

/// Per-layer metrics of one traced pass (`probe`: the database
/// workload's step-1 spans).
fn layer_metrics(spans: &[Span], probe: &[Span], counts: &Counts, o: &Observed) -> Metrics {
    let mut out = Metrics::default();
    let st = self_times(spans);
    let pt = self_times(probe);
    let s = |n: &str| st.get(n).copied().unwrap_or(0.0);
    // Step-1 layers: traced directly on whole-bank workloads; on the
    // database workload through the per-query probe.
    let step1 = |n: &str| s(n) + pt.get(n).copied().unwrap_or(0.0);
    out.set("seqio.parse_s", s("seqio.parse"), "s");
    out.set("seqio.residues", o.residues as f64, "count");
    out.set("dust.mask_s", step1("dust.mask"), "s");
    out.set("dust.masked_fraction", o.query_masked_fraction, "fraction");
    out.set("index.build_s", step1("index.build"), "s");
    out.set("index.bytes", o.index_bytes as f64, "bytes");
    out.set("index.distinct_codes", o.distinct_codes as f64, "count");
    out.set("eval.m8_write_s", s("eval.m8_write"), "s");
    out.set("eval.m8_bytes", o.m8_bytes as f64, "bytes");
    let (c, step2_s, step3_s) = match &o.searched {
        // Program-reported on the database workload, over searched
        // (not cache-served) queries; its boundary sort is traced.
        Some(p) => {
            let mut c = Counts::default();
            c.add_pipeline(p);
            out.set("core.step4_s", p.step4_secs + s("core.step4"), "s");
            (c, p.step2_secs, p.step3_secs)
        }
        None => {
            out.set("core.step4_s", s("core.step4"), "s");
            (*counts, s("core.step2"), s("core.step3"))
        }
    };
    let ratio = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    out.set("core.step2_s", step2_s, "s");
    out.set("core.step2_pairs", c.step2_pairs as f64, "count");
    out.set("core.step2_aborted", c.step2_aborted as f64, "count");
    out.set("core.step2_below", c.step2_below as f64, "count");
    out.set("core.step2_kept", c.step2_kept as f64, "count");
    out.set(
        "core.step2_ns_per_pair",
        ratio(step2_s * 1e9, c.step2_pairs),
        "ns",
    );
    out.set(
        "core.step2_abort_ratio",
        ratio(c.step2_aborted as f64, c.step2_pairs),
        "fraction",
    );
    out.set(
        "core.step2_kept_ratio",
        ratio(c.step2_kept as f64, c.step2_pairs),
        "fraction",
    );
    out.set("core.step3_s", step3_s, "s");
    out.set("core.step3_extended", c.step3_extended as f64, "count");
    out.set(
        "core.step3_skipped_contained",
        c.step3_skipped_contained as f64,
        "count",
    );
    out.set("core.step3_alignments", c.step3_alignments as f64, "count");
    out.set(
        "core.step3_us_per_extension",
        ratio(step3_s * 1e6, c.step3_extended),
        "us",
    );
    out.set("core.step4_emitted", c.step4_emitted as f64, "count");
    out.set(
        "core.step4_dropped_by_evalue",
        c.step4_dropped_by_evalue as f64,
        "count",
    );

    // The database layer: zero on the whole-bank workloads, which
    // bypass it.
    let dq: Vec<f64> = spans
        .iter()
        .filter(|x| x.name == "db.query")
        .map(Span::secs)
        .collect();
    out.set("db.makedb_s", s("db.makedb"), "s");
    out.set("db.open_s", s("db.open") + s("db.session_new"), "s");
    out.set("db.attach_s", o.attach_secs, "s");
    out.set("db.attaches", o.attaches as f64, "count");
    out.set("db.query_p50_ms", quantile(&dq, 0.5) * 1e3, "ms");
    out.set("db.query_p99_ms", quantile(&dq, 0.99) * 1e3, "ms");
    out.set("db.volume_searches", o.volume_searches as f64, "count");
    out.set("db.cache_hits", o.cache_hits as f64, "count");
    out.set("db.cache_misses", o.cache_misses as f64, "count");
    let lookups = o.cache_hits + o.cache_misses;
    out.set(
        "db.cache_hit_ratio",
        ratio(o.cache_hits as f64, lookups),
        "fraction",
    );
    out
}

/// Layer self time summed over every span of the serving path: what the
/// traced layers account for of the command's wall time, on the traced
/// clock.
fn accounted_secs(spans: &[Span]) -> f64 {
    self_times(spans)
        .into_iter()
        .filter(|(n, _)| !matches!(*n, "run" | "build" | "db.makedb"))
        .map(|(_, v)| v)
        .sum()
}

/// The traced self times `accounted` put on the untraced clock: scaled
/// by the untraced over the traced wall time of the same work, so the
/// spans' own cost is not booked as layer time.
fn untraced_share(accounted: f64, traced_wall: f64, untraced_wall: f64) -> f64 {
    if traced_wall > 0.0 {
        accounted * untraced_wall / traced_wall
    } else {
        0.0
    }
}

fn layers(
    a: &Args,
    w: &Workload,
    f: &Files,
    gate: &mut Gate,
    m: &mut Metrics,
) -> Result<(), String> {
    let t0 = Instant::now();
    let src = match w.kind {
        Kind::DbBatch => {
            let src = db::Sources::load(w)?;
            db::ensure_built(w, &src, &f.db())?;
            Some(src)
        }
        _ => None,
    };
    let mut cli_walls = Vec::new();
    let mut passes: Vec<Metrics> = Vec::new();
    let mut jsonl = String::new();
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    // Per pass: layer self time on the untraced clock, and the command's
    // wall time minus it (paired within the pass, so the host's drift
    // between passes cancels).
    let (mut accounted, mut remainders) = (Vec::new(), Vec::new());
    let (mut probe, mut index) = (Vec::new(), (0, 0));
    if w.kind == Kind::DbBatch {
        // Step 1 of the queries, probed layer by layer once per run.
        let tr = Tracer::new(Instant::now());
        index = gate
            .op("probe", db::probe_step1(w, &tr))
            .unwrap_or_default();
        probe = tr.into_spans();
        trace::to_jsonl(0, &probe, &mut jsonl);
    }
    while passes.len() < MIN_TRACED_PASSES || secs(t0) < a.seconds {
        let tr = Tracer::new(Instant::now());
        let traced = match &src {
            Some(src) => db::traced(w, src, &f.db(), &f.traced, &tr),
            None => plain::traced(w, &f.traced, &tr),
        };
        let Some(mut t) = gate.op("traced", traced) else {
            break;
        };
        gate.verify("traced", t.digest, Some(t.counts));
        if w.kind == Kind::DbBatch {
            (t.observed.index_bytes, t.observed.distinct_codes) = index;
        }
        let spans = tr.into_spans();
        passes.push(layer_metrics(&spans, &probe, &t.counts, &t.observed));
        let traced_wall: f64 = spans
            .iter()
            .filter(|s| s.name == "run")
            .map(Span::secs)
            .sum();
        traced_walls.push(traced_wall);
        trace::to_jsonl(passes.len(), &spans, &mut jsonl);
        let untraced = match w.kind {
            Kind::DbBatch => gate
                .op("in-process", db::untraced(w, &f.db(), &f.inproc))
                .map(|u| (u.wall, u.digest, u.counts)),
            _ => gate
                .op("in-process", plain::untraced(w, &f.inproc))
                .map(|u| (u.wall, u.digest, u.counts)),
        };
        let Some((wall, digest, counts)) = untraced else {
            break;
        };
        gate.verify("in-process", digest, Some(counts));
        untraced_walls.push(wall);
        let layer_secs = untraced_share(accounted_secs(&spans), traced_wall, wall);
        accounted.push(layer_secs);
        if let Some(cli_wall) = cli(a, w, f, gate) {
            cli_walls.push(cli_wall);
            remainders.push(cli_wall - layer_secs);
        }
        if gate.failed > 0 {
            break;
        }
    }
    if passes.is_empty() {
        // Every traced pass failed: report zeros, the gate says why.
        passes.push(layer_metrics(
            &[],
            &[],
            &Counts::default(),
            &Observed::default(),
        ));
    }
    let spans_file = f.dir.join("trace.jsonl");
    std::fs::write(&spans_file, jsonl).map_err(|e| format!("{}: {e}", spans_file.display()))?;
    // Median of every per-pass metric.
    let names: Vec<(String, &'static str)> = passes
        .first()
        .map(|p| p.iter().map(|(k, u)| (k.to_string(), u)).collect())
        .unwrap_or_default();
    for (name, unit) in names {
        let vals: Vec<f64> = passes.iter().filter_map(|p| p.get(&name)).collect();
        m.set(&name, median(&vals), unit);
    }
    m.set(
        "trace.overhead_ratio",
        median(&traced_walls) / median(&untraced_walls),
        "ratio",
    );
    m.set("trace.remainder_s", median(&remainders), "s");
    // The remainder's terms, for the result file.
    m.set("trace.cli_wall_s", median(&cli_walls), "s");
    m.set("trace.untraced_wall_s", median(&untraced_walls), "s");
    m.set("trace.accounted_s", median(&accounted), "s");
    m.set("trace.passes", passes.len() as f64, "count");
    Ok(())
}

fn run() -> Result<String, String> {
    let a = parse_args()?;
    let dir = a.work.join(format!(
        "{}-{}{}",
        a.name,
        a.seed,
        if a.tiny { "-tiny" } else { "" }
    ));
    let w = workload::generate(a.kind, a.seed, a.tiny, &dir.join("in"))?;
    let f = Files::new(&dir);
    let mut gate = Gate::default();
    let mut m = Metrics::default();
    let measured = if a.trace {
        layers(&a, &w, &f, &mut gate, &mut m)
    } else {
        end_to_end(&a, &w, &f, &mut gate, &mut m)
    };
    f.clean();
    measured?;
    let d = gate.digest.unwrap_or_default();
    let failures: Vec<String> = gate
        .failures
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    Ok(format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"tiny\": {}, \
         \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \
         \"digest\": \"{:016x}\", \"records\": {}, \
         \"settings\": {{\"threads\": {}, \"volume_workers\": {}, \"both_strands\": {}, \
         \"cli\": \"scoris_n {}\"}}, \"metrics\": {}}}",
        a.name,
        a.seed,
        u8::from(a.trace),
        a.tiny,
        gate.attempted,
        gate.failed,
        failures.join(", "),
        d.hash,
        d.lines,
        w.cfg.threads.unwrap_or(0),
        w.volume_workers,
        w.cfg.both_strands,
        cli_args(&w, &f).join(" "),
        m.to_json(),
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("oris-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::untraced_share;

    #[test]
    fn accounted_time_is_put_on_the_untraced_clock() {
        // Tracing made the pass 25 % slower: 1.0 s of traced self time
        // stands for 0.8 s of untraced work.
        assert!((untraced_share(1.0, 2.5, 2.0) - 0.8).abs() < 1e-12);
        assert_eq!(untraced_share(1.0, 0.0, 2.0), 0.0);
    }
}
