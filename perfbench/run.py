#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ORIS workspace.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, both modes
    python3 perfbench/run.py ... --tiny                # self-test sizes

The script builds the `scoris_n` binary and the `oris-perfbench` harness
from source (into $CARGO_TARGET_DIR, default `.bench_build`), runs one
measurement and prints a metric table on stderr. The last line of stdout
is one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
`end_to_end` metrics of BENCHMARK.json with `--trace 0`, its `per_layer`
metrics with `--trace 1`. The full result, with a host block (nproc, CPU
model, source ref), the settings, every metric and the gate's failures,
is written to `.bench_work/results/`; traced runs also leave their spans
as JSON lines in `.bench_work/<workload>-<seed>/trace.jsonl`.

Workloads (inputs generated from --seed by oris-simulate; see
BENCHMARK.json for why each exists):

  est_vs_est       EST5-like vs EST7-like banks, --both-strands -t 1
  genome_vs_viral  H19-like chromosomes vs VRL-like viral bank, -t 1
  db_batch         2000 single-EST queries (a quarter repeat an earlier one)
                   against a makedb database of BCT+VRL+H19-like banks,
                   --workers 1 -t 1 --result-cache 64, closed loop, one client

Every workload runs single-threaded: on a 2-vCPU shared host the second
core's availability drifts, which made two-thread wall times too unsteady
to bound (see perfbench/src/workload.rs).

End-to-end metrics (tracing off): `wall_s` is the median wall time of the
workload's `scoris_n` command; `setup_s` the median time to make the
subject searchable (`Session::new`, or `make_db` + `Database::open` +
`DbSession::new`); `peak_heap_mb` the median peak live heap of an
in-process run of the same work, set-up included; `queries_per_s`,
`query_p50_ms` and `query_p99_ms` describe queries of the in-process run.
On db_batch a query is one EST through `DbSession::run_query_into`; the
percentiles are taken per pass of 2000 queries (20 beyond the p99) and
their median over the run's passes reported. On the other two a query is
the whole query bank through `Session::run`: the percentiles are over the
run's 10-20 bank comparisons (the p99 is the slowest), and
`queries_per_s` counts query sequences over the whole in-process run
(parse, set-up, search, write), so it is not the reciprocal of the p50.
`failed_ratio` (failed / attempted) is printed and recorded, not a
BENCHMARK.json metric, because it is 0 on a passing run.

Per-layer metrics (traced run): layer self times (span minus child spans)
and counts at each crate boundary; on db_batch the steps inside a query
are program-reported (`PipelineStats`, `SearchReport`, `CacheCounters`),
query step 1 is probed by calling the same mask and index functions per
query, and `db.*` metrics are 0 on the two workloads that bypass the
database layer. `trace.remainder_s` is `scoris_n` wall time minus the
summed layer self times, the latter scaled by the untraced over the traced
in-process wall time so both sides are on the untraced clock: process
start-up and CLI work no span covers.

Correctness gate: every execution's `-m 8` digest must match the others
of the run (command, untraced and traced runs), deterministic counts must
repeat exactly, and on the default seed the digest and record count must
equal the ones pinned in perfbench/pinned.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
WORKLOADS = ["est_vs_est", "genome_vs_viral", "db_batch"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    """Builds scoris_n (repository workspace) and the harness (its own)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "oris-cli", "--bin", "scoris_n"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "scoris_n"), os.path.join(rel, "oris-perfbench")


def host_block():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ref = None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            ref = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_ref": ref,
            "source_digest": source_digest()}


SOURCE_TOPS = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]
SOURCE_EXTS = (".rs", ".toml", ".lock", ".py", ".json")


def source_digest(root=ROOT):
    """sha256 over the source files measured: identifies the code when the
    checkout is not a git repository. Build output (`target`, hidden
    directories such as `.bench_build`) and caches are left out, so a
    rebuild does not change it."""
    h = hashlib.sha256()
    for top in SOURCE_TOPS:
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, fs in os.walk(path):
                dirs[:] = [x for x in dirs
                           if x not in ("target", "__pycache__") and not x.startswith(".")]
                files += [os.path.join(d, f) for f in fs if f.endswith(SOURCE_EXTS)]
        for p in sorted(files):
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_one(harness, scoris_n, workload, seed, seconds, trace, tiny):
    cmd = [harness, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scoris-n", scoris_n,
           "--work", os.path.join(ROOT, ".bench_work")]
    if tiny:
        cmd.append("--tiny")
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                       timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        raise SystemExit(f"harness failed with exit code {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def pin_check(res, seed, tiny):
    """On the default seed, the output must equal the one pinned in
    pinned.json (edited by hand, in the same change, when a workload's
    inputs change)."""
    if seed != DEFAULT_SEED:
        return
    with open(os.path.join(HERE, "pinned.json")) as f:
        pins = json.load(f)
    got = {"digest": res["digest"], "records": res["records"]}
    want = pins["tiny" if tiny else "full"].get(res["workload"])
    res["pinned"] = want
    res["attempted"] += 1
    if got != want:
        res["failed"] += 1
        res["failures"].append(f"default-seed output {got} differs from pinned {want}")


def report(res, spec, host):
    """Prints the metric table, writes the result file, returns the
    contract's metrics."""
    attempted, failed = res["attempted"], res["failed"]
    res["failed_ratio"] = failed / attempted if attempted else 1.0
    res["host"] = host
    mode = "per-layer (traced)" if res["trace"] else "end-to-end (untraced)"
    log(f"== {res['workload']} seed {res['seed']}: {mode}  [{res['settings']['cli']}]")
    log(f"   host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
        f"ref={host['git_ref'] or 'n/a'} src={host['source_digest']}")
    for name, m in sorted(res["metrics"].items()):
        log(f"   {name:32s} {m['value']:>16.6g} {m['unit']}")
    log(f"   {'failed_ratio':32s} {res['failed_ratio']:>16.6g} fraction"
        f"  ({failed}/{attempted} operations)")
    for why in res["failures"]:
        log(f"   FAILED: {why}")
    out = {}
    for m in spec["per_layer"] if res["trace"] else spec["end_to_end"]:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise SystemExit(f"metric {m['name']} missing or not in {m['unit']}: {got}")
        out[m["name"]] = got
    rdir = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(rdir, exist_ok=True)
    name = f"{res['workload']}-seed{res['seed']}-trace{res['trace']}{'-tiny' if res['tiny'] else ''}.json"
    with open(os.path.join(rdir, name), "w") as f:
        json.dump(res, f, indent=1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise SystemExit("no Cargo.toml at the checkout root: nothing to build")
    scoris_n, harness = build()
    host = host_block()
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if a.workload == "all"
            else [(a.workload, a.trace)])
    attempted = failed = 0
    metrics = {}
    t0 = time.time()
    for workload, trace in runs:
        res = run_one(harness, scoris_n, workload, a.seed, seconds, trace, a.tiny)
        pin_check(res, a.seed, a.tiny)
        out = report(res, spec, host)
        attempted += res["attempted"]
        failed += res["failed"]
        if a.workload == "all":
            out = {f"{workload}.{k}": v for k, v in out.items()}
        metrics.update(out)
    log(f"   ({time.time() - t0:.1f} s)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
