#!/usr/bin/env python3
"""RAC end-to-end benchmark driver.

One run (the benchmark command; builds the harness first if needed):

    python3 e2ebench/run.py --workload fig3_n100 --seed 42 --seconds 20 \
        --trace 0

  Runs one workload once, checks its outputs, prints a provenance line and
  then, as the last line of stdout, one JSON object with the keys correct,
  attempted, failed and metrics (the end-to-end metrics with --trace 0, the
  per-layer metrics with --trace 1). Exits 1 when a check fails.

A set of runs, and a comparison of two sets:

    python3 e2ebench/run.py set --out A --runs 5 [--seed 42] [--trace]
    python3 e2ebench/run.py compare A B

  `set` runs every workload --runs times (seeds 1..N, or --seed for all),
  appends each result with its provenance to A/results.jsonl, and checks
  that runs of one seed agree on their event and delivery counts. `compare`
  prints, per workload and end-to-end metric, the median and quartiles of
  both sets and checks the change against the bound in BENCHMARK.json; a
  metric whose spread exceeds its bound is reported as unresolved.

The correctness lane (no timing gate; the bench_e2e ctest label):

    python3 e2ebench/run.py smoke --bench .bench_build/rac_bench
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HARNESS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- Build -----------------------------------------------------------------

def build():
    """Configure and build rac_bench from the checkout's sources."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no RAC sources at {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "rac_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise BenchError("build failed: " + " ".join(cmd))
    return build_dir / "rac_bench"


# --- One run ---------------------------------------------------------------

def run_harness(bench, workload, seed, seconds, trace, smoke=False):
    cmd = [str(bench), workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    cmd += ["--trace"] if trace else []
    cmd += ["--smoke"] if smoke else []
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: harness timed out") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: harness exited {proc.returncode}")
    return json.loads(lines[-1])


def check(raw):
    """Correctness checks on one harness result.

    Returns (attempted, failed, problems). DES: one operation per episode;
    an episode fails when it delivers nothing or when its event and
    delivery counts differ from the run's first episode (untraced repeats
    and traced twins alike). Live: one operation per payload sent; a payload
    fails when it was neither delivered nor still queued at a relay when the
    protocol stopped.
    """
    problems = []
    if "nodes" in raw:
        nodes = raw["nodes"]
        sent = sum(n["payloads_sent"] for n in nodes)
        delivered = sum(n["payloads_delivered"] for n in nodes)
        queued = sum(n["queued_relays"] for n in nodes)
        failed = max(0, sent - delivered - queued)
        for i, n in enumerate(nodes):
            if not n["ok"]:
                problems.append(f"node {i}: {n['error']}")
            if n["disconnects"]:
                problems.append(f"node {i}: {n['disconnects']} disconnects")
        if not all(m["ok"] for m in raw["setup_meshes"]):
            problems.append("a set-up mesh failed")
        if sent == 0 or delivered < 0.99 * sent:
            problems.append(f"delivered {delivered} of {sent} payloads")
        if failed:
            problems.append(f"{failed} payloads lost")
        return max(sent, 1), failed, problems

    episodes = raw["episodes"]
    first = episodes[0]
    failed = 0
    for i, e in enumerate(episodes):
        bad = []
        if e["delivered"] <= 0:
            bad.append("delivered no payload")
        counts = (e["events"], e["delivered"])
        first_counts = (first["events"], first["delivered"])
        if counts != first_counts:
            bad.append(f"{counts[0]} events / {counts[1]} delivered, first "
                       f"episode {first_counts[0]} / {first_counts[1]}")
        if bad:
            failed += 1
            problems.append(f"episode {i} ({e['kind']}): " + "; ".join(bad))
    return len(episodes), failed, problems


def source_hash():
    """SHA-256 over the program and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or None


def provenance(raw):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_hash(),
        "build_type": raw["build_type"],
        "rac_telemetry": "ON" if raw["telemetry"] else "OFF",
        "compiler": raw["compiler"],
        "nproc": os.cpu_count(),
        "hw_threads": raw["hw_threads"],
        "workload": raw["workload"],
        "seed": raw["seed"],
        "config": raw["config"],
        "config_hash": raw["config_hash"],
    }


def result(raw, trace):
    """The benchmark's result object for one checked harness run."""
    attempted, failed, problems = check(raw)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    measured = dict(raw.get("layers" if trace else "metrics", {}))
    unknown = sorted(set(measured) - {m["name"] for m in spec})
    if unknown:
        problems.append("metrics not in BENCHMARK.json: " + ", ".join(unknown))
    if trace:
        # A layer the workload does not exercise reads 0: live_n3 has no
        # twin, unsharded runs have no shards, the DES has no live transport.
        for m in spec:
            measured.setdefault(m["name"], 0.0)
    else:
        missing = [m["name"] for m in spec if m["name"] not in measured]
        if missing:
            problems.append("metrics missing: " + ", ".join(missing))
        problems += [f"{m['name']} reads {measured[m['name']]}"
                     for m in spec
                     if m["name"] in measured and not measured[m["name"]] > 0]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in spec if m["name"] in measured}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, problems


def cmd_run(args):
    bench = build()
    raw = run_harness(bench, args.workload, args.seed, args.seconds,
                      args.trace == 1)
    res, problems = result(raw, args.trace == 1)
    for p in problems:
        log(f"check failed: {p}")
    print("provenance " + json.dumps(provenance(raw)))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


# --- Sets and comparisons --------------------------------------------------

def cmd_set(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bench = build()
    ok = True
    counts = {}
    with open(out / "results.jsonl", "a") as f:
        for i in range(args.runs):
            seed = args.seed if args.seed is not None else i + 1
            for w in WORKLOADS:
                raw = run_harness(bench, w, seed, args.seconds, args.trace)
                res, problems = result(raw, args.trace)
                key = (w, seed)
                if "episodes" in raw:
                    e = raw["episodes"][0]
                    got = (e["events"], e["delivered"])
                    if counts.setdefault(key, got) != got:
                        problems.append(f"counts {got} differ from an earlier "
                                        f"run of seed {seed}: {counts[key]}")
                        res["correct"] = False
                ok = ok and res["correct"]
                for p in problems:
                    log(f"{w} seed {seed}: check failed: {p}")
                row = {"workload": w, "seed": seed, "trace": args.trace,
                       "provenance": provenance(raw), **res}
                f.write(json.dumps(row) + "\n")
                f.flush()
                values = (f"{k}={v['value']:.6g}"
                          for k, v in res["metrics"].items())
                log(f"{w} seed {seed}: " + ", ".join(values))
    return 0 if ok else 1


def load_set(path):
    path = Path(path)
    if path.is_dir():
        path = path / "results.jsonl"
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(rows, workload, metric):
    """The untraced values of one metric on one workload in a set."""
    return [r["metrics"][metric]["value"] for r in rows
            if r["workload"] == workload and not r["trace"]
            and metric in r["metrics"]]


def fmt_quartiles(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def cmd_compare(args):
    a_set, b_set = load_set(args.a), load_set(args.b)
    regressed = False
    print(f"{'workload':<16} {'metric':<22} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for w in WORKLOADS:
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = (values_of(rows, w, name) for rows in (a_set, b_set))
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            lower = m["better"] == "lower"
            worse = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if spread > bound:
                verdict = "better" if all_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                regressed = True
            else:
                verdict = "ok"
            print(f"{w:<16} {name:<22} {fmt_quartiles(qa):>34} "
                  f"{fmt_quartiles(qb):>34} "
                  f"{100 * worse:>+7.1f}% {100 * bound:>5.0f}%  {verdict}")
    return 1 if regressed else 0


# --- Correctness lane ------------------------------------------------------

def cmd_smoke(args):
    failures = 0
    for w in WORKLOADS:
        # live_n3 has no twin: one run covers both result shapes.
        modes = [True] if w == "live_n3" else [False, True]
        for trace in modes:
            seconds = 1 if w == "live_n3" else 0
            try:
                raw = run_harness(args.bench, w, 42, seconds, trace,
                                  smoke=True)
                res, problems = result(raw, trace)
            except BenchError as e:
                res, problems = {"correct": False}, [str(e)]
            status = "ok" if res["correct"] else "FAILED"
            print(f"{w:<16} {'traced' if trace else 'untraced':<9} {status}")
            for p in problems:
                print(f"    {p}")
            failures += 0 if res["correct"] else 1
    return 1 if failures else 0


def main(argv):
    if argv and argv[0] in ("set", "compare", "smoke"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "set":
            p.add_argument("--out", required=True)
            p.add_argument("--runs", type=int, default=5)
            p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
            p.add_argument("--seed", type=int)
            p.add_argument("--trace", action="store_true")
            cmd = cmd_set
        elif argv[0] == "compare":
            p.add_argument("a")
            p.add_argument("b")
            cmd = cmd_compare
        else:
            p.add_argument("--bench", required=True)
            cmd = cmd_smoke
        args = p.parse_args(argv[1:])
    else:
        p = argparse.ArgumentParser(prog="run.py")
        p.add_argument("--workload", required=True, choices=WORKLOADS)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = p.parse_args(argv)
        cmd = cmd_run
    try:
        return cmd(args)
    except BenchError as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
