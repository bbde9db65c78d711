#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload or all four.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25

With one workload, the last line of standard output is the run's result:
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics and ``--trace 1``
the per-layer ones. With ``all``, each workload's block is printed in turn,
then a table of every metric by workload.

The build goes to ``$CARGO_TARGET_DIR`` (default ``.bench_build``) and
needs the repository's crates beside this directory; without them the
build fails and the script exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["certify", "wire-lossy", "serve-zipf", "mutate"]


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr, so the last stdout line stays
    # the result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "mstv-perfbench")


def revision():
    """The git revision, or a hash of the sources outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True,
        )
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(base)
            if "target" not in os.path.relpath(d, base).split(os.sep)
            for f in files
            if f.endswith((".rs", ".toml", ".lock", ".py"))
        )
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def declared(trace):
    """Metric names BENCHMARK.json declares for this mode, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, args, rev):
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--revision", rev,
    ]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stdout.write(r.stdout)
        sys.exit(f"perfbench: {workload} exited with {r.returncode}")
    lines = r.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    want = declared(args.trace == 1)
    if want is not None and set(result["metrics"]) != want:
        sys.exit(
            f"perfbench: {workload} reported {sorted(result['metrics'])}, "
            f"BENCHMARK.json declares {sorted(want)}"
        )
    print("\n".join(lines))
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    binary = build()
    rev = revision()
    if args.workload != "all":
        run_one(binary, args.workload, args, rev)
        return
    results = {}
    for w in WORKLOADS:
        print(f"## {w}")
        results[w] = run_one(binary, w, args, rev)
    names = list(next(iter(results.values()))["metrics"])
    print(f"\n{'metric':<30}" + "".join(f"{w:>16}" for w in WORKLOADS) + "  unit")
    for n in names:
        cells = "".join(f"{results[w]['metrics'][n]['value']:>16.6g}" for w in WORKLOADS)
        print(f"{n:<30}{cells}  {results[WORKLOADS[0]]['metrics'][n]['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


if __name__ == "__main__":
    main()
