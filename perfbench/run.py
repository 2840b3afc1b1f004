#!/usr/bin/env python3
"""Simulator benchmark: builds the harness from source, runs one workload and
prints its metrics, with the last line of stdout one JSON object.

  python3 perfbench/run.py --workload dse-analytic --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload fuzz-diff --seed 1 --seconds 20 --trace 1
  python3 perfbench/run.py --self-test

Run from the repository root. --trace 0 reports the end-to-end metrics
listed in BENCHMARK.json, --trace 1 the per-layer ones. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). See
perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Default seed and a held-out seed per workload; the held-out seed is kept
# for checking a claimed gain on inputs not used while making it.
SEEDS = {
    "dse-analytic": {"default": 1, "held_out": 9001},
    "cosim-node": {"default": 1, "held_out": 9001},
    "fuzz-diff": {"default": 1, "held_out": 9001},
}

# Each selects a different simulator path when set; numbers taken under
# any of them describe another program.
LATCHED_ENV = (
    "ULP_REFERENCE_STEPPING",
    "ULP_BLOCK_CACHE",
    "ULP_MC_WINDOWS",
    "ULP_INJECT_HWLOOP_BUG",
    "ULP_INJECT_SNAPSHOT_BUG",
)

SETUP_LAUNCHES = 15  # Set-up is timed this many times per run; median kept.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds a Release harness; returns its path."""
    if not (ROOT / "src" / "batch" / "engine.hpp").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    cmds = [
        ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(bdir), "-j", "2", "--target", "perfbench_harness"],
    ]
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return bdir / "perfbench_harness"


def run_harness(harness, args, env=None):
    proc = subprocess.run([str(harness)] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"harness exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_provenance(harness):
    for var in LATCHED_ENV:
        if var in os.environ:
            raise BenchError(f"refusing to measure with {var} set")
    info = run_harness(harness, ["--build-info"])
    if info["build_type"] != "Release" or info["asserts"] != "off":
        raise BenchError(f"refusing to measure a non-Release build: {info}")
    return info


def setup_time(harness, args):
    """Set-up time of one launch: process start to first job issued. The
    harness stamps the same monotonic clock when it issues the first job."""
    t0 = time.monotonic()
    return run_harness(harness, args + ["--probe"])["first_issue_s"] - t0


def check_determinism(harness, result, key):
    """Fails when the aggregate digest or an exact counter differs from an
    earlier run of the same harness binary on the same workload and seed."""
    key = hashlib.sha256(harness.read_bytes()).hexdigest()[:16] + ":" + key
    path = build_dir() / "determinism.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    old = record.get(key)
    if old is not None:
        if old["digest"] != result["digest"]:
            raise BenchError(f"{key}: aggregate digest {result['digest']} "
                             f"differs from an earlier run's {old['digest']}")
        for name, value in result["counts"].items():
            if name in old["counts"] and old["counts"][name] != value:
                raise BenchError(f"{key}: exact counter {name} = {value} differs "
                                 f"from an earlier run's {old['counts'][name]}")
        old["counts"].update(result["counts"])
    else:
        record[key] = {"digest": result["digest"], "counts": result["counts"]}
    path.write_text(json.dumps(record, indent=1, sort_keys=True))


def measure(harness, spec, workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns the final result object."""
    common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    setups = [setup_time(harness, common) for _ in range(SETUP_LAUNCHES)]
    result = run_harness(harness, common + [
        "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(out_dir)])
    if result["errors"]:
        raise BenchError("; ".join(result["errors"]))
    check_determinism(harness, result, f"{workload}:{seed}:{'tiny' if tiny else 'full'}")

    values = dict(result["metrics"], setup_s=statistics.median(setups))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} missing from the harness output")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    prov = dict(result["provenance"], workload=workload, seed=seed,
                default_seed=SEEDS[workload]["default"],
                held_out_seed=SEEDS[workload]["held_out"])
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"digest: {result['digest']}  passes: {result['passes']}  "
          f"job latency samples: {result['job_samples']}  "
          f"fail_ratio: {values['fail_ratio']} "
          f"({result['failed']}/{result['attempted']})")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def self_test(harness, spec):
    """Tiny sizes: every metric prints with its unit, the harness's own
    checks hold (traced results equal untraced ones byte for byte, self
    times within the traced wall, cycle and lookup conservation), and a
    latched environment variable is refused."""
    for workload in SEEDS:
        for trace in (0, 1):
            res = measure(harness, spec, workload, SEEDS[workload]["default"],
                          1, trace, tiny=True)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            assert set(res["metrics"]) == {m["name"] for m in wanted}
            for m in wanted:
                got = res["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
            assert res["correct"] and res["failed"] == 0, res
    env = dict(os.environ, ULP_BLOCK_CACHE="0")
    proc = subprocess.run([str(harness), "--workload", "fuzz-diff", "--probe"],
                          env=env, capture_output=True)
    assert proc.returncode != 0, "a latched environment variable was not refused"
    print("self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(SEEDS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        harness = build()
        check_provenance(harness)
        if args.self_test:
            self_test(harness, spec)
            return 0
        seed = args.seed if args.seed is not None else SEEDS[args.workload]["default"]
        result = measure(harness, spec, args.workload, seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
