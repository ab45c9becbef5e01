"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library is imported from the
checkout's ``src`` directory, never from an installed copy. Steps, one
process at a time:

1. ``gen.py`` writes the seeded inputs into a scratch directory inside
   ``perfbench/`` (outside every timed region).
2. ``workload.py`` runs the workload in its own process with one BLAS /
   OpenMP thread and writes its result.
3. This process prints the environment, sample counts and
   ``failed_ops_frac`` as ``#`` lines, then the result as one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

The scratch directory is removed on exit. Without ``src/degfair`` next to
this directory the run fails before doing any work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-fair-gcn", "train-base-gat", "eval-large-r2")
# Every run ends within 180 s; an eval-large-r2 run needs about 65 s.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_step(argv: list[str], deadline: float) -> None:
    """Run one child to completion; the child is killed at the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"no time left for {argv[1]}")
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise TimeoutError(f"{argv[1]} ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{argv[1]} exited with code {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # A terminated run still stops its child and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "degfair" / "__init__.py").is_file():
        print(f"error: no library sources at {ROOT / 'src' / 'degfair'}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    result_path = work / "result.json"
    spans_dir = HERE / "out"
    try:
        work.mkdir(parents=True)
        spans_dir.mkdir(exist_ok=True)
        py = sys.executable
        run_step([py, str(HERE / "gen.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--out", str(work)], deadline)
        run_step([py, str(HERE / "workload.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--inputs", str(work),
                  "--out", str(result_path),
                  "--spans", str(spans_dir / f"spans-{args.workload}.json")], deadline)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, RuntimeError, TimeoutError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    info = result.pop("info")
    frac = info.pop("failed_ops_frac")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    print(f"# failed_ops_frac: {frac} ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
