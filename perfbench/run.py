"""Run one tubecomp benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload spaceforms --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: tubecomp is imported from ``src/``. With
``--trace 0`` the metrics are wall_s, setup_s and peak_rss_mb; with
``--trace 1`` they are the per-layer spans and counters of ``spans.py``.
See README.md in this directory.
"""

from __future__ import annotations

import os

# One thread of numerical work. BLAS reads these when numpy is imported.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS_PER_ROUND = 3   # setup_s is the median over all set-ups


class MissingProgram(RuntimeError):
    """The checkout has no tubecomp sources to benchmark."""


def load_tubecomp():
    """Import tubecomp from src/, dropping any earlier import of it."""
    if not (SRC / "tubecomp" / "__init__.py").is_file():
        raise MissingProgram(f"no tubecomp package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "tubecomp" or n.startswith("tubecomp.")]:
        del sys.modules[name]
    importlib.import_module("tubecomp.cli")
    tc = sys.modules["tubecomp"]
    if SRC not in Path(tc.__file__).resolve().parents:
        raise MissingProgram(f"tubecomp imported from {tc.__file__}, not {SRC}")
    return tc


def _subdir(parent: Path, name: str) -> Path:
    path = parent / name
    path.mkdir()
    return path


def run(workload: str, seed: int, seconds: float, trace: bool,
        toy: bool = False, log=sys.stderr) -> dict:
    """Set up, time whole rounds of the workload, check outputs, report."""
    build = WORKLOADS[workload]
    load_tubecomp()   # fails before anything is written; loads numpy and scipy
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    tracer = Tracer() if trace else None
    setup_times, round_times, errors = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            # Each set-up imports tubecomp afresh and builds fresh scenarios,
            # so no cache survives a round; the round uses the last set-up's.
            # Set-ups spread over the run give setup_s the run's median speed.
            for _ in range(SETUPS_PER_ROUND):
                t0 = time.perf_counter()
                tc = load_tubecomp()
                ops = build(tc, seed, _subdir(scratch, f"setup{len(setup_times)}"),
                            toy)
                setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.install()
                for M in {id(op.scenario.manifold): op.scenario.manifold
                          for op in ops}.values():
                    tracer.watch_manifold(M)
            gc.collect()   # the last round's garbage is not this round's cost
            timed = 0.0
            for op in ops:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    output = op.run()
                except Exception:
                    failed += 1
                    print(f"operation {op.label} failed:", file=log)
                    traceback.print_exc(file=log)
                    continue
                finally:
                    timed += time.perf_counter() - t0
                try:
                    errors.extend(op.check(output))
                except Exception as exc:   # an output the checks cannot read
                    errors.append(f"{op.label}: check raised {exc!r}")
            if tracer:
                tracer.uninstall()
            round_times.append(timed)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(round_times) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    for err in errors:
        print(f"check failed: {err}", file=log)
    print(f"{workload} seed={seed}: {len(round_times)} round(s), "
          f"timed {[round(t, 3) for t in round_times]} s, set-ups "
          f"{[round(t, 4) for t in setup_times]} s, BLAS threads "
          f"{BLAS_THREADS} ({', '.join(BLAS_VARS)})", file=log)
    if tracer:
        metrics = tracer.metrics(len(round_times))
    else:
        metrics = {
            "wall_s": (statistics.median(round_times), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
