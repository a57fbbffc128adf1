"""Run every benchmark workload, print every metric, and check the results.

Usage, from the root of the repository::

    python3 benchmarks/report.py [--seed N] [--seconds S] [--smoke]

Each workload runs in fresh processes of ``run.py``, once untraced and once
traced, so peak RSS belongs to one workload.  The report prints every
end-to-end and per-layer metric by name and unit, ``trace.overhead_ratio``
among them, and the share of traced wall time on the layers each workload is
meant to stress.  It exits 1 if any check fails:

* a run exits non-zero, reports a failed operation, or reports other metrics
  than ``BENCHMARK.json`` declares;
* on ``large`` a ``blowup.*`` count is not 0 (the oracle must not run there);
* two circulant seeds give the same model files, or different
  ``blowup.oracle_evals`` or ``multigraph.subdivide_vertices_out``.

``--smoke`` runs tiny inputs for one second each; it is the benchmark's own
test and takes about ten seconds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
# Layers each workload is meant to stress; their summed share is reported.
STRESSED = {
    "grid": ("blowup.", "multigraph.subdivide"),
    "large": ("action.map_power", "invariants."),
    "circulant": ("blowup.", "multigraph.subdivide"),
}
SEED_INVARIANT_COUNTS = ("blowup.oracle_evals", "multigraph.subdivide_vertices_out")


def bench(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(label: str, result: dict, specs: list[tuple[str, str]]) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']}/{result['attempted']} operations failed")
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if sorted(got) != sorted(specs):
        problems.append(f"{label}: metrics differ from the declared ones: {sorted(set(got) ^ set(specs))}")
    return problems


def print_metrics(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")


def circulant_files(seed: int, size: str) -> dict[str, str]:
    """The circulant model files a seed generates, by name."""
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="models-", dir=run.OUT))
    try:
        workloads.circulant_ops(run.import_curveindex(), workdir, seed, size)
        return {p.name: p.read_text(encoding="utf-8") for p in sorted(workdir.iterdir())}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for one second each")
    args = parser.parse_args(argv)
    seconds = 1 if args.smoke else args.seconds
    size = "smoke" if args.smoke else "full"

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    problems: list[str] = []
    traced: dict[str, dict] = {}
    for workload in workloads.WORKLOADS:
        for trace, specs in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} trace={trace} seed={args.seed}"
            try:
                result = bench(workload, args.seed, seconds, trace, args.smoke)
            except (RuntimeError, subprocess.TimeoutExpired) as err:
                problems.append(f"{label}: {err}")
                continue
            print(f"{label}: {result['attempted']} operations, {result['failed']} failed")
            print_metrics(result)
            problems += check_result(label, result, specs)
            if trace:
                traced[workload] = result["metrics"]

    for workload, metrics in traced.items():
        share = sum(m["value"] for name, m in metrics.items()
                    if name.endswith("_share") and name.startswith(STRESSED[workload]))
        print(f"{workload}: share of traced wall time on {' + '.join(STRESSED[workload])}: {share:.3f}")
    if "large" in traced:
        nonzero = [name for name, m in traced["large"].items()
                   if name.startswith("blowup.") and m["unit"] == "count" and m["value"] != 0]
        if nonzero:
            problems.append(f"large: blowup counts are not 0: {nonzero}")

    # The seed changes the circulant graphs but not the work done on them.
    other = args.seed + 1
    while workloads.circulant_jumps(other, size) == workloads.circulant_jumps(args.seed, size):
        other += 1
    if circulant_files(args.seed, size) == circulant_files(other, size):
        problems.append(f"circulant: seeds {args.seed} and {other} give the same model files")
    if "circulant" in traced:
        try:
            again = bench("circulant", other, seconds, 1, args.smoke)["metrics"]
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            problems.append(f"circulant trace=1 seed={other}: {err}")
        else:
            for name in SEED_INVARIANT_COUNTS:
                a, b = traced["circulant"][name]["value"], again[name]["value"]
                print(f"circulant {name}: seed {args.seed} -> {a}, seed {other} -> {b}")
                if a != b:
                    problems.append(f"circulant: {name} differs between seeds {args.seed} and {other}")

    for problem in problems:
        print(f"FAILED {problem}")
    print("all checks passed" if not problems else f"{len(problems)} checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
