"""The semkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  Workloads (see BENCHMARK.json for why each
was chosen):

* ``sweep`` - a paper-style grid: all seven (environment, dialect) pairs,
  random demonstrations, five seeds, all four DD variants, pymr scored
  against native gold in some cells, plus the bundled
  ``experiment_replay.json`` verbatim;
* ``retrieval`` - BM25 demonstrations over 1000-example pools, 16 queries,
  one seed;
* ``coverage`` - greedy coverage demonstrations over the same pools, three
  seeds, k=8;
* ``annotate`` - ``bootstrap_annotations`` over 400 unlabeled geo examples,
  four passes, pymr proposals checked against FunQL gold.

Steps: write the seeded inputs (``inputs.py``), run the workload in a fresh
interpreter (``worker.py``), and with ``--trace 0`` time set-up in fresh
interpreters too.  The last line of stdout is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
(``tracer.py``) under ``--trace 1``.  The line before it holds the context:
machine, versions, sizes, ``failed_share``, the unscaled timings and, when
traced, the tracing overhead.  Timings are scaled to a reference host, see
``reference.py``.  A failed output check prints ``"correct": false`` and
exits 1.

``--freeze`` re-records ``digests.json`` from the default seed instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("sweep", "retrieval", "coverage", "annotate")
DEFAULT_SEED = 0
SETUP_REPEATS = 5  # before and again after the workload, so set-up is sampled twice
WORKER_TIMEOUT_S = 150

# Times a fresh interpreter's ``import semkit`` plus the public loaders of
# every input file the workload reads, then the reference task.
SETUP_PROBE = r"""
import json, statistics, sys, time
setup = json.load(open(sys.argv[1], encoding="utf-8"))["setup"]
sys.path[:0] = [sys.argv[2], sys.argv[3]]
start = time.perf_counter()
import semkit
from semkit.corpus import load_dataset, load_split
from semkit.execute import load_environment
from semkit.llm import ReplayCache
from semkit.prompts import load_dd_source
for data, split in setup["datasets"]:
    dataset = load_dataset(data)
    if split:
        load_split(split, dataset)
for environment, path in setup["environments"]:
    load_environment(environment, path)
for path in setup["caches"]:
    ReplayCache(path)
for path in setup["dds"]:
    load_dd_source(path)
elapsed = time.perf_counter() - start
from reference import reference_seconds
print(json.dumps([elapsed, statistics.median(reference_seconds() for _ in range(3))]))
"""


def run_worker(plan_path: Path, seconds: float, trace: int, freeze: bool = False) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), str(plan_path),
               "--seconds", str(seconds), "--trace", str(trace)]
    if freeze:
        command.append("--freeze")
    done = subprocess.run(command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
                          cwd=ROOT)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"worker failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_samples(plan_path: Path) -> list[list[float]]:
    """(set-up seconds, reference task seconds) from fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(plan_path), str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=60)
        samples.append(json.loads(done.stdout))
    return samples


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of the files under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def prepare(workload: str, seed: int, trace: int) -> tuple[dict, Path]:
    import inputs  # imports semkit from SRC

    work = WORK / f"{workload}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return inputs.prepare(workload, seed, work), work / "plan.json"


def freeze() -> int:
    frozen = {"seed": DEFAULT_SEED, "replay": None, "workloads": {}}
    for workload in WORKLOADS:
        _, plan_path = prepare(workload, DEFAULT_SEED, 0)
        digests = run_worker(plan_path, 0, 0, freeze=True)
        frozen["workloads"][workload] = digests
        frozen["replay"] = frozen["replay"] or digests.get("replay")
    (HERE / "digests.json").write_text(json.dumps(frozen, indent=2) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="re-record digests.json at the default seed and exit")
    args = parser.parse_args(argv)
    if not (SRC / "semkit" / "__init__.py").is_file():
        print(f"error: no semkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.freeze:
        return freeze()
    if args.workload is None:
        parser.error("--workload is required")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    plan, plan_path = prepare(args.workload, args.seed, args.trace)
    if args.trace:
        measured = run_worker(plan_path, args.seconds, args.trace)
        metrics = measured["layers"]
        declared = benchmark["per_layer"]
        setup = []
    else:
        setup = setup_samples(plan_path)
        measured = run_worker(plan_path, args.seconds, args.trace)
        setup += setup_samples(plan_path)
        metrics = {
            "examples_per_s": {"value": measured["examples_per_s"], "unit": "1/s"},
            "cpu_ms_per_example": {"value": measured["cpu_ms_per_example"], "unit": "ms"},
            "setup_s": {"value": statistics.median(
                t * reference.REFERENCE_S / ref for t, ref in setup), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
        declared = benchmark["end_to_end"]
    errors = list(measured["errors"])
    missing = measured.get("missing_layers", [])
    if missing:
        errors.append(f"layers with no traced call: {', '.join(missing)}")
    if {m["name"]: m["unit"] for m in declared} != {k: v["unit"] for k, v in metrics.items()}:
        errors.append("reported metrics differ from those BENCHMARK.json declares")

    attempted, failed = measured["attempted"], measured["failed"]
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "why": next(w["why"] for w in benchmark["workloads"] if w["name"] == args.workload),
        "sizes": plan["sizes"], "run_seconds": args.seconds, "passes": measured["passes"],
        "failed_share": {"value": failed / attempted if attempted else 1.0, "unit": "share"},
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_commit": git_commit(), "source_sha256": tree_digest(SRC / "semkit"),
        "inputs_sha256": tree_digest(plan_path.parent / "data"),
        "errors": errors,
    }
    context["unscaled"] = {
        "host_slowdown": measured["host_slowdown"],
        "examples_per_s": measured["unscaled_examples_per_s"],
        "cpu_ms_per_example": measured["unscaled_cpu_ms_per_example"]}
    if setup:
        context["unscaled"]["setup_s"] = statistics.median(t for t, _ in setup)
    if args.trace:
        context["tracing_overhead"] = {
            "untraced_examples_per_s": measured["examples_per_s"],
            "traced_examples_per_s": measured["traced_examples_per_s"],
            "share": metrics["trace.overhead_share"]["value"]}
        context["tail_percentiles"] = {k: v["value"] for k, v in metrics.items()
                                       if k.endswith("lat_tail_pct")}
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    correct = not errors and failed == 0 and attempted > 0
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
