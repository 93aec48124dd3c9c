"""Benchmark of the cbindex command line.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload ridge-estimate --seed 1 --seconds 30 --trace 0

``--trace 0`` times fresh ``python -m cbindex`` processes, one after the
other (a closed loop with one client), for about ``--seconds`` and at
least three commands.  Before each command it also
times a fresh interpreter running ``import cbindex.cli`` (``setup_s``).
Every figure is the median over the commands of the run.

``--trace 1`` runs the same command in this process through
``cbindex.cli.main`` at one worker, alternating untraced and traced
runs, and reports per-layer figures from the traced ones plus the
tracing overhead.

Inputs are generated from ``--seed``; every run's outputs pass the
checks in ``gate.py`` or the benchmark exits 1 without a result.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units are those declared in ``BENCHMARK.json``.  ``--smoke`` shrinks
every workload for the harness's self-test.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gate
import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REPEATS = 3
MIN_TRACED = 2
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Spec:
    """One workload's command and sizes."""

    rows: int | None  # rows of the generated CSV; None for ``simulate``
    args: tuple[str, ...]  # CLI arguments besides input, config, seed and output
    work_units: int  # units of work one command completes
    bootstrap: int = 0
    optimism: int = 0
    replicates: int = 0  # simulate only
    n: int = 0  # simulate only
    population_size: int = 200_000  # simulate only
    cv: dict | None = None  # CV settings written to config.json; None keeps the defaults


def workload_spec(name: str, smoke: bool) -> Spec:
    """Sizes of each workload; ``smoke`` gives tiny ones for the self-test."""
    smoke_cv = {"folds": 3, "grid_size": 5, "min_ratio": 0.01} if smoke else None
    if name == "ridge-estimate":
        b = 2 if smoke else 4
        return Spec(rows=150 if smoke else 1000,
                    args=("estimate", "--model", "ridge", "--bootstrap", str(b), "--workers", "2"),
                    work_units=1 + b, bootstrap=b, cv=smoke_cv)
    if name == "ml-bootstrap":
        b, o = (4, 2) if smoke else (200, 50)
        return Spec(rows=150 if smoke else 1000,
                    args=("estimate", "--model", "ml", "--bootstrap", str(b),
                          "--optimism", str(o), "--workers", "2"),
                    work_units=1 + b + o, bootstrap=b, optimism=o)
    if name == "simulate-cell":
        r, n, pop = (2, 100, 1000) if smoke else (6, 400, 200_000)
        args = ("simulate", "--scenario", "strong", "--n", str(n), "--replicates", str(r),
                "--workers", "2")
        if smoke:
            args += ("--population-size", str(pop), "--optimism", "2")
        return Spec(rows=None, args=args, work_units=r, replicates=r, n=n, population_size=pop)
    if name == "large-trial":
        rows = 2000 if smoke else 100_000
        return Spec(rows=rows, args=("estimate", "--model", "ml", "--workers", "1"),
                    work_units=rows)
    raise ValueError(f"unknown workload {name!r}")


# --- environment -----------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS will use, if it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    ) if shutil.which("git") else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": _blas_threads(),
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git.stdout.strip() if git is not None and git.returncode == 0 else None,
        "platform": platform.platform(),
    }


# --- processes -------------------------------------------------------------

@dataclass
class ProcResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_process(cmd: list[str], log: Path, deadline: float) -> ProcResult:
    """Run ``cmd`` to completion and measure it.

    ``wait4`` returns the usage of the process plus every child it
    reaped (the worker pool), and its ``ru_maxrss`` is the largest peak
    of any of them.  The command runs in its own session so that a
    timeout can stop the whole tree.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
    timer = threading.Timer(max(deadline - time.perf_counter(), 1.0),
                            os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise gate.GateError(f"{' '.join(cmd[1:])} exited with {proc.returncode}:\n{tail}")
    return ProcResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


# --- one workload ----------------------------------------------------------

class Workload:
    """Generated inputs of one workload and its per-run output checks."""

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec, self.seed, self.workdir = spec, seed, workdir
        self.csv = workdir / "trial.csv"
        self.config = workdir / "config.json"
        if spec.rows is not None:
            inputs.write_trial_csv(self.csv, spec.rows, seed)
            inputs.write_config(self.config, spec.cv)
        self.oracle = self._oracle() if spec.rows is None else None
        self.reference: dict[str, str] | None = None

    def _oracle(self) -> float:
        """``population_cb`` of the population ``simulate`` draws: same
        scenario, size and seed derivation as ``run_simulation``."""
        from cbindex import simulation

        strong_index = 1  # scenario key of "strong" in the population seed
        pop_seed = int(np.random.SeedSequence(entropy=self.seed, spawn_key=(strong_index, 0))
                       .generate_state(1)[0])
        pop = simulation.generate_population("strong", self.spec.population_size, pop_seed)
        return simulation.population_cb(pop)

    def argv(self, out: Path, workers: str | None = None) -> list[str]:
        args = list(self.spec.args)
        if workers is not None:
            args[args.index("--workers") + 1] = workers
        if self.spec.rows is not None:
            args += ["--input", str(self.csv), "--config", str(self.config)]
        return args + ["--seed", str(self.seed), "--out", str(out)]

    def check(self, out: Path) -> tuple[int, int]:
        """Gate one run's outputs; returns (attempted, failed)."""
        s = self.spec
        if s.rows is None:
            counts = gate.check_simulation(out / "simulation.json", s.replicates, s.n, self.oracle)
        else:
            counts = gate.check_report(out / "report.json", s.bootstrap, s.optimism)
        digest = gate.digest_tree(out)
        if self.reference is None:
            self.reference = digest
        else:
            gate.check_identical(self.reference, digest)
            shutil.rmtree(out)
        return counts


def another_run(start: float, seconds: int, done: int, minimum: int) -> bool:
    """Whether to start one more command: always until ``minimum`` have
    run, then while the next one, as long as the mean so far, should end
    within ``seconds`` of ``start``."""
    elapsed = time.perf_counter() - start
    return done < minimum or elapsed + elapsed / done <= seconds


def timed_run(wl: Workload, seconds: int, deadline: float):
    """Fresh processes, tracing off: the end-to-end metrics."""
    samples: dict[str, list[float]] = {k: [] for k in
                                       ("wall_s", "work_per_s", "setup_s", "cpu_s", "peak_rss_mb")}
    attempted = failed = 0
    setup_cmd = [sys.executable, "-c", "import cbindex.cli"]
    start = time.perf_counter()
    i = 0
    while another_run(start, seconds, i, MIN_REPEATS):
        samples["setup_s"].append(run_process(setup_cmd, wl.workdir / "setup.log", deadline).wall_s)
        out = wl.workdir / f"out-{i}"
        res = run_process([sys.executable, "-m", "cbindex", *wl.argv(out)],
                          wl.workdir / f"cli-{i}.log", deadline)
        a, f = wl.check(out)
        attempted, failed = attempted + a, failed + f
        samples["wall_s"].append(res.wall_s)
        samples["work_per_s"].append(wl.spec.work_units / res.wall_s)
        samples["cpu_s"].append(res.cpu_s)
        samples["peak_rss_mb"].append(res.peak_rss_mb)
        i += 1
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["success_rate"] = 1.0 - failed / attempted
    return values, attempted, failed, samples, None


def traced_run(wl: Workload, seconds: int):
    """In-process runs at one worker, alternately untraced and traced."""
    import cbindex
    import cbindex.cli
    import tracer

    if Path(cbindex.__file__).resolve().parent != SRC / "cbindex":
        raise gate.GateError(f"imported cbindex from {cbindex.__file__}, not {SRC}")
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    spans = None
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while another_run(start, seconds, i, 2 * MIN_TRACED):
        out = wl.workdir / f"out-{i}"
        argv = wl.argv(out, workers="1")
        if i % 2 == 0:
            t0 = time.perf_counter()
            code = cbindex.cli.main(argv)
            untraced.append(time.perf_counter() - t0)
        else:
            tr = tracer.Tracer()
            with tr.installed():
                t0 = time.perf_counter()
                code = cbindex.cli.main(argv)
                traced.append(time.perf_counter() - t0)
            tr.finish()
            layers.append(tracer.layer_metrics(tr.spans))
            if spans is None:
                spans = [s.as_dict() for s in tr.spans]
        if code != 0:
            raise gate.GateError(f"cbindex.cli.main({argv}) returned {code}")
        a, f = wl.check(out)
        attempted, failed = attempted + a, failed + f
        i += 1

    counts = [{k: v for k, v in m.items() if k.endswith(tracer.COUNT_SUFFIXES)} for m in layers]
    for other in counts[1:]:
        if other != counts[0]:
            diff = sorted(k for k in other if other[k] != counts[0][k])
            raise gate.GateError(f"work counters differ between traced runs: {diff}")
    values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    values["trace.untraced_s"] = statistics.median(untraced)
    values["trace.traced_s"] = statistics.median(traced)
    values["trace.overhead_share"] = values["trace.traced_s"] / values["trace.untraced_s"] - 1.0
    samples = {"untraced_s": untraced, "traced_s": traced}
    return values, attempted, failed, samples, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "cbindex" / "cli.py").is_file():
        print(f"bench: no cbindex sources in {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = workload_spec(args.workload, args.smoke)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        wl = Workload(spec, args.seed, workdir)
        if args.trace:
            values, attempted, failed, samples, spans = traced_run(wl, args.seconds)
        else:
            values, attempted, failed, samples, spans = timed_run(wl, args.seconds, deadline)
    except gate.GateError as exc:
        print(f"bench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        print(f"bench: computed and declared metrics differ: {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    n = len(next(iter(samples.values())))
    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:15s} {'failure_rate':48s} {failed / attempted:14.6g} share "
          f"({failed} of {attempted} operations failed; medians of {n} runs)")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "metrics": metrics, "samples": samples,
              "attempted": attempted, "failed": failed}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (results / f"{tag}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
