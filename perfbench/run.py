"""Benchmark driver for the ``archspread`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload runs one ``archspread`` command as a fresh child process on a
bundle already on disk, because that is what a user waits for. Children run
one at a time from this process, with BLAS and OpenMP pinned to one thread in
their environment only; ``os.wait4`` gives each child's peak RSS.

``--trace 0`` times the command, end to end, for ``--seconds`` (at least
three invocations), each one between two runs of the fixed reference
process ``reference.py``, and reports ``cmd_rel`` (median of command wall
time over the mean of its neighbouring reference wall times),
``peak_rss_mb``, ``setup_s`` and ``ok_frac``; the table
also prints the raw median wall times ``cmd_s`` and ``ref_s``. ``--trace 1``
reports the per-layer metrics instead: untraced children give the in-process
time of ``cli.main``, then one traced child records spans (see ``traced.py``).

Every invocation's output is checked outside the timed interval: the first
one against expected values (``inputs.py expect``), every later one for byte
identity with it. A table goes to stdout, then one JSON line with the result.
Details, including every sample, go to ``.perfbench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import verify  # noqa: E402
from spec import WORKLOADS, Workload, report_suffix  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median
MIN_SAMPLES = 3  # timed invocations per run, even past --seconds
CHILD_TIMEOUT_S = 170.0
LAYERS = ("cli", "io", "encoding", "model", "distance", "indicators", "projection")
CONSOLE_SCRIPT = "import sys; from archspread.cli import main; sys.exit(main())"


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, no inputs)."""


@dataclass
class Child:
    wall_s: float
    rss_mib: float
    code: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


ENV = child_env()


def spawn(argv: list[str], cwd: Path, tag: str) -> Child:
    """Run one child to completion; wall time covers spawn to exit."""
    out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes(), err_path.read_bytes())


def python(script: str, *args: str) -> list[str]:
    return [sys.executable, str(HERE / script), *args]


class Run:
    """One workload at one seed: inputs, invocations and their verification."""

    def __init__(self, workload: Workload, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.shape = getattr(workload, size)
        self.work = WORK / (workload.name if size == "full" else f"{workload.name}-{size}")
        self.out = self.work / "out"
        shutil.rmtree(self.work, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.command = workload.argv[0]
        self.args = [
            a.format(
                bundle=self.work / "bundle.json",
                report=self.out / f"report{report_suffix(workload)}",
                svg=self.out / "scatter.svg",
            )
            for a in workload.argv
        ]
        self.cli = [sys.executable, "-c", CONSOLE_SCRIPT, *self.args]
        self.input_args = ["--workload", workload.name, "--seed", str(seed), "--size", size, "--out", str(self.work)]
        self.problems: list[str] = []
        self.expect: dict | None = None
        self.verified_digest: str | None = None
        self.meta: dict = {}
        self.attempted = 0
        self.failed = 0
        self.report_bytes = 0

    def setup(self) -> float:
        """Generate and write the bundle, then run one untimed warm-up invocation."""
        gen = spawn(python("inputs.py", "gen", *self.input_args), self.work, "gen")
        if gen.code != 0:
            raise BenchError(f"input generation failed:\n{gen.stderr.decode(errors='replace')[-3000:]}")
        meta = json.loads((self.work / "meta.json").read_text())
        if self.meta and meta["sha256"] != self.meta["sha256"]:
            self.problems.append("set-ups at one seed wrote different bundles")
        self.meta = meta
        return gen.wall_s + self.invoke(self.cli, "warmup")[0].wall_s

    def load_expectations(self) -> None:
        child = spawn(python("inputs.py", "expect", *self.input_args), self.work, "expect")
        if child.code != 0:
            self.problems.append("expected values failed: " + child.stderr.decode(errors="replace")[-2000:])
            return
        self.expect = json.loads((self.work / "expect.json").read_text())
        if not self.expect["bundle_matches"]:
            self.problems.append("bundle on disk differs from its regeneration")

    def invoke(self, argv: list[str], tag: str) -> tuple[Child, dict[str, bytes]]:
        for stale in self.out.iterdir():
            stale.unlink()
        child = spawn(argv, self.work, tag)
        outputs = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        outputs["stdout"] = child.stdout
        return child, outputs

    def checked(self, argv: list[str], tag: str) -> Child:
        """Invoke, then verify outside the timed interval; count the outcome."""
        child, outputs = self.invoke(argv, tag)
        self.attempted += 1
        problem = self.check(child, outputs)
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return child

    def check(self, child: Child, outputs: dict[str, bytes]) -> str | None:
        if child.code != 0:
            return f"exit {child.code}: {child.stderr.decode(errors='replace')[-2000:]}"
        digest = hashlib.sha256()
        for name, data in outputs.items():
            digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
        if self.verified_digest is not None:
            if digest.hexdigest() != self.verified_digest:
                return "output bytes differ from the run's first verified output"
            return None
        if self.expect is None:
            return "no expected values to verify against"
        issues = verify.deep_check(self.command, outputs, self.expect, f"perfbench-{self.workload.name}-seed{self.seed}")
        if issues:
            return "; ".join(issues)
        self.verified_digest = digest.hexdigest()
        self.report_bytes = sum(len(v) for v in outputs.values())
        return None

    def needed_pairs(self) -> int:
        """Distance pairs the command's output depends on."""
        sizes = [self.shape.per_set] * self.shape.sets
        if self.command == "compare":  # one joint projection of every solution
            total = sum(sizes)
            return total * (total - 1) // 2
        if self.command == "indicators":
            return sum(n * (n - 1) // 2 for n in sizes)
        return 0


def reference(run: Run) -> float:
    ref = spawn(python("reference.py"), run.work, "reference")
    if ref.code != 0:
        raise BenchError("reference process failed:\n" + ref.stderr.decode(errors="replace")[-3000:])
    return ref.wall_s


def measure(run: Run, seconds: float) -> tuple[dict, dict, dict]:
    setups = [run.setup() for _ in range(SETUPS)]
    run.load_expectations()
    walls, rss = [], []
    refs = [reference(run)]
    start = time.perf_counter()
    while len(walls) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        child = run.checked(run.cli, "cmd")
        refs.append(reference(run))
        walls.append(child.wall_s)
        rss.append(child.rss_mib)
    # Each invocation runs between two reference processes; their mean is
    # the host's speed at the time of the invocation.
    rel = [w * 2 / (before + after) for w, before, after in zip(walls, refs, refs[1:])]
    metrics = {
        "cmd_rel": (statistics.median(rel), "ratio"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_frac": (1.0 - run.failed / run.attempted, "ratio"),
    }
    # Printed with the metrics but not part of the result: raw wall times
    # follow the host's drift in CPU speed (see reference.py).
    raw = {"cmd_s": (statistics.median(walls), "s"), "ref_s": (statistics.median(refs), "s")}
    samples = {"cmd_rel": rel, "cmd_s": walls, "ref_s": refs, "peak_rss_mb": rss, "setup_s": setups}
    return metrics, raw, samples


def trace(run: Run, seconds: float) -> tuple[dict, dict, dict]:
    run.setup()
    run.load_expectations()
    untraced_file, span_file = run.work / "untraced.json", run.work / "spans.json"
    untraced_main = []
    start = time.perf_counter()
    while len(untraced_main) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        run.checked(python("traced.py", "--out", str(untraced_file), "--", *run.args), "untraced")
        if untraced_file.exists():
            untraced_main.append(json.loads(untraced_file.read_text())["main_s"])
            untraced_file.unlink()
    traced = run.checked(python("traced.py", "--out", str(span_file), "--trace", "--", *run.args), "traced")
    if not span_file.exists():
        raise BenchError("traced child wrote no span file:\n" + traced.stderr.decode(errors="replace")[-3000:])
    record = json.loads(span_file.read_text())
    if record["missing"]:
        run.problems.append(f"layer functions not found: {record['missing']}")
    if not untraced_main:
        raise BenchError("no untraced child wrote its timing")
    metrics = layer_metrics(record, traced.wall_s, statistics.median(untraced_main), run)
    return metrics, {}, {"untraced_main_s": untraced_main, "spans": record["spans"]}


def layer_metrics(record: dict, wall_s: float, untraced_main_s: float, run: Run) -> dict:
    """Per-layer metrics from one traced invocation's spans."""
    spans = record["spans"]
    covered: dict[int, float] = defaultdict(float)
    for span_id, parent, _, start, end, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors = dict.fromkeys(LAYERS, 0)
    for span_id, _, name, start, end, raised, _ in spans:
        total[name] += end - start
        self_s[name] += end - start - covered[span_id]
        calls[name] += 1
        errors[name.split(".")[0]] += raised

    def counts(name: str) -> list[dict]:
        return [s[6] for s in spans if s[2] == name and s[6]]

    pair_counts = [c["n"] * (c["n"] - 1) // 2 for c in counts("distance.distance_matrix")]
    pairs = sum(pair_counts)
    positions = sum(p * c["l_pad"] for p, c in zip(pair_counts, counts("distance.distance_matrix")))
    distance_s = total["distance.distance_matrix"]
    main_s = total["cli.main"]
    m = {
        "cli.import_s": (record["import_s"], "s"),
        "cli.main_s": (main_s, "s"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "io.parse_bundle.self_s": (self_s["io.parse_bundle"], "s"),
        "io.bundle_bytes": (run.meta["bytes"], "bytes"),
        "encoding.extract_sequence_s": (total["encoding.extract_sequence"], "s"),
        "encoding.extract_sequence.calls": (calls["encoding.extract_sequence"], "count"),
        "encoding.build_encoding_s": (total["encoding.build_encoding"], "s"),
        "encoding.build_encoding.calls": (calls["encoding.build_encoding"], "count"),
        "encoding.distinct_steps": (
            max((c["distinct_steps"] for c in counts("encoding.build_encoding")), default=0),
            "count",
        ),
        "model.validate_solution_set_s": (total["model.validate_solution_set"], "s"),
        "distance.distance_matrix_s": (distance_s, "s"),
        "distance.distance_matrix.calls": (calls["distance.distance_matrix"], "count"),
        "distance.pairs": (pairs, "count"),
        # 1 when no pair is computed: nothing was wasted.
        "distance.useful_pairs_ratio": (run.needed_pairs() / pairs if pairs else 1.0, "ratio"),
        "distance.positions": (positions, "count"),
        "distance.ns_per_position": (distance_s * 1e9 / positions if positions else 0.0, "ns"),
        "indicators.indicators_for.self_s": (self_s["indicators.indicators_for"], "s"),
        "indicators.spread_correlation_s": (total["indicators.spread_correlation"], "s"),
        "projection.mds_project_s": (total["projection.mds_project"], "s"),
        "projection.n": (sum(c["n"] for c in counts("projection.mds_project")), "count"),
        "io.write_report_s": (total["io.write_report"], "s"),
        "io.emit_scatter_svg_s": (total["io.emit_scatter_svg"], "s"),
        "io.report_bytes": (run.report_bytes, "bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = (errors[layer], "count")
    m["trace.overhead_s"] = (main_s - untraced_main_s, "s")
    m["trace.wall_s"] = (wall_s, "s")
    # Interpreter start and exit plus writing the span file: what the layer
    # self times and cli.import_s leave out of the traced child's wall time.
    m["trace.unaccounted_s"] = (wall_s - record["import_s"] - main_s, "s")
    return m


def run_workload(name: str, seed: int, seconds: float, traced: bool, size: str) -> tuple[dict, list[str]]:
    run = Run(WORKLOADS[name], seed, size)
    metrics, raw, samples = (trace if traced else measure)(run, seconds)
    meta = run.meta
    lines = [
        f"== {name}  seed {seed}  size {size}  trace {int(traced)}",
        f"inputs: sha256 {meta['sha256']}  n {meta['n']}  sets {meta['sets']}  L_pad {meta['L_pad']}  "
        f"U {meta['U']}  tree_nodes {meta['tree_nodes']}  bytes {meta['bytes']}",
        f"env: nproc {len(os.sched_getaffinity(0))}  python {meta['python']}  numpy {meta['numpy']}  "
        f"scipy {meta['scipy']}  BLAS/OpenMP threads 1",
    ]
    for metric, (value, unit) in {**metrics, **raw}.items():
        note = ""
        if metric in samples:
            values = samples[metric]
            note = f"median of {len(values)}  (min {min(values):.4f}, max {max(values):.4f})"
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        lines.append(f"{metric:36} {shown} {unit:6} {note}".rstrip())
    lines.append(f"{'fail_frac':36} {run.failed / run.attempted:>14.6g} {'ratio':6} "
                 f"{run.failed} failed / {run.attempted} attempted")
    lines += [f"problem: {p}" for p in run.problems]
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = dict(result, workload=name, seed=seed, size=size, trace=int(traced), inputs=meta,
                   samples=samples, problems=run.problems, nproc=len(os.sched_getaffinity(0)))
    (run.work / "result.json").write_text(json.dumps(details, indent=1) + "\n")
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs are for the self-test only")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "archspread" / "cli.py").is_file():
        print(f"error: no archspread sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
