"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Checks that:
1. one command prints, for every workload, every metric BENCHMARK.json lists,
   with its unit: end-to-end metrics with --trace 0, per-layer with --trace 1;
2. the per-layer counts repeat exactly between two traced runs at one seed;
3. verification flags a corrupted output (a MAS value changed in the JSON
   report and in the CSV summary, a truncated SVG, a wrong validate line);
4. without the program's sources the driver exits non-zero and prints no result.

Exits 0 when every check passes. Takes about two minutes.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import verify  # noqa: E402
from run import WORK  # noqa: E402

SEED = 5
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def bench(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", "all", "--seed", str(SEED),
            "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def metrics_printed(trace: int, spec: list[dict]) -> dict:
    proc = bench(trace)
    check(proc.returncode == 0, f"--trace {trace} exits 0")
    if proc.returncode != 0:
        print(proc.stderr[-3000:])
        return {}
    lines = proc.stdout.splitlines()
    results = json.loads(lines[-1])
    for name, result in results.items():
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{name} --trace {trace}: correct, attempted {result['attempted']}, failed {result['failed']}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in spec}
        check(got == want, f"{name} --trace {trace}: JSON has every metric with its unit")
        table = "\n".join(lines[:-1])
        check(all(f" {m['unit']}" in table and m["name"] in table for m in spec),
              f"{name} --trace {trace}: table prints every metric with its unit")
    if trace == 0:
        check(all(s in proc.stdout for s in ("median of", "cmd_s", "ref_s", "fail_frac", "attempted")),
              "table prints cmd_s, ref_s and fail_frac with sample counts")
    return results


def corrupted_outputs_flagged() -> None:
    cases = {
        "paper_compare": ("compare", "report.json"),
        "many_sets_indicators": ("indicators", "report_summary.csv"),
        "tree_ingest_validate": ("validate", "stdout"),
    }
    for name, (command, key) in cases.items():
        work = WORK / f"{name}-tiny"
        expect = json.loads((work / "expect.json").read_text())
        outputs = {p.name: p.read_bytes() for p in (work / "out").iterdir()}
        outputs["stdout"] = (work / "traced.stdout").read_bytes()
        bundle_name = f"perfbench-{name}-seed{SEED}"
        check(verify.deep_check(command, outputs, expect, bundle_name) == [], f"{name}: intact output passes")
        bad = dict(outputs)
        if key == "report.json":
            doc = json.loads(bad[key])
            doc["sets"][0]["mas"] *= 1.0 + 1e-6
            bad[key] = (json.dumps(doc, indent=2) + "\n").encode()
        elif key == "report_summary.csv":
            rows = list(csv.reader(io.StringIO(bad[key].decode())))
            rows[1][4] = repr(float(rows[1][4]) * (1.0 + 1e-6))
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerows(rows)
            bad[key] = text.getvalue().encode()
        else:
            bad[key] = bad[key].replace(b"2 set(s)", b"1 set(s)")
        problems = verify.deep_check(command, bad, expect, bundle_name)
        check(bool(problems), f"{name}: corrupted {key} is flagged ({problems[:1]})")
        if command == "compare":
            bad = dict(outputs, **{"scatter.svg": outputs["scatter.svg"][:-20]})
            check(bool(verify.deep_check(command, bad, expect, bundle_name)), f"{name}: truncated SVG is flagged")


def fails_without_program() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"), "no program: non-zero exit, no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_printed(0, spec["end_to_end"])
    first = metrics_printed(1, spec["per_layer"])
    second = metrics_printed(1, spec["per_layer"])
    for name in first:
        counts = {k for k, v in first[name]["metrics"].items() if v["unit"] in ("count", "bytes")}
        same = all(first[name]["metrics"][k] == second.get(name, {}).get("metrics", {}).get(k) for k in counts)
        check(same, f"{name}: per-layer counts repeat exactly")
    corrupted_outputs_flagged()
    fails_without_program()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
