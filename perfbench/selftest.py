"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

For every workload, in both modes, the result line must carry exactly
the metrics BENCHMARK.json names, each with its unit. A run with
--inject-failure, which corrupts one output before its check, must
count more failures than the same run without it. Finally, a copy of
the benchmark without the program's sources must exit non-zero and
print no result. Tiny runs are too short for the sampler to converge,
so their own output checks may fail; only the difference counts.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the harness entry point; importing it runs nothing)


def invoke(cwd: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def tiny_run(workload: str, trace: int, *extra: str) -> dict:
    code, lines = invoke(ROOT, "--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", str(trace),
                         "--scale", "tiny", *extra)
    if code != 0 or not lines:
        raise SystemExit(f"FAIL {workload} trace={trace}: exit {code}")
    return json.loads(lines[-1])


def expect(condition: bool, message: str, failures: list) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(declared[0] == dict(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.END_TO_END", failures)
    expect(declared[1] == dict(run.PER_LAYER),
           "BENCHMARK.json per_layer matches run.PER_LAYER", failures)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS", failures)
    sys.path.insert(0, str(run.SRC))
    from diffmix.validate import FULL_CHECKS
    expect(tuple(FULL_CHECKS) == run.CHECK_NAMES,
           "run.CHECK_NAMES lists the validate battery", failures)

    for workload in run.WORKLOADS:
        results = {trace: tiny_run(workload, trace) for trace in (0, 1)}
        for trace, res in results.items():
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == declared[trace],
                   f"{workload} trace={trace}: every metric with its unit",
                   failures)
            expect(all(isinstance(v["value"], float)
                       and math.isfinite(v["value"])
                       for v in res["metrics"].values())
                   and res["attempted"] >= 1,
                   f"{workload} trace={trace}: finite values, attempted "
                   f"{res['attempted']}", failures)
        injected = tiny_run(workload, 0, "--inject-failure")
        expect(injected["failed"] > results[0]["failed"]
               and not injected["correct"],
               f"{workload}: injected failure counted "
               f"({results[0]['failed']} -> {injected['failed']} failed)",
               failures)

    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = invoke(bare, "--workload", "readme", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        expect(code != 0 and not any(l.startswith("{") for l in lines),
               f"without sources: exit {code}, no result line", failures)
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
