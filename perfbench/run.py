"""Benchmark for the isoslope CLI: four workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced then traced

A run repeats whole rounds until S seconds have passed.  A round is one
fresh interpreter (perfbench/child.py) that imports isoslope.cli and makes
the workload's CLI call through `isoslope.cli.main`, so every module cache
starts cold as in a user's invocation.  Each round's output is checked by
perfbench/checker.py, which shares no code with isoslope.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` (closed
points) and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of perfbench/tracer.py with --trace 1.  Each metric is the median
over the run's rounds; setup_s is the median over five import-only
interpreters plus one per round.

Run artefacts (reports, checkpoints, traces) go to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "points_per_s": "1/s",
}


class BenchError(Exception):
    pass


def _rank4_self_dual_datums() -> list[tuple[int, ...]]:
    """The 21 self-dual exponent multisets of rank 4 at p = 13."""
    pairs = [(a, 12 - a) for a in range(1, 6)]
    out = {tuple(sorted(pairs[i] + pairs[j])) for i in range(5) for j in range(i, 5)}
    out |= {tuple(sorted((6, 6) + pair)) for pair in pairs}
    out.add((6, 6, 6, 6))
    return sorted(out)


RANK4_DATUMS = _rank4_self_dual_datums()
RANK4_DEFAULT = (1, 5, 7, 11)


class Workload:
    """One CLI request repeated in rounds; subclasses name the calls and
    check what they wrote."""

    name = ""

    def __init__(self, seed: int | None, work: Path):
        self.work = work

    def out(self, label: str) -> Path:
        return self.work / f"{label}.out"

    def call(self, argv: list[str], label: str) -> dict:
        return {"argv": argv, "stdout": str(self.out(label)),
                "stderr": str(self.work / f"{label}.err")}

    def prepare(self, deadline: float):
        """Untimed work a run does once before its rounds."""

    def calls(self) -> list[dict]:
        raise NotImplementedError

    def check(self) -> tuple[checker.Verdict, list[str], int]:
        """(verdict, run-level problems, point records produced or served)."""
        raise NotImplementedError


class Rank4Full(Workload):
    name = "rank4-full-p13"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.c = RANK4_DEFAULT if seed is None else random.Random(seed).choice(RANK4_DATUMS)

    def calls(self):
        argv = ["slopes", "--p", "13", "--c", ",".join(map(str, self.c))]
        return [self.call(argv + ["--strategy", "full"], "full"),
                self.call(argv + ["--strategy", "selfdual"], "selfdual")]

    def check(self):
        full = _json_lines(self.out("full"))
        verdict = checker.check_points(full, [(13, self.c, 1)])
        checker.check_symmetry(full, verdict)
        checker.check_same_slopes(full, _json_lines(self.out("selfdual")), verdict,
                                  "selfdual")
        return verdict, [], len(full)


class ScanWorkload(Workload):
    family: dict = {}
    datums: list = []

    def scan_argv(self) -> list[str]:
        raise NotImplementedError

    def calls(self):
        return [self.call(self.scan_argv(), "report")]

    def verify(self, raw: bytes):
        try:
            report = json.loads(raw)
            problems = checker.report_problems(report, self.family, len(self.datums))
        except (json.JSONDecodeError, KeyError) as exc:
            report = {"records": [], "violations": []}
            problems = [f"report unreadable: {exc!r}"]
        groups = [(p, c, m) for p, c in self.datums
                  for m in range(1, self.family["m_max"] + 1)]
        verdict = checker.check_points(report["records"], groups)
        return verdict, problems, len(report["records"]), report

    def check(self):
        verdict, problems, points, _ = self.verify(self.out("report").read_bytes())
        return verdict, problems, points


class Triplegap(ScanWorkload):
    family = {"kind": "triplegap", "p_min": 5, "p_max": 43, "m_max": 1}
    datums = [(p, c) for p, c, _ in checker.triplegap_datums(5, 43)]

    def scan_argv(self):
        return ["scan", "--family", "triplegap", "--p-range", "5..43", "--workers", "2",
                "--checkpoint", str(self.work / "checkpoint.ndjson")]

    def verify(self, raw):
        verdict, problems, points, report = super().verify(raw)
        checker.check_triplegap(report, verdict, 5, 43)
        return verdict, problems + self.uniqueness_problems(), points, report

    def sweep_calls(self) -> list[dict]:
        """The scan call against a fresh checkpoint."""
        (self.work / "checkpoint.ndjson").unlink(missing_ok=True)
        return ScanWorkload.calls(self)

    def uniqueness_problems(self) -> list[str]:
        """The CLI re-verifies triple-gap uniqueness after the scan."""
        err = (self.work / "report.err").read_text(encoding="utf-8")
        if "all triple-gap uniqueness checks passed" in err:
            return []
        return [f"uniqueness re-verification did not pass: {err.strip()}"]


class TriplegapSweep(Triplegap):
    name = "triplegap-sweep"

    def calls(self):
        return self.sweep_calls()


class TriplegapResume(Triplegap):
    name = "triplegap-resume"

    def prepare(self, deadline):
        """Build the complete checkpoint with an untimed sweep, by the same
        code as triplegap-sweep."""
        child = spawn({"trace": False, "calls": self.sweep_calls()}, self.work, deadline)
        if child["calls"][0]["rc"] != 0:
            raise BenchError(f"checkpoint sweep exited {child['calls'][0]['rc']}")
        self.sweep_bytes = self.out("report").read_bytes()
        self.sweep_check = self.verify(self.sweep_bytes)

    def check(self):
        raw = self.out("report").read_bytes()
        if raw == self.sweep_bytes:
            verdict, problems, points, _ = self.sweep_check
            return verdict, problems + self.uniqueness_problems(), points
        verdict, problems, points, _ = self.verify(raw)
        return verdict, problems + ["resumed report bytes differ from the sweep's"], points


class HighDegree(ScanWorkload):
    name = "highdeg-scan"
    family = {"kind": "explicit", "p_min": 7, "p_max": 7, "m_max": 6, "c": [2, 3]}
    datums = [(7, (2, 3))]

    def scan_argv(self):
        return ["scan", "--family", "explicit", "--c", "2,3", "--p-range", "7..7",
                "--m-max", "6"]


WORKLOADS = {cls.name: cls for cls in (Rank4Full, TriplegapSweep, TriplegapResume,
                                       HighDegree)}


def _json_lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def spawn(job: dict, work: Path, deadline: float) -> dict:
    """Run child.py on the job in a fresh interpreter; add its setup_s."""
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(job_path)],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["imported_at"] - started
    return result


def run_workload(name: str, seed: int | None, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](seed, work)

    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(spawn({"trace": False, "calls": []}, work, deadline)["setup_s"])
    workload.prepare(deadline)

    # problems make the run incorrect; notes name the points counted in failed
    rounds, traces, problems, notes = [], [], [], []
    attempted = failed = 0
    started = time.monotonic()
    while not rounds or time.monotonic() - started < seconds:
        calls = workload.calls()
        child = spawn({"trace": trace, "calls": calls}, work, deadline)
        for call, done in zip(calls, child["calls"]):
            if done["rc"] != 0:
                raise BenchError(f"isoslope {' '.join(call['argv'])} exited {done['rc']}")
        verdict, round_problems, points = workload.check()
        problems += round_problems
        notes += verdict.problems
        attempted += verdict.attempted
        failed += verdict.failed
        timed = child["calls"][0]
        setups.append(child["setup_s"])
        rounds.append({"wall_s": timed["wall_s"], "cpu_s": timed["cpu_s"],
                       "peak_rss_mb": child["peak_rss_mb"],
                       "points_per_s": points / timed["wall_s"]})
        if trace:
            traces.append(child["trace"])
        print(f"{name} round {len(rounds)}: wall {timed['wall_s']:.3f} s, "
              f"{points} points, {verdict.failed} failed", file=sys.stderr)

    if trace:
        metrics = {key: {"value": statistics.median(t[key] for t in traces),
                         "unit": tracer.unit(key)} for key in traces[0]}
        (work / "trace.json").write_text(json.dumps(traces, indent=1), encoding="utf-8")
    else:
        samples = {"setup_s": setups, **{key: [r[key] for r in rounds] for key in rounds[0]}}
        metrics = {key: {"value": statistics.median(values), "unit": END_TO_END[key]}
                   for key, values in samples.items()}
    for problem in (problems + notes)[:20]:
        print(f"{name}: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "isoslope" / "cli.py").is_file():
        print(f"no isoslope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            result = run_all(args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def run_all(seed, seconds) -> dict:
    """Every workload untraced then traced; one line per metric, then the
    combined result with metric names prefixed by the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, False)
        traced = run_workload(name, seed, seconds, True)
        overhead = traced["metrics"]["cli.main.total_s"]["value"] - \
            plain["metrics"]["wall_s"]["value"]
        plain["metrics"]["tracing_overhead_s"] = {"value": overhead, "unit": "s"}
        for result in (plain, traced):
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                print(f"{name:18} {key:48} {metric['value']:>16.6g} {metric['unit']}")
                combined["metrics"][f"{name}.{key}"] = metric
    return combined


if __name__ == "__main__":
    sys.exit(main())
