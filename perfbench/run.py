"""End-to-end benchmark of the nilmix CLI.

    python3 perfbench/run.py --workload <spectral|certify|density|mixing>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the workload's configs from the
seed, measures the set-up time (fresh imports of ``nilmix.cli``), then runs
passes over the workload's operations, each pass in its own fresh child
interpreter under a 4 GiB address-space cap, one at a time; the number of
passes is round(--seconds / the workload's nominal pass length), at least
three.  Every operation's
report.json is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the outside-in tracer
with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
AS_CAP = 4 << 30            # address-space cap of every child, bytes
SETUP_IMPORTS = 5           # fresh interpreters timed for setup_s
MIN_PASSES = 3              # untraced passes per run, at least
MIN_TRACED = 2              # each of untraced and traced passes with --trace 1
BUDGET_S = 160.0            # the run must exit well within 180 s
REF_PROBE_S = 0.0032        # probe time that defines a reference second
TAIL_BEYOND = 10            # operations beyond the tail percentile

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "op_ok_frac": "ratio", "peak_rss_mb": "MB"}
# per-layer metrics of the traced run, in BENCHMARK.json order
PER_LAYER = (
    "setup.sympy_s", "setup.nilmix_s",
    "cli.self_s", "cli.report_bytes",
    "exactlin.self_s", "exactlin.failures", "exactlin.factor_over_q.calls",
    "exactlin.factor_over_q.self_s", "exactlin.char_poly.calls",
    "exactlin.lyapunov_data.calls", "exactlin.lyapunov_data.escalated",
    "nilalg.self_s", "nilalg.classify.calls", "nilalg.find_regular_element.self_s",
    "nilalg.lyapunov_functionals.calls",
    "dioph.self_s", "dioph.failures", "dioph.certificates", "dioph.points_scanned",
    "dioph.points_per_s",
    "rates.self_s", "rates.density_estimate.self_s", "rates.lattice_points",
    "rates.bad_points",
    "correlate.self_s", "correlate.failures", "correlate.modes_in",
    "fracsolve.self_s", "fracsolve.modes_solved",
    "fourier.self_s",
    "trace.overhead_s", "trace.spans",
)


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    last = name.rsplit(".", 1)[-1]
    if last == "points_per_s":
        return "1/s"
    if last == "report_bytes":
        return "bytes"
    return "s" if last.endswith("_s") else "count"


def _cap_address_space():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = AS_CAP if hard == resource.RLIM_INFINITY else min(AS_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread, a fixed string hash: passes repeat the same arithmetic
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


class ChildFailed(RuntimeError):
    pass


def _child(args: list, cwd: Path, timeout: float) -> dict:
    result = cwd / args[args.index("--result") + 1]
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=cwd,
                              env=_child_env(), preexec_fn=_cap_address_space,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    with open(result) as fh:
        out = json.load(fh)
    if not Path(out["nilmix_file"]).resolve().is_relative_to(ROOT / "src"):
        raise ChildFailed(f"imported nilmix from {out['nilmix_file']}, not this checkout")
    return out


def _reference_seconds(raw: float, probes: list) -> float:
    """Scale a measured interval to the reference speed.  The machine's speed
    swings over seconds (a fixed loop took 16-26 ms within 30 s on a shared
    2-vCPU VM); the probes taken before, during (every 0.1 s) and after the
    interval measure the speed it ran at."""
    return raw * REF_PROBE_S / statistics.fmean(probes)


def _nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Run:
    """One benchmark run: inputs, passes and their checked outcomes."""

    def __init__(self, wl: workloads.Workload, workdir: Path):
        self.wl, self.dir = wl, workdir
        self.ops = {op.id: op for op in wl.ops}
        self.attempted = self.ok = self.failed = 0
        self.refused: dict = {}
        self.problems: list = []
        self.digests: dict = {}
        self.passes = {False: [], True: []}     # traced? -> pass results

    def write_inputs(self):
        for rel, content in self.wl.files.items():
            path = self.dir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(content))
        (self.dir / "cfg").mkdir()
        plan = []
        for op in self.wl.ops:
            cfg = f"cfg/{op.id}.json"
            (self.dir / cfg).write_text(json.dumps(op.config, indent=1))
            extra = ["--seed", str(op.seed)] if op.seed is not None else []
            plan.append({"id": op.id, "command": op.command, "config": cfg, "extra": extra})
        (self.dir / "plan.json").write_text(json.dumps({"ops": plan}))

    def run_pass(self, traced: bool, timeout: float):
        k = len(self.passes[False]) + len(self.passes[True])
        name = f"pass{k}"
        args = ["--plan", "plan.json", "--pass-dir", name, "--result", f"{name}.json"]
        try:
            res = _child(args + (["--trace"] if traced else []), self.dir, timeout)
        except ChildFailed as exc:
            self.attempted += len(self.ops)
            self.failed += len(self.ops)
            self.problems.append(f"{name}: {exc}")
            return None
        for rec in res["ops"]:
            rec["raw_s"] = rec["end"] - rec["start"] - rec["probe_s"]
            rec["seconds"] = _reference_seconds(rec["raw_s"], rec["probes"])
        res["wall_s"] = sum(rec["seconds"] for rec in res["ops"])
        res["raw_wall_s"] = sum(rec["raw_s"] for rec in res["ops"])
        res["scale"] = {rec["id"]: rec["seconds"] / max(rec["raw_s"], 1e-12)
                        for rec in res["ops"]}
        res["report_bytes"] = self._check_pass(self.dir / name, res["ops"])
        if k:   # the first pass's reports stay for inspection; the rest are checked
            shutil.rmtree(self.dir / name)
        self.passes[traced].append(res)
        return res

    def _check_pass(self, pass_dir: Path, records: list) -> int:
        results, report_bytes = {}, 0
        for rec in records:
            op = self.ops[rec["id"]]
            self.attempted += 1
            if rec["rc"] == 0:
                try:
                    raw = (pass_dir / op.id / "report.json").read_bytes()
                    report_bytes += len(raw)
                    digest = hashlib.sha256(raw).hexdigest()
                    if self.digests.setdefault(op.id, digest) != digest:
                        raise checks.CheckFailure("report.json differs between passes")
                    report = json.loads(raw)
                    checks.check_op(op, report, self.wl.files)
                    results[op.id] = report["result"]
                    self.ok += 1
                    continue
                except (checks.CheckFailure, OSError, KeyError, TypeError, ValueError) as exc:
                    why = f"{type(exc).__name__}: {exc}"
            elif rec["rc"] == 1 and rec["error"] in op.refusals:
                self.refused[rec["error"]] = self.refused.get(rec["error"], 0) + 1
                continue
            else:
                why = f"exit {rec['rc']} ({rec['error']})"
            self.failed += 1
            self.problems.append(f"{pass_dir.name}/{op.id}: {why}")
        try:
            checks.check_workload(self.wl.ops, results)
        except checks.CheckFailure as exc:
            self.failed += 1
            self.problems.append(f"{pass_dir.name}: {exc}")
        return report_bytes


def _setup_times(workdir: Path, split: bool) -> list:
    out = []
    for k in range(SETUP_IMPORTS):
        args = ["--import-only", "--result", f"setup{k}.json"]
        res = _child(args + (["--split-import"] if split else []), workdir, 60.0)
        for key in ("import_s", "sympy_s", "nilmix_s"):
            res[key] = _reference_seconds(res[key], res["probes"])
        out.append(res)
    return out


def _pass_plan(workload: str, seconds: float, trace: bool) -> list:
    """Which passes to run, in order (True = traced).  The count depends only
    on the workload and --seconds, never on how fast the passes run."""
    n = round(seconds / workloads.PASS_SECONDS[workload])
    if trace:
        return [False, True] * max(MIN_TRACED, n // 2)
    return [False] * max(MIN_PASSES, n)


def _tail_percentile(samples: int) -> int:
    """Highest whole percentile with TAIL_BEYOND samples beyond it."""
    return max(0, math.floor(100.0 * (samples - TAIL_BEYOND) / samples))


def _end_to_end(run: Run, setup: list) -> tuple:
    passes = run.passes[False]
    durations = [r["seconds"] for p in passes for r in p["ops"]]
    q = _tail_percentile(len(durations))
    metrics = {
        "setup_s": statistics.median(s["import_s"] for s in setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": _nearest_rank(durations, q),
        "op_ok_frac": run.ok / run.attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports of nilmix.cli",
        "wall_s": f"median over {len(passes)} passes of the summed op times; raw "
                  f"{statistics.median(p['raw_wall_s'] for p in passes):.4g} s",
        "op_p50_s": f"median of {len(durations)} ops",
        "op_tail_s": f"p{q} of {len(durations)} ops, "
                     f"{len(durations) - math.ceil(q / 100.0 * len(durations))} beyond it",
        "op_ok_frac": f"{run.ok} ok / {run.attempted} attempted",
        "peak_rss_mb": f"median over {len(passes)} passes of the child's max RSS",
    }
    return metrics, notes


def _per_layer(run: Run, setup: list) -> tuple:
    traced, plain = run.passes[True], run.passes[False]
    per_pass = []
    for p in traced:
        with open(run.dir / p["spans_file"]) as fh:
            m = tracing.layer_metrics(json.load(fh), p["scale"])
        m["cli.report_bytes"] = p["report_bytes"]
        per_pass.append(m)
    medians = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    medians["setup.sympy_s"] = statistics.median(s["sympy_s"] for s in setup)
    medians["setup.nilmix_s"] = statistics.median(s["nilmix_s"] for s in setup)
    medians["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    metrics = {name: medians[name] for name in PER_LAYER}
    notes = {"trace.overhead_s": f"median traced wall ({len(traced)} passes) minus "
                                 f"median untraced wall ({len(plain)} passes)"}
    return metrics, notes


def _report_digests(run: Run, seed: int) -> str:
    (run.dir / "digests.json").write_text(json.dumps(run.digests, indent=1, sort_keys=True))
    line = f"report digests: {len(run.digests)} ops, one digest each across passes"
    ref = HERE / "digests" / f"{run.wl.name}.json"
    if seed == workloads.DEFAULT_SEED and ref.is_file():
        want = json.loads(ref.read_text())
        same = sorted(k for k in want if run.digests.get(k) == want[k])
        differ = sorted(set(want) - set(same))
        line += f"; vs {ref.relative_to(ROOT)}: {len(same)}/{len(want)} identical"
        if differ:
            line += f", differing: {', '.join(differ)}"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "nilmix" / "cli.py").is_file():
        print(f"no nilmix sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    wl = workloads.build(args.workload, args.seed)
    run = Run(wl, workdir)
    run.write_inputs()
    try:
        setup = _setup_times(workdir, split=trace)
    except ChildFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    longest = {False: 0.0, True: 0.0}
    for traced in _pass_plan(args.workload, args.seconds, trace):
        t0 = time.monotonic()
        if t0 - started + longest[traced] > BUDGET_S:
            print(f"  NOTE time budget reached after {t0 - started:.0f} s; "
                  "later passes skipped", file=sys.stderr)
            break
        if run.run_pass(traced, BUDGET_S + 10.0 - (t0 - started)) is None:
            break
        longest[traced] = max(longest[traced], time.monotonic() - t0)

    measured = bool(run.passes[False]) and (not trace or bool(run.passes[True]))
    correct = measured and run.failed == 0
    metrics, notes = {}, {}
    if measured:
        metrics, notes = (_per_layer if trace else _end_to_end)(run, setup)
    n_fail = run.attempted - run.ok
    refused = ", ".join(f"{k} x{v}" for k, v in sorted(run.refused.items())) or "none"
    print(f"workload {wl.name}, seed {wl.seed}, trace {args.trace}: "
          f"{len(wl.ops)} ops per pass, {len(run.passes[False])} untraced and "
          f"{len(run.passes[True])} traced passes")
    for name, value in metrics.items():
        unit = _unit(name)
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:>16.6g} {unit}{note}")
    print(f"  op_fail_frac {n_fail}/{run.attempted} = "
          f"{n_fail / max(run.attempted, 1):.4f}  (known refusals: {refused}; "
          f"unexpected failures: {run.failed})")
    print("  " + _report_digests(run, args.seed))
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
