"""One pass of a workload, in a fresh interpreter.

    python3 child.py --plan plan.json --pass-dir pass0 --result pass0.json [--trace]
    python3 child.py --import-only --result setup0.json [--split-import]

Run by run.py with the run directory as working directory.  Times the
import of ``nilmix.cli``, then calls ``nilmix.cli.main`` in-process once
per planned operation, in order, so caches inside the process are shared
by the operations of a pass as in a real session.  The result file holds
each operation's exit code, structured error name, start and end times and
speed probes, and the process's peak RSS; with ``--trace`` the spans of
the outside-in tracer are written beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time

PROBE_INT_LOOPS = 20_000
PROBE_OBJ_LOOPS = 4_000
PROBE_PERIOD_S = 0.1


def probe() -> float:
    """Seconds for a fixed pure-Python loop (a few ms): integer arithmetic,
    then short-lived tuples, lists and dicts.

    When the machine slows, object-heavy code (Fractions, sympy) slows more
    than integer arithmetic, so the probe does both.  It calls nothing in
    nilmix, and it pauses the garbage collector and frees all it makes, so
    it starts no collection in the measured process.  Its time follows the
    speed the machine gives this process right now; run.py scales measured
    times by it."""
    t = time.perf_counter()
    x = 0
    for k in range(PROBE_INT_LOOPS):
        x = (x + k * k) % 1000003
    collecting = gc.isenabled()
    gc.disable()
    for k in range(PROBE_OBJ_LOOPS):
        a = (k, k + 1, -k)
        b = [a, a]
        d = {k: b}
        x += len(d[k][1])
    if collecting:
        gc.enable()
    return time.perf_counter() - t


class Sampler:
    """Speed probes during a timed interval, from a SIGALRM handler every
    PROBE_PERIOD_S, so long operations are scaled by the speed they
    actually ran at.  The handler runs between bytecodes of the main
    thread (after a long C call returns); the probes' own time is reported
    so it can be taken out of the interval, and out of the innermost open
    span of a traced pass."""

    def __init__(self, recorder=None):
        self.inside: list = []
        self.recorder = recorder
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        seconds = probe()
        self.inside.append(seconds)
        if self.recorder is not None and self.recorder.stack:
            self.recorder.spans[self.recorder.stack[-1]][-1] += seconds

    @contextlib.contextmanager
    def interval(self, clock: dict):
        """Times the block into clock['start'] and clock['end'], and the
        probes taken inside it into clock['inside']."""
        self.inside = []
        clock["start"] = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            clock["end"] = time.perf_counter()
            clock["inside"] = self.inside


def _net(clock: dict) -> float:
    return clock["end"] - clock["start"] - sum(clock["inside"])


def _timed_import(sampler: Sampler, split: bool) -> dict:
    before = probe()
    first, second = {}, {}
    with sampler.interval(first):
        if split:
            import sympy  # noqa: F401
    with sampler.interval(second):
        import nilmix.cli  # noqa: F401
    return {"import_s": _net(first) + _net(second), "sympy_s": _net(first),
            "nilmix_s": _net(second),
            "probes": [before] + first["inside"] + second["inside"] + [probe()],
            "nilmix_file": nilmix.cli.__file__}


def _error_name(stderr: str):
    for line in reversed(stderr.strip().splitlines()):
        try:
            return json.loads(line)["error"]
        except (ValueError, KeyError, TypeError):
            continue
    return None


def run_ops(plan: dict, pass_dir: str, main, sampler: Sampler, recorder=None) -> list:
    records = []
    before = probe()
    for op in plan["ops"]:
        if recorder is not None:
            recorder.op = op["id"]
        argv = [op["command"], "--config", op["config"], "--out",
                os.path.join(pass_dir, op["id"])] + op["extra"]
        out, err = io.StringIO(), io.StringIO()
        error = None
        clock: dict = {}
        try:
            with sampler.interval(clock):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(argv)
        except SystemExit as exc:           # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:            # escaped main: counted, never fatal
            rc, error = -1, type(exc).__name__
        if rc == 1:
            error = _error_name(err.getvalue())
        after = probe()
        records.append({"id": op["id"], "rc": rc, "error": error,
                        "start": clock["start"], "end": clock["end"],
                        "probe_s": sum(clock["inside"]),
                        "probes": [before] + clock["inside"] + [after]})
        before = after
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan")
    ap.add_argument("--pass-dir")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--split-import", action="store_true")
    args = ap.parse_args(argv)

    sampler = Sampler()
    timing = _timed_import(sampler, args.split_import or args.trace)
    if args.import_only:
        with open(args.result, "w") as fh:
            json.dump(timing, fh)
        return 0

    with open(args.plan) as fh:
        plan = json.load(fh)
    if args.trace:
        import tracing
        sampler.recorder = tracing.Recorder()
        tracing.install(sampler.recorder)
    recorder = sampler.recorder
    import nilmix.cli
    records = run_ops(plan, args.pass_dir, nilmix.cli.main, sampler, recorder)
    result = dict(timing, ops=records,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if recorder is not None:
        result["spans_file"] = args.result + ".spans.json"
        with open(result["spans_file"], "w") as fh:
            json.dump(recorder.spans, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
