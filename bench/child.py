"""One pass of a workload, run in a fresh interpreter.

    python3 bench/child.py PLAN.json RESULT.json

PLAN names the working directory, the CLI commands (or selftest seeds) and
whether to trace.  Each CLI command runs in-process through
``cuntzlab.cli.run`` with its standard output captured; a selftest pass
calls ``cuntzlab.selftest.run_all`` once per seed.  RESULT receives, per
command, the exit code, the captured output, any exception, the seconds
it took and those seconds at the reference CPU speed (speed.py), plus the
pass wall time, the peak RSS and (when traced) the per-layer totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as e:  # argparse rejects a command line this way
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # a traceback is a failed command, recorded with its text
            exc = traceback.format_exc()
    return rc, out.getvalue(), err.getvalue(), exc


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    os.chdir(plan["workdir"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import cuntzlab.cli as cli
    import cuntzlab.selftest as selftest
    import speed

    tracer = None
    if plan["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    records = []
    probe = speed.Probe()
    probe.install()
    start = time.perf_counter()
    for cmd in plan["commands"]:
        t0 = time.perf_counter()
        rc, out, err, exc = _run_cli(cli, cmd["argv"])
        records.append({"label": cmd["label"], "start": t0, "seconds": time.perf_counter() - t0,
                        "rc": rc, "stdout": out, "stderr": err, "exception": exc})
    for seed in plan["selftest_seeds"]:
        t0 = time.perf_counter()
        try:
            results = selftest.run_all(seed)
        except Exception:
            records.append({"label": f"selftest:{seed}", "start": t0, "seconds": 0.0, "rc": None, "stdout": "",
                            "stderr": "", "exception": traceback.format_exc()})
            continue
        # run_all times each criterion itself; they run back to back from t0
        for r in results:
            records.append({"label": f"criterion:{seed}:{r.name}", "start": t0, "seconds": r.seconds,
                            "rc": 0 if r.ok else 1, "stdout": r.detail, "stderr": "", "exception": None})
            t0 += r.seconds
    wall = time.perf_counter() - start
    probe.uninstall()
    for rec in records:
        rec["scaled_seconds"] = probe.scaled(rec.pop("start"), rec["seconds"])

    doc = {
        "wall_s": wall,
        "speed_factor": probe.factor(start, start + wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
    }
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = tracer.totals()
        doc["spans"] = tracer.dump_spans(plan["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
