"""
Spec files, the positivity gate, and reports
============================================

States travel as small JSON documents.  Parsing validates the parameters
(unit norms, prefix-freeness, unitarity) and gates every state through a
level-2 positivity check before any invariant runs.  The same files feed
the command line:

    cuntzlab report state.json other.json
    cuntzlab kappa state.json --format json
    cuntzlab selftest
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from cuntzlab import SchemaError, cdim, kappa, parse_spec

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)

    # Scalars are written [re, im] with integer or "p/q" string parts; bare
    # reals are accepted as shorthand.
    cuntz = {"family": "cuntz", "z": [["3/5", 0], ["4/5", 0]]}
    shift = {"family": "shift", "n": 2, "word": {"pre": [1], "per": [1, 2]}}

    for name, doc in [("cuntz.json", cuntz), ("shift.json", shift)]:
        (workdir / name).write_text(json.dumps(doc, indent=2))

    omega = parse_spec(str(workdir / "cuntz.json"))
    print("parsed:", omega.family, "| exact:", omega.exact)
    print("cdim =", cdim(omega).value, "| kappa =", kappa(omega).value)

    sh = parse_spec(str(workdir / "shift.json"))
    print("parsed:", sh.family, "| cdim =", cdim(sh).value, "| kappa =", kappa(sh).value)

    # Bad parameters fail loudly at the parsing boundary, not deep in a solve.
    (workdir / "bad.json").write_text(json.dumps({"family": "cuntz", "z": [1, 1]}))
    try:
        parse_spec(str(workdir / "bad.json"))
    except SchemaError as e:
        print("rejected:", e)

    # Inexact floats are refused unless float mode is requested explicitly,
    # so exact runs can never silently degrade.
    (workdir / "floaty.json").write_text(json.dumps({"family": "cuntz", "z": [0.6, 0.8]}))
    try:
        parse_spec(str(workdir / "floaty.json"))
    except SchemaError as e:
        print("gated:   ", e)
    omega_f = parse_spec(str(workdir / "floaty.json"), mode="float")
    print("accepted in float mode; exact =", omega_f.exact)

    # The CLI wraps all of the above; --format json emits machine-readable
    # reports with the same certificate detail.
    proc = subprocess.run(
        [sys.executable, "-m", "cuntzlab.cli", "report", str(workdir / "cuntz.json"), "--format", "json"],
        capture_output=True,
        text=True,
    )
    if proc.returncode == 0:
        doc = json.loads(proc.stdout)
        print()
        print("CLI report kappa block:", doc["kappa"])
    else:
        print("CLI unavailable in this environment:", proc.stderr.strip())
