"""Cold-import guard: scipy loads only when SLSQP runs.

``scipy.optimize`` costs more to import than the rest of the package,
and only the convex strategy's SLSQP backend uses it.  Each check runs
in a fresh interpreter (``PYTHONPATH=src``), the way a CLI command or a
spawn-started shard starts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Prints the equality-linked (SLSQP) Convex result on the §V loop as
#: JSON; ``EAGER`` selects whether scipy is imported before ``repro``.
PROGRAM = """
import json, sys
EAGER = {eager}
if EAGER:
    import scipy.optimize
import repro
import repro.cli
before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from repro.data import section5_loop, section5_prices
from repro.strategies import ConvexOptimizationStrategy
result = ConvexOptimizationStrategy(linking="equality").evaluate(
    section5_loop(), section5_prices()
)
print(json.dumps({{
    "scipy_before": before,
    "scipy_after": "scipy.optimize" in sys.modules,
    "backend": result.details["backend"],
    "monetized": float.hex(result.monetized_profit),
    "hops": [[float.hex(a), float.hex(b)] for a, b in result.hop_amounts],
}}))
"""


def run_fresh(eager: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM.format(eager=eager)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_scipy_unloaded_until_slsqp():
    lazy = run_fresh(eager=False)
    assert lazy["scipy_before"] == []
    assert lazy["backend"] == "slsqp"
    assert lazy["scipy_after"]

    eager = run_fresh(eager=True)
    assert eager["scipy_before"]
    assert {k: lazy[k] for k in ("backend", "monetized", "hops")} == {
        k: eager[k] for k in ("backend", "monetized", "hops")
    }
