"""Write refs.json: the reference values the workload checks compare against.

The committed refs.json was computed from the package as of commit b65810a,
before any change to it.  Exact risks are exact rationals, so any correct implementation reproduces
them; optimal risks are floats from the certified eigensolver.  Rerun only
when the workloads themselves change:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sud_estimate.risk import exact_risk  # noqa: E402
from sud_estimate.spectral import build_incidence, max_eigenpair  # noqa: E402
from sud_estimate.weights import scheme_weights  # noqa: E402

from workloads import OFFSETS, REFS_PATH, spaced  # noqa: E402


def pins_for(o: int) -> dict:
    out = {}

    def exact(d, n, scheme):
        r = exact_risk(d, n, scheme_weights(scheme, d, n)).risk
        out[f"risk:{d}:{n}:{scheme}"] = f"{r.numerator}/{r.denominator}"

    def optimal(d, n, support):
        solved = max_eigenpair(build_incidence(d, n, support))
        out[f"optimal:{d}:{n}:{support}"] = solved.optimal_risk

    # spectral
    exact(2, 401 + o, "product")
    exact(3, 120 + o, "product")
    optimal(2, 401 + o, "strict")
    for n in spaced(30, 120, 30, o):
        optimal(3, n, "full")
    optimal(3, 120 + o, "strict")
    # exact
    for n in sorted({600 + o, *spaced(100, 400, 100, o), *spaced(60, 420, 60, o)}):
        exact(3, n, "product")
    exact(4, 80 + o, "power:3")
    for n in spaced(380, 400, 10, o):
        exact(2, n, "power:60")
    for n in spaced(390, 400, 10, o):
        exact(2, n, "product")
    return out


if __name__ == "__main__":
    refs = {str(o): pins_for(o) for o in OFFSETS}
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS_PATH} ({REFS_PATH.stat().st_size} bytes)")
