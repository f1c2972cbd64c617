"""The k* sweep: fixed admissible cases on which find_kstar must solve or
raise a typed error.

Run from the root of a checkout:

    PYTHONPATH=src python tests/sweep.py [--second] [--json FILE]

It prints one row per case: the case, its outcome (solved, or the error's
class and message head, marked untyped unless it is a FracsingError),
k_hi, sigma1 at k_lo (the certificate find_kstar kept on profile_lo, read
without another power iteration), the Green products find_kstar made and
its wall time, then the solved count of each set.  With --json it also
writes the rows to FILE.

With --second, each solved case goes on to minimal_solution at 0.5 k_lo
and to find_second_solution by both methods (seed 0).  One row per method
gives its outcome (found, or an error as above), the energy, the length of
the trace and, on the DeflatedNewton row, the sup gap between the two
perturbations v = u - u_min relative to the sup of the mountain pass's.

The sets:

- "sweep": 30 cases for each (seed, n, lo) of SWEEP, drawn from
  random.Random(seed): N = randint(2, 5), alpha from ALPHAS and
  p = round(uniform(lo, N / (N - 2 alpha)), 4);
- "log-uniform": 30 cases near p = 1, drawn from random.Random(41): N and
  alpha as in the sweep and p = round(1 + 10^uniform(-4, -2), 6), n = 120.
"""

from __future__ import annotations

import argparse
import json
import random
import time

import numpy as np

from fracsing import mountainpass, picard, stability
from fracsing.core import FracsingError, ProblemParams
from fracsing.green import GreenOperator, assemble, default_grid

SWEEP = ((7, 120, 1.0), (11, 160, 1.05), (23, 200, 1.0), (31, 120, 1.0))
ALPHAS = [0.2, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.95]


def sweep_cases(seed, n, lo):
    """The 30 (N, alpha, p, n) cases of one sweep draw."""
    rng = random.Random(seed)
    cases = []
    for _ in range(30):
        dim = rng.randint(2, 5)
        alpha = rng.choice(ALPHAS)
        p = round(rng.uniform(lo, dim / (dim - 2 * alpha)), 4)
        cases.append((dim, alpha, p, n))
    return cases


def log_uniform_cases():
    """The 30 (N, alpha, p, 120) cases with p - 1 log-uniform in (1e-4, 1e-2)."""
    rng = random.Random(41)
    cases = []
    for _ in range(30):
        dim = rng.randint(2, 5)
        alpha = rng.choice(ALPHAS)
        p = round(1.0 + 10.0 ** rng.uniform(-4.0, -2.0), 6)
        cases.append((dim, alpha, p, 120))
    return cases


METHODS = ("MountainPassAlgorithm", "DeflatedNewton")


def _outcome(exc):
    """The error's class and message head, marked untyped unless typed."""
    head = f"{type(exc).__name__}: {str(exc)[:60]}"
    return head if isinstance(exc, FracsingError) else f"untyped {head}"


def run_second(params, op, k_lo):
    """Both second-solution searches at 0.5 k_lo: a dict by method of the
    outcome, energy and trace length, and the sup gap between the found
    perturbations v over the sup of the mountain pass's (None unless both
    are found)."""
    pk = params.with_k(0.5 * k_lo)
    rows, found = {}, {}
    try:
        u_min = picard.minimal_solution(pk, op)
        form = mountainpass.build_form(op)
    except Exception as exc:  # noqa: BLE001 - an untyped escape is the finding
        failed = {"outcome": f"minimal: {_outcome(exc)}", "energy": None, "trace": 0}
        return {"methods": {m: dict(failed) for m in METHODS}, "sup_gap": None}
    for method in METHODS:
        row = rows[method] = {"outcome": "found", "energy": None, "trace": 0}
        try:
            res = mountainpass.find_second_solution(
                pk, op, form, u_min, method=method, seed=0
            )
        except Exception as exc:  # noqa: BLE001 - an untyped escape is the finding
            row["outcome"] = _outcome(exc)
            row["trace"] = len(getattr(exc, "trace", ()))
            continue
        row["energy"], row["trace"] = res.energy, len(res.trace)
        found[method] = res.v.values
    gap = None
    if len(found) == 2:
        mp, dn = (found[m] for m in METHODS)
        gap = float(np.max(np.abs(dn - mp)) / np.max(np.abs(mp)))
    return {"methods": rows, "sup_gap": gap}


def run_case(case, second=False):
    """find_kstar on one case: a dict with the case, its outcome, k_hi and
    sigma1_lo (None unless solved), the Green products and the wall time of
    find_kstar; with second, also run_second's dict when solved (else
    None)."""
    dim, alpha, p, n = case
    params = ProblemParams(dim=dim, alpha=alpha, p=p)
    op = assemble(default_grid(params, n_nodes=n), params)
    products = [0]
    apply = GreenOperator.apply

    def counted(self, values):
        products[0] += 1
        return apply(self, values)

    bracket = None
    GreenOperator.apply = counted
    start = time.perf_counter()
    try:
        bracket = picard.find_kstar(params, op)
        outcome = "solved"
    except Exception as exc:  # noqa: BLE001 - an untyped escape is the finding
        outcome = _outcome(exc)
    finally:
        GreenOperator.apply = apply
    wall = time.perf_counter() - start
    k_hi = sigma1_lo = None
    if bracket is not None:
        k_hi = bracket.k_hi
        pk = params.with_k(bracket.k_lo)
        sigma1_lo = stability.sigma1(bracket.profile_lo, pk, op).sigma1
    row = {
        "case": list(case),
        "outcome": outcome,
        "k_hi": k_hi,
        "sigma1_lo": sigma1_lo,
        "products": products[0],
        "wall_s": round(wall, 4),
    }
    if second:
        row["second"] = bracket and run_second(params, op, bracket.k_lo)
    return row


def print_second(second):
    """One row per method of run_second's dict."""
    for method, row in second["methods"].items():
        energy = "-" if row["energy"] is None else f"{row['energy']:.10g}"
        gap = second["sup_gap"] if method == METHODS[1] else None
        gap = "-" if gap is None else f"{gap:.2e}"
        print(
            f"{'':16} {method:26} {energy:>20} {gap:>9} "
            f"{row['trace']:6d} {'':7}  {row['outcome']}",
            flush=True,
        )


def second_counts(rows, method):
    """The found and untyped counts of one method over the rows it ran on."""
    outcomes = [r["second"]["methods"][method]["outcome"] for r in rows if r["second"]]
    untyped = sum("untyped" in outcome for outcome in outcomes)
    found = outcomes.count("found")
    return f"; {method} {found} of {len(outcomes)} found, {untyped} untyped"


def all_sets():
    """Every set by name, in print order."""
    sets = {f"sweep-{seed}-n{n}": sweep_cases(seed, n, lo) for seed, n, lo in SWEEP}
    sets["log-uniform"] = log_uniform_cases()
    return sets


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", help="also write the rows to this file")
    parser.add_argument(
        "--second",
        action="store_true",
        help="also run both second-solution searches at 0.5 k_lo",
    )
    args = parser.parse_args()
    table = {}
    for name, cases in all_sets().items():
        rows = table[name] = []
        for case in cases:
            row = run_case(case, args.second)
            rows.append(row)
            k_hi = sigma1_lo = "-"
            if row["k_hi"] is not None:
                k_hi, sigma1_lo = f"{row['k_hi']:.13g}", f"{row['sigma1_lo']:.6f}"
            print(
                f"{name:16} {str(tuple(case)):26} {k_hi:>20} {sigma1_lo:>9} "
                f"{row['products']:6d} {row['wall_s']:7.3f}  {row['outcome']}",
                flush=True,
            )
            if row.get("second"):
                print_second(row["second"])
    for name, rows in table.items():
        solved = sum(row["outcome"] == "solved" for row in rows)
        untyped = sum(row["outcome"].startswith("untyped") for row in rows)
        line = f"{name}: {solved} of {len(rows)} solved, {untyped} untyped"
        for method in METHODS if args.second else ():
            line += second_counts(rows, method)
        print(line)
    if args.json:
        with open(args.json, "w") as out:
            json.dump(table, out, indent=1)


if __name__ == "__main__":
    main()
