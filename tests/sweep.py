"""The k* sweep: fixed admissible cases on which find_kstar must solve or
raise a typed error.

Run from the root of a checkout:

    PYTHONPATH=src python tests/sweep.py [--json FILE]

It prints one row per case: the case, its outcome (solved, or the error's
class and message head, marked untyped unless it is a FracsingError),
k_hi, sigma1 at k_lo (the certificate find_kstar kept on profile_lo, read
without another power iteration), the Green products find_kstar made and
its wall time, then the solved count of each set.  With --json it also
writes the rows to FILE.

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

from fracsing import picard, stability
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


def run_case(case):
    """find_kstar on one case: a dict with the case, its outcome, k_hi and
    sigma1_lo (None unless solved), the Green products and the wall time of
    find_kstar."""
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
    except FracsingError as exc:
        outcome = f"{type(exc).__name__}: {str(exc)[:60]}"
    except Exception as exc:  # noqa: BLE001 - an untyped escape is the finding
        outcome = f"untyped {type(exc).__name__}: {str(exc)[:60]}"
    finally:
        GreenOperator.apply = apply
    wall = time.perf_counter() - start
    k_hi = sigma1_lo = None
    if bracket is not None:
        k_hi = bracket.k_hi
        pk = params.with_k(bracket.k_lo)
        sigma1_lo = stability.sigma1(bracket.profile_lo, pk, op).sigma1
    return {
        "case": list(case),
        "outcome": outcome,
        "k_hi": k_hi,
        "sigma1_lo": sigma1_lo,
        "products": products[0],
        "wall_s": round(wall, 4),
    }


def all_sets():
    """Every set by name, in print order."""
    sets = {f"sweep-{seed}-n{n}": sweep_cases(seed, n, lo) for seed, n, lo in SWEEP}
    sets["log-uniform"] = log_uniform_cases()
    return sets


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", help="also write the rows to this file")
    args = parser.parse_args()
    table = {}
    for name, cases in all_sets().items():
        rows = table[name] = []
        for case in cases:
            row = run_case(case)
            rows.append(row)
            k_hi = sigma1_lo = "-"
            if row["k_hi"] is not None:
                k_hi, sigma1_lo = f"{row['k_hi']:.13g}", f"{row['sigma1_lo']:.6f}"
            print(
                f"{name:16} {str(tuple(case)):26} {k_hi:>20} {sigma1_lo:>9} "
                f"{row['products']:6d} {row['wall_s']:7.3f}  {row['outcome']}",
                flush=True,
            )
    for name, rows in table.items():
        solved = sum(row["outcome"] == "solved" for row in rows)
        untyped = sum(row["outcome"].startswith("untyped") for row in rows)
        print(f"{name}: {solved} of {len(rows)} solved, {untyped} untyped")
    if args.json:
        with open(args.json, "w") as out:
            json.dump(table, out, indent=1)


if __name__ == "__main__":
    main()
