"""A tier-1 slice of the k* sweep (tests/sweep.py)."""

from sweep import run_case, sweep_cases


def test_the_seed_7_sweep_solves_every_case():
    # The 30 cases of seed 7 at n = 120, p drawn in (1, N/(N - 2 alpha)).
    # The doubling search before the fold left three of them unsolved.
    rows = [run_case(case) for case in sweep_cases(7, 120, 1.0)]
    # An untyped exception is recorded as an outcome too, so it fails here.
    outcomes = [(row["case"], row["outcome"]) for row in rows]
    assert [row for row in outcomes if row[1] != "solved"] == []
