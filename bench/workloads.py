"""Workload definitions shared by bench/run.py and its worker processes.

Sizes and (N, alpha, p) are fixed.  The workload seed draws only the
cli-session source strengths within fixed bands, the order of the branch
k offsets and the mountain-pass seeds.  This module imports nothing heavy,
so run.py can read it before any child starts.
"""

from __future__ import annotations

import random

WORKLOADS = ("assembly", "branch", "cli-session")

# Size used by the self-test in place of every node count below.
TINY_N = 128

# (label, N, alpha, n).  The n=1600 desk case shows the temporaries behind
# assembly peak memory; alpha < 1/2 takes the steep correction grading and
# N = 3 the sin^(N-2) kernel branch, so a shortcut fitted to the desk case
# (N=2, alpha=0.75) gains nothing on the n=800 cases.
ASSEMBLY_CASES = (
    ("2d-a075-n1600", 2, 0.75, 1600),
    ("2d-a030-n800", 2, 0.30, 800),
    ("3d-a040-n800", 3, 0.40, 800),
)
# Exponent of the desk case, the only assembly case with a natural p; its
# k* bracket and k recovery are the assembly run's downstream accuracy.
ASSEMBLY_DESK_P = 2.0

# (label, N, alpha, p, n).  Non-integer p and N = 3 leave the desk case.
BRANCH_PROBLEMS = (
    ("2d-a075-p2", 2, 0.75, 2.0, 800),
    ("3d-a060-p1.5", 3, 0.60, 1.5, 800),
)
# Branch samples sit at the band edges and centre, -0.02, 0 and +0.02 k_lo
# around each of these fractions of k_lo; 0.95 k_lo puts Picard near the
# fold.  The offsets are fixed rather than drawn because the cost of a
# deflated-Newton search near the fold is erratic in k (0.2 s at
# 0.962 k_lo, 13 s at 0.9617 k_lo for N=2), so runs on freshly drawn k
# would not be comparable.
K_FRACTIONS = (0.25, 0.5, 0.75, 0.95)
K_OFFSETS = (-0.02, 0.0, 0.02)

CLI_N = 400
CLI_CASE = "2d-a075-n400"
# Desk-case source strengths for solve (as in criterion 11) and for the
# mountain pass (about 0.47 k_lo), each drawn within +-CLI_JITTER of itself.
CLI_SOLVE_K = 0.05
CLI_MP_K = 1.2
CLI_JITTER = 0.02

# Bounds that the code or the acceptance battery already states.
TORSION_TOL = 1e-3  # criterion 01
KSTAR_WIDTH_TOL = 1e-3  # find_kstar default bracket_tol
SIGMA_ROUTES_TOL = 1e-6  # stability module docstring, criterion 10
K_RECOVERY_TOL = 1e-4
METHOD_AGREE_TOL = 1e-8
EDGE_SIGMA_BAND = (0.9, 1.1)  # criterion 07


def nodes(n, size):
    return n if size == "full" else TINY_N


def draw_inputs(workload, seed, round_index):
    """Inputs of one round; the same seed always gives the same inputs.

    Branch: the seed draws the order of the offsets and the mountain-pass
    seed.  cli-session: each round draws its own source strengths and
    mountain-pass seed within the fixed bands.
    """
    if workload == "branch":
        rng = random.Random(f"{workload}:{seed}:{round_index}")
        offsets = rng.sample(K_OFFSETS, len(K_OFFSETS))
        return {
            "k_fractions": {
                label: [round(f + d, 6) for d in offsets for f in K_FRACTIONS]
                for label, *_ in BRANCH_PROBLEMS
            },
            "mp_seed": rng.randrange(2**31),
        }
    if workload == "cli-session":
        rng = random.Random(f"{workload}:{seed}:{round_index}")
        return {
            "solve_k": CLI_SOLVE_K * (1.0 + rng.uniform(-CLI_JITTER, CLI_JITTER)),
            "mp_k": CLI_MP_K * (1.0 + rng.uniform(-CLI_JITTER, CLI_JITTER)),
            "mp_seed": rng.randrange(2**31),
        }
    return {}
