"""Shared fixtures: assembled operators at the desk scale and derived data.

Operators are session-scoped because assembly dominates test runtime;
everything downstream (brackets, solutions, quadratic forms) is derived
once and reused.  The terminal summary hook re-prints the one-line
verdicts collected by the end-to-end acceptance tests.
"""

import numpy as np
import pytest

from fracsing.core import ProblemParams
from fracsing.green import assemble, default_grid


@pytest.fixture(scope="session")
def params0():
    """Desk-scale subcritical parameters, no point source."""
    return ProblemParams(dim=2, alpha=0.75, p=2.0, k=0.0)


@pytest.fixture(scope="session")
def params_half():
    """Second kernel order, exercising the 2*alpha = 1 log-singular case
    of the angular average and the arctan closed form."""
    return ProblemParams(dim=2, alpha=0.5, p=2.0, k=0.0)


def _build(params, n_nodes):
    return assemble(default_grid(params, n_nodes=n_nodes), params)


@pytest.fixture(scope="session")
def op200(params0):
    return _build(params0, 200)


@pytest.fixture(scope="session")
def op400(params0):
    return _build(params0, 400)


@pytest.fixture(scope="session")
def op800(params0):
    """Double resolution; the cross-check route for quadrature claims."""
    return _build(params0, 800)


@pytest.fixture(scope="session")
def ophalf(params_half):
    return _build(params_half, 400)


@pytest.fixture(scope="session")
def bracket400(params0, op400):
    from fracsing.picard import find_kstar

    return find_kstar(params0, op400)


@pytest.fixture(scope="session")
def umin_mid(params0, op400, bracket400):
    """Converged minimal solution at the midpoint k = 0.5 * k_lo."""
    from fracsing.picard import iterate_minimal

    params = params0.with_k(0.5 * bracket400.k_lo)
    report = iterate_minimal(params, op400)
    assert report.status == "Converged"
    return params, report.profile


@pytest.fixture(scope="session")
def form400(op400):
    from fracsing.mountainpass import build_form

    return build_form(op400)


@pytest.fixture(scope="session")
def second_mid(params0, op400, form400, umin_mid):
    """Second solution at k = 0.5 * k_lo found by the mountain-pass
    search; shared because several modules verify different facets of
    the same critical point."""
    from fracsing.mountainpass import find_second_solution

    params, u_min = umin_mid
    return find_second_solution(params, op400, form400, u_min, seed=0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # The acceptance module may be loaded as test_acceptance or
    # tests.test_acceptance depending on the import mode; look for the
    # instance that actually collected verdicts.
    import sys

    lines = []
    for name, module in sys.modules.items():
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(module, "VERDICT_LINES", None) or lines
    if not lines:
        return
    terminalreporter.section("acceptance summary")
    for line in lines:
        terminalreporter.write_line(line)
