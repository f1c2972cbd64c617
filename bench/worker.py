"""One child process of the benchmark: a build, a set-up probe or a round.

Run as `python3 bench/worker.py '<spec json>'` by bench/run.py, never by
hand.  The spec names the mode, the workload, the inputs drawn from the
seed, the monotonic time at which the parent spawned this process and the
file to write the result to.  A round times each public call it makes,
checks the result against the bound the code or the acceptance battery
states, and records the outcome as one operation.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import workloads as W


def torsion_rel_err(op, params):
    """Closed-form torsion error of an operator, computed as in criterion 01."""
    import numpy as np

    c_t = math.gamma(params.dim / 2.0) / (
        4.0**params.alpha
        * math.gamma(params.dim / 2.0 + params.alpha)
        * math.gamma(1.0 + params.alpha)
    )
    exact = c_t * (1.0 - op.grid.nodes**2) ** params.alpha
    got = op.apply(np.ones(op.n))
    return float(np.max(np.abs(got - exact)) / np.max(exact))


def check_operator(op, params):
    """None when the matrix is finite and meets the torsion bound, else why not."""
    import numpy as np

    if not np.all(np.isfinite(op.matrix)):
        return "matrix has non-finite entries"
    err = torsion_rel_err(op, params)
    if not err <= W.TORSION_TOL:
        return f"torsion error {err:.3e} above {W.TORSION_TOL:g}"
    return None


class Round:
    """Operation log and timed window of one child process.

    A call that raises a fracsing error is a failed operation; a call
    whose result fails its check, or that raises anything else, is a
    failed operation with a wrong or unexpected result, which makes the
    run incorrect.
    """

    def __init__(self, t_spawn):
        from fracsing.core import FracsingError

        self._typed = FracsingError
        self.t_spawn = t_spawn
        self.first = None
        self.last = None
        self.ops = []

    def call(self, name, fn, *args, check=None, timed=True, **kwargs):
        start = time.monotonic()
        if timed and self.first is None:
            self.first = start
        result, outcome, detail = None, "ok", ""
        try:
            result = fn(*args, **kwargs)
        except self._typed as exc:
            outcome, detail = "error", f"{type(exc).__name__}: {exc}"
        except Exception as exc:
            outcome, detail = "wrong", f"unexpected {type(exc).__name__}: {exc}"
        end = time.monotonic()
        if timed:
            self.last = end
        if outcome == "ok" and check is not None:
            problem = check(result)
            if problem:
                outcome, detail = "wrong", problem
        self.ops.append({"name": name, "seconds": end - start, "outcome": outcome, "detail": detail})
        return result if outcome == "ok" else None

    def skip(self, name, reason):
        self.ops.append({"name": name, "seconds": 0.0, "outcome": "error", "detail": f"not run: {reason}"})

    def mark_wrong(self, index, problem):
        self.ops[index].update(outcome="wrong", detail=problem)

    def result(self):
        if self.first is None:  # nothing was timed: every call was skipped
            return {"setup_s": None, "wall_s": None, "window": None, "ops": self.ops}
        return {
            "setup_s": self.first - self.t_spawn,
            "wall_s": self.last - self.first,
            "window": [self.first, self.last],
            "ops": self.ops,
        }


def _relative(a, b):
    return abs(a - b) / abs(b)


def _accuracy_problem(accuracy):
    if accuracy["kstar_rel_width"] > W.KSTAR_WIDTH_TOL:
        return f"k* bracket width {accuracy['kstar_rel_width']:.3e}"
    if accuracy["k_recovery_rel_err"] > W.K_RECOVERY_TOL:
        return f"k recovery error {accuracy['k_recovery_rel_err']:.3e}"
    return None


def assembly_round(spec, rnd, tracer):
    from fracsing import green
    from fracsing.core import ProblemParams

    cases = []
    for label, dim, alpha, n in W.ASSEMBLY_CASES:
        params = ProblemParams(dim=dim, alpha=alpha)
        cases.append((label, params, green.default_grid(params, n_nodes=W.nodes(n, spec["size"]))))
    if spec["mode"] == "setup":
        return None, {}

    built = []
    for label, params, grid in cases:
        if tracer is not None:
            tracer.context["case"] = label
        op = rnd.call(
            f"green.assemble[{label}]",
            green.assemble,
            grid,
            params,
            check=lambda op, params=params: check_operator(op, params),
        )
        built.append((params, op))
    if tracer is not None:
        tracer.active = False
    accuracy = {}
    if all(op is not None for _, op in built):
        accuracy["torsion_rel_err"] = max(torsion_rel_err(op, p) for p, op in built)

    # Untimed downstream accuracy of the desk-case matrix.
    from fracsing.classify import estimate_k
    from fracsing.picard import find_kstar, iterate_minimal

    (label, dim, alpha, _), (_, op) = W.ASSEMBLY_CASES[0], built[0]
    if op is not None:
        params = ProblemParams(dim=dim, alpha=alpha, p=W.ASSEMBLY_DESK_P)
        try:
            bracket = find_kstar(params, op)
            pk = params.with_k(0.5 * bracket.k_lo)
            report = iterate_minimal(pk, op, tol=1e-10, max_iter=8000)
            accuracy["kstar_rel_width"] = (bracket.k_hi - bracket.k_lo) / bracket.k_lo
            accuracy["k_recovery_rel_err"] = _relative(estimate_k(report.profile, pk, op), pk.k)
            problem = _accuracy_problem(accuracy)
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            rnd.mark_wrong(0, f"{label} downstream check: {problem}")
    return rnd.result(), accuracy


def branch_round(spec, rnd, tracer):
    import numpy as np

    from fracsing import classify, green, mountainpass, picard, stability
    from fracsing.core import ProblemParams

    problems = []
    for label, dim, alpha, p, _ in W.BRANCH_PROBLEMS:
        params = ProblemParams(dim=dim, alpha=alpha, p=p)
        path = os.path.join(spec["ops_dir"], f"{label}.op")
        op = rnd.call(
            f"green.load_operator[{label}]",
            green.load_operator,
            path,
            timed=False,
            check=lambda op, params=params: check_operator(op, params),
        )
        problems.append((label, params, op))
    if spec["mode"] == "setup":
        return None, {}

    widths, recoveries = [], []
    mp_seed = spec["inputs"]["mp_seed"]
    for label, params, op in problems:
        tag = f"[{label}]"
        if op is None:
            for name in ("picard.first_eigenpair", "picard.find_kstar", "branch samples"):
                rnd.skip(name + tag, "operator failed to load")
            continue
        rnd.call(
            "picard.first_eigenpair" + tag,
            picard.first_eigenpair,
            op,
            check=lambda e: None if 0.0 < e["lambda1"] < math.inf else f"lambda1 = {e['lambda1']}",
        )
        bracket = rnd.call(
            "picard.find_kstar" + tag,
            picard.find_kstar,
            params,
            op,
            check=lambda b: None
            if (b.k_hi - b.k_lo) / b.k_lo <= W.KSTAR_WIDTH_TOL
            else f"bracket width {(b.k_hi - b.k_lo) / b.k_lo:.3e}",
        )
        if bracket is None:
            rnd.skip("branch samples" + tag, "k* bracket failed")
            continue
        widths.append((bracket.k_hi - bracket.k_lo) / bracket.k_lo)

        def check_scan(scan, k_lo=bracket.k_lo):
            inside = scan.ks <= 0.9 * k_lo + 1e-12
            lo, hi = W.EDGE_SIGMA_BAND
            if not np.all(scan.sigma1s[inside] > 1.0):
                return "unstable sample inside 0.9 k_lo"
            if not lo <= scan.sigma1s[-1] <= hi:
                return f"edge sigma1 {scan.sigma1s[-1]:.4f} outside [{lo}, {hi}]"
            return None

        rnd.call(
            "stability.stability_gap_scan" + tag,
            stability.stability_gap_scan,
            params,
            op,
            bracket,
            n_samples=8,
            check=check_scan,
        )
        form = rnd.call("mountainpass.build_form" + tag, mountainpass.build_form, op)
        battery = rnd.call(
            "classify.standard_battery" + tag,
            classify.standard_battery,
            op,
            check=lambda b: None if len(b) == 4 else f"{len(b)} test functions",
        )
        for fraction in spec["inputs"]["k_fractions"][label]:
            k = fraction * bracket.k_lo
            pk = params.with_k(k)
            at = f"[{label} k={fraction:.4f}k_lo]"
            report = rnd.call(
                "picard.iterate_minimal" + at,
                picard.iterate_minimal,
                pk,
                op,
                tol=1e-10,
                max_iter=8000,
                check=lambda r: None if r.status == "Converged" else f"status {r.status}",
            )
            if report is None:
                rnd.skip("branch samples" + at, "minimal solution failed")
                continue
            u = report.profile
            stab = rnd.call("stability.sigma1" + at, stability.sigma1, u, pk, op)
            rnd.call(
                "stability.sigma1_rayleigh" + at,
                stability.sigma1_rayleigh,
                u,
                pk,
                op,
                check=lambda s, stab=stab: None
                if stab is None or _relative(s, stab.sigma1) <= W.SIGMA_ROUTES_TOL
                else f"routes differ by {_relative(s, stab.sigma1):.2e}",
            )

            def check_level(res):
                if not res.energy >= res.level_lower_bound:
                    return f"energy {res.energy:.6g} below level {res.level_lower_bound:.6g}"
                return None

            if form is None:
                rnd.skip("mountainpass.find_second_solution" + at, "no energy form")
                mp = None
            else:
                mp = rnd.call(
                    "mountainpass.find_second_solution[mp]" + at,
                    mountainpass.find_second_solution,
                    pk,
                    op,
                    form,
                    u,
                    method="MountainPassAlgorithm",
                    seed=mp_seed,
                    check=check_level,
                )

                def check_dn(res, mp=mp):
                    problem = check_level(res)
                    if problem is None and mp is not None:
                        gap = float(np.max(np.abs(res.v.values - mp.v.values)))
                        if gap > W.METHOD_AGREE_TOL:
                            problem = f"methods differ by {gap:.2e} in sup-norm"
                    return problem

                rnd.call(
                    "mountainpass.find_second_solution[dn]" + at,
                    mountainpass.find_second_solution,
                    pk,
                    op,
                    form,
                    u,
                    method="DeflatedNewton",
                    seed=mp_seed,
                    check=check_dn,
                )
            if battery is not None:
                estimate = rnd.call(
                    "classify.estimate_k" + at,
                    classify.estimate_k,
                    u,
                    pk,
                    op,
                    battery=battery,
                    check=lambda e, k=k: None
                    if _relative(e, k) <= W.K_RECOVERY_TOL
                    else f"estimate off by {_relative(e, k):.2e}",
                )
                if estimate is not None:
                    recoveries.append(_relative(estimate, k))
            rnd.call(
                "classify.asymptotic_fit" + at,
                classify.asymptotic_fit,
                u,
                pk,
                check=lambda f: None if f.verdict == "DiracSingularity" else f"verdict {f.verdict}",
            )
    if tracer is not None:
        tracer.active = False
    accuracy = {}
    if all(op is not None for _, _, op in problems):
        accuracy["torsion_rel_err"] = max(torsion_rel_err(op, p) for _, p, op in problems)
    if widths:
        accuracy["kstar_rel_width"] = max(widths)
    if recoveries:
        accuracy["k_recovery_rel_err"] = max(recoveries)
    return rnd.result(), accuracy


def build(spec):
    """Assemble and save the branch operators; untimed by the benchmark."""
    from fracsing.core import ProblemParams
    from fracsing.green import assemble, default_grid, save_operator

    start = time.monotonic()
    for label, dim, alpha, p, n in W.BRANCH_PROBLEMS:
        params = ProblemParams(dim=dim, alpha=alpha, p=p)
        op = assemble(default_grid(params, n_nodes=W.nodes(n, spec["size"])), params)
        save_operator(op, os.path.join(spec["ops_dir"], f"{label}.op"))
    return {"build_s": time.monotonic() - start}


def _inject_scaled_matrix():
    """Self-test fault: every operator the benchmark gets is scaled by 1.01."""
    import dataclasses

    from fracsing import green

    def scaled(fn):
        def wrapper(*args, **kwargs):
            op = fn(*args, **kwargs)
            return dataclasses.replace(op, matrix=op.matrix * 1.01)

        return wrapper

    green.assemble = scaled(green.assemble)
    green.load_operator = scaled(green.load_operator)


def main(spec):
    import fracsing

    expected = os.path.join(spec["root"], "src", "fracsing")
    if os.path.dirname(os.path.abspath(fracsing.__file__)) != expected:
        raise SystemExit(f"fracsing imported from {fracsing.__file__}, not {expected}")
    if spec["mode"] == "build":
        return build(spec)
    if spec.get("fault") == "scale-matrix":
        _inject_scaled_matrix()
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(spec["run_id"], measure_alloc=spec["trace"] == "alloc")
        spans.install(tracer)
    rnd = Round(spec["t_spawn"])
    body = assembly_round if spec["workload"] == "assembly" else branch_round
    result, accuracy = body(spec, rnd, tracer)
    if result is None:  # set-up probe: the first timed call would start now
        return {"setup_s": time.monotonic() - spec["t_spawn"]}
    result["accuracy"] = accuracy
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    out = main(spec)
    with open(spec["out"], "w") as fh:
        json.dump(out, fh)
