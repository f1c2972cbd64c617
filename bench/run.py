#!/usr/bin/env python3
"""Benchmark of fracsing: one workload per invocation, every result checked.

Run from the root of a checkout:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see bench/workloads.py and bench/metrics.json):

- assembly: cold `green.assemble` of three cases; only `green` works.
- branch: the analysis layers on two prebuilt n=800 operators.
- cli-session: one child process per `fracsing` command at n=400.

This process times nothing itself.  It starts each round of the workload
as its own child process (for cli-session, one child per command), one at
a time, with BLAS threads capped at the number of usable cores.  After
MIN_ROUNDS rounds it starts another only while one fits in `--seconds`,
then adds set-up probes until five set-up times are known.  With `--trace 0` it
prints the end-to-end metrics, taken as medians over the rounds; with
`--trace 1` it runs one untraced round and then traced rounds, and prints
the per-layer metrics built from the spans, with the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
source tree under src/ is imported directly from the checkout; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import spans as spanlib
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "fracsing-bench")
WORKER = os.path.join(HERE, "worker.py")
CLI_SHIM = os.path.join(HERE, "cli_shim.py")
DECLARATIONS = os.path.join(HERE, "metrics.json")

MB = 2.0**20
MIN_SETUP_SAMPLES = 5
# Rounds a run makes even past --seconds.  An assembly or branch round is
# about 22 s of work on fixed inputs; a cli-session round is about 9 s.
MIN_ROUNDS = {"assembly": 1, "branch": 1, "cli-session": 3}
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 600.0

# (name, working subdirectory, arguments); {solve_k} and {mp_k} come from
# the seed.  The first solve misses the fresh cache and writes it, the
# rerun reads it from another directory and must write identical bytes.
CLI_STEPS = (
    ("solve-cold", "s1", ["solve", "--k", "{solve_k}", "-o", "out"]),
    ("eigen", "s1", ["eigen", "-o", "out"]),
    ("kstar", "s1", ["kstar", "-o", "out"]),
    ("stability", "s1", ["stability", "-o", "out"]),
    ("mountain-pass-mp", "s1",
     ["mountain-pass", "--k", "{mp_k}", "--method", "MountainPassAlgorithm", "-o", "out-mp"]),
    ("mountain-pass-dn", "s1",
     ["mountain-pass", "--k", "{mp_k}", "--method", "DeflatedNewton", "-o", "out-dn"]),
    ("bifurcation", "s1", ["bifurcation", "--n-samples", "8", "-o", "out"]),
    ("classify", "s1", ["classify", "out/solve.csv", "-o", "out-classify"]),
    ("solve-rerun", "s2", ["solve", "--k", "{solve_k}", "-o", "out"]),
)


class Child(NamedTuple):
    """Outcome of one child process: exit code, duration, peak RSS and output."""

    code: int
    seconds: float
    peak_rss_mb: float
    log: str


def run_child(argv, env, cwd, timeout, log_path):
    """Run one child to completion; kill it when `timeout` runs out."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, errors="replace") as fh:
        text = fh.read()
    return Child(proc.returncode, end - start, usage.ru_maxrss * 1024 / MB, text)


class Runner:
    """State of one benchmark invocation."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.inputs = []
        self.dir = os.path.join(WORK, "runs", f"{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.dir)
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=SRC,
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
            NUMEXPR_NUM_THREADS=threads,
        )
        self.env.pop("FRACSING_CACHE", None)
        self.blas_threads = int(threads)
        self.children = 0
        self.ops_dir = None
        self.build_s = None

    def remaining(self):
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def child(self, argv, cwd=ROOT, env=None, timeout=None):
        self.children += 1
        log = os.path.join(self.dir, f"child-{self.children}.log")
        limit = self.remaining() if timeout is None else timeout
        return run_child(argv, env or self.env, cwd, limit, log)

    def worker(self, mode, inputs=None, trace=False, run_id="", timeout=None):
        out = os.path.join(self.dir, f"worker-{self.children + 1}.json")
        spec = {
            "mode": mode,
            "workload": self.args.workload,
            "size": self.args.size,
            "fault": self.args.fault,
            "root": ROOT,
            "ops_dir": self.ops_dir,
            "inputs": inputs,
            "trace": trace,
            "run_id": run_id,
            "out": out,
        }
        spec["t_spawn"] = time.monotonic()
        done = self.child([sys.executable, WORKER, json.dumps(spec)], timeout=timeout)
        result = None
        if done.code == 0 and os.path.exists(out):
            with open(out) as fh:
                result = json.load(fh)
        return done, result

    # -- branch operators, built once per source tree -----------------------

    def prepare(self):
        if self.args.workload != "branch":
            return
        key = hashlib.sha256(
            json.dumps(
                [source_digest(), [(b[0], W.nodes(b[-1], self.args.size)) for b in W.BRANCH_PROBLEMS]]
            ).encode()
        ).hexdigest()[:20]
        self.ops_dir = os.path.join(WORK, f"ops-{key}")
        manifest = os.path.join(self.ops_dir, "manifest.json")
        if not os.path.exists(manifest):
            final = self.ops_dir
            self.ops_dir = final + f".tmp-{os.getpid()}"
            shutil.rmtree(self.ops_dir, ignore_errors=True)
            os.makedirs(self.ops_dir)
            done, result = self.worker("build", timeout=BUILD_TIMEOUT_S)
            if result is None:
                raise SystemExit(f"building the branch operators failed:\n{done.log}")
            with open(os.path.join(self.ops_dir, "manifest.json"), "w") as fh:
                json.dump(result, fh)
            shutil.rmtree(final, ignore_errors=True)
            os.replace(self.ops_dir, final)
            self.ops_dir = final
        with open(manifest) as fh:
            self.build_s = json.load(fh)["build_s"]

    # -- rounds ---------------------------------------------------------------

    def round(self, index, draw, trace):
        run_id = f"{self.args.workload}-{self.args.seed}-{index}"
        inputs = W.draw_inputs(self.args.workload, self.args.seed, draw)
        self.inputs.append(inputs)
        if self.args.workload == "cli-session":
            return self.cli_round(index, inputs, trace, run_id)
        done, result = self.worker("round", inputs=inputs, trace=trace, run_id=run_id)
        if result is None:
            last = done.log.strip().splitlines()[-1:] or [""]
            return crashed_round(f"worker exited with {done.code}: {last[0]}")
        result["peak_rss_mb"] = done.peak_rss_mb
        result["setup_samples"] = [] if result["setup_s"] is None else [result["setup_s"]]
        return result

    def cli_round(self, index, inputs, trace, run_id):
        rdir = os.path.join(self.dir, f"round-{index}")
        env = dict(self.env, FRACSING_CACHE=os.path.join(rdir, "cache"))
        for sub in ("s1", "s2"):
            os.makedirs(os.path.join(rdir, sub))
        n = W.nodes(W.CLI_N, self.args.size)
        common = ["--n-nodes", str(n), "--seed", str(inputs["mp_seed"])]
        values = {"solve_k": repr(inputs["solve_k"]), "mp_k": repr(inputs["mp_k"])}

        help_child = self.child([sys.executable, "-m", "fracsing.cli", "--help"], env=env)
        ops = [cli_op("cli.startup", help_child)]
        result = {
            "setup_s": help_child.seconds,
            "setup_samples": [help_child.seconds],
            "cli": {"startup": help_child.seconds},
            "spans": [] if trace else None,
        }
        peak = help_child.peak_rss_mb
        first = last = None
        for name, sub, argv in CLI_STEPS:
            argv = [a.format(**values) for a in argv] + common
            if trace:
                spans_file = os.path.join(rdir, f"{name}.spans.json")
                cmd = [sys.executable, CLI_SHIM, spans_file, run_id, W.CLI_CASE, "--", *argv]
            else:
                cmd = [sys.executable, "-m", "fracsing.cli", *argv]
            start = time.monotonic()
            first = start if first is None else first
            done = self.child(cmd, cwd=os.path.join(rdir, sub), env=env)
            last = time.monotonic()
            peak = max(peak, done.peak_rss_mb)
            result["cli"][name] = done.seconds
            ops.append(cli_op(f"cli.{name}", done))
            if trace and os.path.exists(spans_file):
                with open(spans_file) as fh:
                    child_spans = json.load(fh)
                offset = len(result["spans"])
                for span in child_spans:
                    if span["parent"] is not None:
                        span["parent"] += offset
                result["spans"].extend(child_spans)
        result.update(wall_s=last - first, peak_rss_mb=peak, window=[first, last], ops=ops)
        result["accuracy"] = check_cli_outputs(rdir, ops, inputs)
        result["bytes_written"] = sum(
            os.path.getsize(p)
            for p in glob.glob(os.path.join(rdir, "s*", "out*", "*"))
            if os.path.isfile(p)
        )
        return result

    def setup_probe(self):
        if self.args.workload == "cli-session":
            done = self.child([sys.executable, "-m", "fracsing.cli", "--help"])
            return done.seconds if done.code == 0 else None
        _, result = self.worker("setup")
        return None if result is None else result["setup_s"]

    def measure(self):
        """Rounds while another fits in --seconds, then set-up probes.

        Untraced, round i uses the inputs of draw i.  Traced, one untraced
        round and then traced rounds all use draw 0, so that the traced
        checks can be compared with the untraced ones and the overhead is
        measured on the same inputs.  A traced assembly run ends with one
        more round that only measures allocation peaks.
        """
        trace = bool(self.args.trace)
        untraced, traced, durations = [], [], []
        t0 = time.monotonic()
        while True:
            start = time.monotonic()
            index = len(untraced) + len(traced)
            if trace and not untraced:
                untraced.append(self.round(index, 0, trace=False))
            elif trace:
                traced.append(self.round(index, 0, trace=True))
            else:
                untraced.append(self.round(index, index, trace=False))
            durations.append(time.monotonic() - start)
            if self.remaining() < max(durations) + 15:
                break
            done = len(traced) if trace else len(untraced)
            if done >= (1 if trace else MIN_ROUNDS[self.args.workload]):
                if time.monotonic() - t0 + statistics.median(durations) > self.args.seconds:
                    break
        if trace and self.args.workload == "assembly":
            traced.append(self.round(len(untraced) + len(traced), 0, trace="alloc"))
            traced[-1]["alloc"] = True
        setup = [s for r in untraced + traced for s in r.get("setup_samples", [])]
        while len(setup) < MIN_SETUP_SAMPLES and self.remaining() > 20:
            sample = self.setup_probe()
            if sample is None:
                break
            setup.append(sample)
        return untraced, traced, setup


def cli_op(name, child):
    if child.code == 0:
        return {"name": name, "seconds": child.seconds, "outcome": "ok", "detail": ""}
    typed = child.code in (1, 2) and "Traceback" not in child.log
    return {
        "name": name,
        "seconds": child.seconds,
        "outcome": "error" if typed else "wrong",
        "detail": f"exit code {child.code}: {child.log.strip()[-300:]}",
    }


def check_cli_outputs(rdir, ops, inputs):
    """Checks of the session's files; fills the accuracy figures."""
    by_name = {op["name"]: op for op in ops}
    s1, s2 = os.path.join(rdir, "s1", "out"), os.path.join(rdir, "s2", "out")
    accuracy = {}

    def fail(name, problem):
        if by_name[name]["outcome"] == "ok":
            by_name[name].update(outcome="wrong", detail=problem)

    if by_name["cli.solve-cold"]["outcome"] == "ok":
        with open(os.path.join(s1, "solve.json")) as fh:
            cls = json.load(fh)["classification"] or {}
        if cls.get("verdict") != "DiracSingularity":
            fail("cli.solve-cold", f"verdict {cls.get('verdict')}")
        if cls.get("k_pairing_estimate") is not None:
            err = abs(cls["k_pairing_estimate"] - inputs["solve_k"]) / inputs["solve_k"]
            accuracy["k_recovery_rel_err"] = err
            if err > W.K_RECOVERY_TOL:
                fail("cli.solve-cold", f"k recovered to {err:.2e}")
        cached = glob.glob(os.path.join(rdir, "cache", "operator-*.bin"))
        if len(cached) == 1:
            accuracy["torsion_rel_err"] = cached_torsion(cached[0])
            if accuracy["torsion_rel_err"] > W.TORSION_TOL:
                fail("cli.solve-cold", f"torsion error {accuracy['torsion_rel_err']:.3e}")
        else:
            fail("cli.solve-cold", f"{len(cached)} cached operators")
    if by_name["cli.kstar"]["outcome"] == "ok":
        with open(os.path.join(s1, "kstar.json")) as fh:
            width = json.load(fh)["relative_width"]
        accuracy["kstar_rel_width"] = width
        if width > W.KSTAR_WIDTH_TOL:
            fail("cli.kstar", f"bracket width {width:.3e}")
    if by_name["cli.solve-rerun"]["outcome"] == "ok":
        for fname in ("solve.csv", "solve.json"):
            with open(os.path.join(s1, fname), "rb") as a, open(os.path.join(s2, fname), "rb") as b:
                if a.read() != b.read():
                    fail("cli.solve-rerun", f"{fname} differs from the first solve")
    return accuracy


def cached_torsion(path):
    """Torsion error of an operator file, read in this process."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from fracsing.core import ProblemParams
    from fracsing.green import load_operator

    from worker import torsion_rel_err

    op = load_operator(path)
    return torsion_rel_err(op, ProblemParams(dim=op.dim, alpha=op.alpha))


def crashed_round(detail):
    return {
        "setup_s": None,
        "setup_samples": [],
        "wall_s": None,
        "peak_rss_mb": None,
        "ops": [{"name": "round", "seconds": 0.0, "outcome": "wrong", "detail": detail}],
        "accuracy": {},
        "spans": None,
    }


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "fracsing", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def run_record(runner):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": runner.blas_threads,
        "commit": commit,
        "src_sha256": source_digest(),
        "workload": runner.args.workload,
        "seed": runner.args.seed,
        "trace": runner.args.trace,
        "size": runner.args.size,
        "inputs": runner.inputs,
        "branch_operator_build_s": runner.build_s,
    }


# -- statistics -------------------------------------------------------------


def tail(samples):
    """Highest percentile (>= 50) with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 49, -1):
        value = ordered[max(math.ceil(pct / 100 * n) - 1, 0)]
        if sum(x > value for x in ordered) >= 10:
            return pct, value
    return None


def describe(samples, unit):
    text = f"median {statistics.median(samples):.6g} {unit}"
    found = tail(samples)
    text += f", p{found[0]} {found[1]:.6g} {unit}" if found else ", no percentile with 10 samples above"
    text += f", n={len(samples)}"
    if len(samples) < 11:
        text += " [" + " ".join(f"{x:.4g}" for x in samples) + "]"
    return text


def base_name(op_name):
    return op_name.split("[", 1)[0]


# -- per-layer metrics from spans -----------------------------------------


def layer_values(rnd, declared):
    """Per-layer metrics of one traced round (0 for a layer that is idle).

    Allocation peaks come from the allocation round, timings from the others.
    """
    spans = rnd.get("spans") or []
    values = defaultdict(float)
    found = tried = 0
    selfs = spanlib.self_times(spans)
    first, last = rnd["window"]
    for span, own in zip(spans, selfs):
        name, attrs = span["name"], span["attrs"]
        layer = name.split(".", 1)[0]
        if first <= span["start"] and span["end"] <= last:
            values[f"{layer}.self_s"] += own
        if name == "green.assemble":
            case = attrs.get("case")
            values[f"green.assemble_s.{case}"] += own
            if "alloc_peak_bytes" in attrs:
                key = f"green.assemble_alloc_peak_mb.{case}"
                values[key] = max(values[key], attrs["alloc_peak_bytes"] / MB)
            values[f"_entries.{case}"] += attrs["n"] ** 2
        elif name == "mountainpass.find_second_solution":
            method = attrs["method"]
            values[f"mountainpass.find_second_solution_s.{method}"] += own
            values[f"mountainpass.steps.{method}"] += attrs["steps"]
            tried += 1
            found += bool(attrs["found"])
        elif name == "stability.stability_gap_scan":
            values["stability.stability_gap_scan_self_s"] += own
        else:
            values[f"{name}_s"] += own
        if name == "picard.iterate_minimal":
            values["picard.iterations"] += attrs.get("iterations", 0)
            parent = span["parent"]
            if parent is not None and spans[parent]["name"] == "picard.find_kstar":
                values["picard.kstar_probes"] += 1
    for key in [k for k in values if k.startswith("_entries.")]:
        case = key.split(".", 1)[1]
        seconds = values[f"green.assemble_s.{case}"]
        values[f"green.entries_per_s.{case}"] = values.pop(key) / seconds if seconds > 0 else 0.0
    values["mountainpass.found_ratio"] = found / tried if tried else 0.0
    if "cli" in rnd:
        values["cli.startup_s"] = rnd["cli"]["startup"]
        for name, _, _ in CLI_STEPS:
            values[f"cli.{name}_s"] = rnd["cli"].get(name, 0.0)
        children = sum(rnd["cli"].get(name, 0.0) for name, _, _ in CLI_STEPS)
        values["cli.self_s"] = children - spanlib.top_level_time(spans)
        values["cli.bytes_written"] = rnd["bytes_written"]
    layer_sum = sum(values[f"{layer}.self_s"] for layer in spanlib.LAYERS)
    values["trace.wall_s"] = rnd["wall_s"]
    values["trace.glue_s"] = rnd["wall_s"] - layer_sum
    unknown = set(values) - set(declared)
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics {sorted(unknown)}")
    return values


# -- report -----------------------------------------------------------------


def report(runner, untraced, traced, setup):
    declared = load_declarations()
    args = runner.args
    rounds = untraced + traced
    ops = [op for r in rounds for op in r["ops"]]
    attempted = len(ops)
    failures = [op for op in ops if op["outcome"] != "ok"]
    wrong = any(op["outcome"] == "wrong" for op in ops)
    disagreements = []
    if traced and untraced:
        reference = [(op["name"], op["outcome"]) for op in untraced[0]["ops"]]
        for rnd in traced:
            got = [(op["name"], op["outcome"]) for op in rnd["ops"]]
            if got != reference:
                disagreements.append(sum(a != b for a, b in zip(got, reference)) + abs(len(got) - len(reference)))
    failed = len(failures) + sum(disagreements)

    print(f"run record: {json.dumps(run_record(runner), sort_keys=True)}")
    print(
        f"workload {args.workload}: {len(untraced)} untraced and {len(traced)} traced rounds, "
        f"seed {args.seed}"
    )
    print(f"  failed_share {failed / attempted:.6g} (ratio): {failed} failed of {attempted} attempted operations")
    seen = defaultdict(int)
    for op in failures:
        seen[(op["name"], op["outcome"], op["detail"].splitlines()[0][:160] if op["detail"] else "")] += 1
    for (name, outcome, detail), count in sorted(seen.items()):
        print(f"    {count} x {outcome} {name}: {detail}")
    if disagreements:
        print(f"    traced rounds disagree with the untraced checks on {sum(disagreements)} operations")
    by_kind = defaultdict(list)
    for op in ops:
        if op["outcome"] == "ok":
            by_kind[base_name(op["name"])].append(op["seconds"])
    for kind in sorted(by_kind):
        print(f"  op {kind}: {describe(by_kind[kind], 's')}")

    metrics = {}
    complete = True
    if not args.trace:
        good = [r for r in untraced if r["wall_s"] is not None]
        samples = {
            "wall_s": [r["wall_s"] for r in good],
            "setup_s": setup,
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        }
        for name in ("torsion_rel_err", "kstar_rel_width", "k_recovery_rel_err"):
            samples[name] = [r["accuracy"][name] for r in good if name in r["accuracy"]]
        for name, spec in declared["end_to_end"].items():
            values = samples.get(name) or []
            if not values:
                complete = False
                print(f"  {name}: not measured")
                continue
            metrics[name] = {"value": statistics.median(values), "unit": spec["unit"]}
            print(f"  {name}: {describe(values, spec['unit'])}")
    else:
        per_round = [
            layer_values(r, declared["per_layer"]) for r in traced if r.get("window") and not r.get("alloc")
        ]
        allocs = [layer_values(r, declared["per_layer"]) for r in traced if r.get("window") and r.get("alloc")]
        base = [r["wall_s"] for r in untraced if r["wall_s"] is not None]
        if not per_round or not base:
            complete = False
        for values in per_round:
            values["trace.untraced_wall_s"] = statistics.median(base) if base else 0.0
            values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        for name, spec in declared["per_layer"].items():
            if not per_round:
                break
            source = allocs if name.startswith("green.assemble_alloc_peak_mb.") else per_round
            value = statistics.median([v.get(name, 0.0) for v in source]) if source else 0.0
            metrics[name] = {"value": value, "unit": spec["unit"]}
            print(f"  {name}: {value:.6g} {spec['unit']}")
        if per_round:
            covered = statistics.median(
                sum(v[f"{layer}.self_s"] for layer in spanlib.LAYERS) / v["trace.wall_s"] for v in per_round
            )
            print(f"  layer self times cover {covered:.4f} of the traced wall_s; the rest is benchmark glue")
    correct = complete and not wrong and not disagreements
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def load_declarations():
    with open(DECLARATIONS) as fh:
        return json.load(fh)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="fracsing benchmark")
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help=f"tiny runs every case at n={W.TINY_N} (benchmark self-test only)",
    )
    parser.add_argument(
        "--fault", choices=("scale-matrix",), default=None,
        help="scale every operator matrix by 1.01 (benchmark self-test only)",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fracsing", "__init__.py")):
        print(f"bench: no fracsing source tree under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        runner.prepare()
        untraced, traced, setup = runner.measure()
        report(runner, untraced, traced, setup)
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
