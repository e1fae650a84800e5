"""One benchmark workload, run as a closed loop in a fresh interpreter.

run.py starts this file with PYTHONPATH set to the checkout's ``src``
and one thread per BLAS pool. The child imports infobell, runs one
untimed warm-up operation and prints ``READY`` (the parent times the
start up to that line as set-up). Unless ``--setup-only`` is given it
then runs the workload and prints one JSON line with the raw results.

With ``--trace 0`` the timed loop runs operations back to back until
``--seconds`` have passed, checks every output afterwards and runs the
first operation again, which must reproduce its output bit for bit.
With ``--trace 1`` a fixed number of operations (so counts repeat
exactly) runs once with every public function wrapped in a span and
once without; the two passes must agree bit for bit.

Inputs come only from ``--seed``: operation ``i`` draws from
``default_rng([seed, 0, i])``, so it does not depend on how many
operations ran before it. The warm-up input is the same for every seed,
so set-up time measures the same work in every run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
import spans

BENCH_DIR = Path(__file__).resolve().parent
LOOP, WARMUP = 0, 1
# Additive recurrence on the plastic number: an even spread over the unit square for any count.
R2_STEP = (0.7548776662466927, 0.5698402909980532)
OFFSET_KEY = 2**32  # input_rng index of a run's offset, beyond any operation index

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")
# (v(pi/8), theta*) of each Bell state. phi+ and psi- see correlations in
# a - b and give the paper's curve; phi- and psi+ see a + b, so their
# quadrilateral is far from violating and the scan peaks at its lower end.
BELL_PINS = {
    "phi+": (0.3833, 0.3047),
    "psi-": (0.3833, 0.3047),
    "phi-": (-2.2499, 0.1),
    "psi+": (-2.2499, 0.1),
}
PIN_TOL = 1e-3
MATCH_TOL = 1e-9
SCAN_LO, SCAN_HI, SCAN_STEP, SCAN_TOL = 0.1, 0.6, 2.5e-3, 1e-6
MLE_TRACE_DISTANCE_BOUND = 0.1
COUNTS_PER_MODE = 350
TOMO_PER_BASIS = 10_000
REACTIVITY_SAMPLES = 200
REACTIVITY_LAMBDAS = (0.0, 0.2, 0.4, 0.6, 0.8)
CLI_TIMEOUT_S = 60.0
IMPORT_MODULES = ("infobell", "scipy.optimize", "scipy.special", "numpy")


def input_rng(seed: int, stream: int, i: int) -> np.random.Generator:
    key = [stream, i] if stream == WARMUP else [seed, stream, i]
    return np.random.default_rng(key)


class CheckFailed(Exception):
    pass


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expect_close(actual, wanted, tol: float, what: str) -> None:
    actual, wanted = np.asarray(actual, dtype=float), np.asarray(wanted, dtype=float)
    expect(actual.shape == wanted.shape, f"{what}: shape {actual.shape} != {wanted.shape}")
    err = float(np.max(np.abs(actual - wanted))) if actual.size else 0.0
    expect(err <= tol, f"{what}: off by {err:.3g} (tolerance {tol:g})")


def expect_finite(out) -> None:
    for key, value in out.items():
        if isinstance(value, (bytes, str)):
            continue
        expect(np.all(np.isfinite(np.asarray(value))), f"{key} is not finite")


def fingerprint(out: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(out):
        value = out[key]
        h.update(key.encode())
        h.update(value if isinstance(value, bytes) else np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def scan_check(rho: np.ndarray, theta_star: float, v_star: float) -> None:
    """v* is the best value of the scan, up to what the scan's angle tolerance allows.

    max_violation refines the best grid point by golden section to within
    SCAN_TOL in theta, so when the peak sits on the edge of the scan its
    answer can trail the edge value by the local slope times SCAN_TOL.
    """
    grid = np.arange(SCAN_LO, SCAN_HI + SCAN_STEP / 2.0, SCAN_STEP)
    values = ref.violation(rho, grid)
    best = int(np.argmax(values))
    near = values[max(0, best - 1): best + 2]
    slope = float(np.max(np.abs(np.diff(near)))) / SCAN_STEP
    expect(SCAN_LO <= theta_star <= SCAN_HI, f"theta* = {theta_star!r} outside the scan")
    expect(v_star >= values[best] - slope * SCAN_TOL - MATCH_TOL,
           f"v* = {v_star!r} below the grid maximum {values[best]!r}")
    expect_close(v_star, ref.violation(rho, theta_star), MATCH_TOL, "v* against the reference")


class Exact:
    """Exact Born-rule quantities of one generated two-qubit state per operation."""

    name = "exact"
    cycle = 12  # three state families, four Bell kinds
    trace_ops_per_s = 2.0

    def __init__(self, ib, seed: int, workdir: Path):
        self.ib, self.seed = ib, seed

    def make_input(self, i: int, stream: int = LOOP) -> dict:
        rng = input_rng(self.seed, stream, i)
        family = ("bell", "werner", "ginibre")[i % 3]
        if family == "bell":
            kind = BELL_KINDS[(i // 3) % 4]
            return {"family": family, "kind": kind, "matrix": ref.bell_matrix(kind)}
        if family == "werner":
            lam, phase = rng.uniform(0.7, 1.0), rng.uniform(0.0, np.pi)
            return {"family": family, "lam": lam, "phase": phase,
                    "matrix": ref.werner_matrix(lam, phase)}
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        m = 0.5 * (m + m.conj().T)
        return {"family": family, "matrix": m / np.trace(m).real}

    def run(self, inp: dict) -> dict:
        ib = self.ib
        if inp["family"] == "bell":
            rho = ib.bell_state(inp["kind"]).density_matrix()
        elif inp["family"] == "werner":
            rho = ib.modified_werner(inp["lam"], inp["phase"])
        else:
            rho = ib.DensityMatrix(2, inp["matrix"])
        theta_star, v_star = ib.max_violation(rho, SCAN_LO, SCAN_HI, step=SCAN_STEP, tol=SCAN_TOL)
        quad = ib.quadrilateral(rho, np.pi / 8.0)
        return {
            "theta_star": theta_star,
            "v_star": v_star,
            "edges_pi8": np.array(quad.edges),
            "v_pi8": quad.violation,
            "chsh": ib.chsh(rho, *ib.OPTIMAL_BELL_SETTINGS),
            "visibility": np.array([ib.visibility(rho, "HV"), ib.visibility(rho, "DA")]),
        }

    def check(self, inp: dict, out: dict) -> None:
        m = inp["matrix"]
        expect_finite(out)
        scan_check(m, out["theta_star"], out["v_star"])
        expect_close(out["edges_pi8"], ref.edges(m, np.pi / 8.0), MATCH_TOL, "edges at pi/8")
        expect_close(out["v_pi8"], ref.violation(m, np.pi / 8.0), MATCH_TOL, "v(pi/8)")
        expect(abs(out["chsh"]) <= ref.TSIRELSON + 1e-9, f"|S| = {abs(out['chsh'])!r} above 2 sqrt 2")
        expect_close(out["chsh"], ref.chsh(m, *ref.OPTIMAL_BELL_ANGLES), MATCH_TOL, "CHSH")
        expect_close(out["visibility"], [ref.visibility(m, "HV"), ref.visibility(m, "DA")],
                     MATCH_TOL, "visibility")
        if inp["family"] == "bell":
            v_pin, theta_pin = BELL_PINS[inp["kind"]]
            expect_close(out["v_pi8"], v_pin, PIN_TOL, f"{inp['kind']} v(pi/8)")
            expect_close(out["theta_star"], theta_pin, PIN_TOL, f"{inp['kind']} theta*")
        elif inp["family"] == "werner":
            model = self.ib.model_curve(inp["lam"], inp["phase"], [out["theta_star"]])[0]
            expect_close(out["v_star"], model, MATCH_TOL, "v* against model_curve")


class Measured:
    """One simulated experiment: finite-count sweep, model fit, tomography, CHSH."""

    name = "measured"
    cycle = 1
    trace_ops_per_s = 1.2

    def __init__(self, ib, seed: int, workdir: Path):
        self.ib, self.seed = ib, seed

    def make_input(self, i: int, stream: int = LOOP) -> dict:
        # Fit and MLE cost depend strongly on (lambda, phase); spreading the
        # states evenly over the square, from a seeded offset, keeps a run's
        # mix of cheap and costly experiments the same from seed to seed.
        offset = input_rng(self.seed, stream, OFFSET_KEY).random(2)
        lam_u, phase_u = (offset + i * np.array(R2_STEP)) % 1.0
        rng = input_rng(self.seed, stream, i)
        return {
            "lam": float(0.9 + 0.1 * lam_u),
            "phase": float(np.pi * phase_u),
            "noise_seed": int(rng.integers(2**31)),
            "count_seed": int(rng.integers(2**62)),
        }

    def run(self, inp: dict) -> dict:
        ib = self.ib
        rho = ib.modified_werner(inp["lam"], inp["phase"])
        noise = ib.NoiseConfig(6.0, 0.003, inp["noise_seed"])
        rows = ib.simulate_sweep(rho, ib.REFERENCE_THETAS, COUNTS_PER_MODE, noise)
        curve = ib.ViolationCurve(
            np.array([theta for theta, _ in rows]),
            np.array([quad.violation for _, quad in rows]),
            np.array([quad.violation_uncertainty for _, quad in rows]),
        )
        fit = ib.fit_werner(curve)
        mean = ib.expected_counts(rho, TOMO_PER_BASIS).counts
        counts = np.random.default_rng(inp["count_seed"]).poisson(mean).astype(np.int64)
        tomo = ib.mle_reconstruct(ib.TomoDataset(counts))
        return {
            "thetas": curve.thetas,
            "edges": np.array([quad.edges for _, quad in rows]),
            "v": curve.v,
            "dv": curve.dv,
            "fit": np.array([fit.lam, fit.phase, fit.residual_sum]),
            "residuals": fit.per_point_residuals,
            "rho_mle": tomo.rho_mle.matrix,
            "converged": tomo.converged,
            "mle_rounds": tomo.n_iterations,
            "chsh": ib.chsh(tomo.rho_mle, *ib.OPTIMAL_BELL_SETTINGS),
        }

    def check(self, inp: dict, out: dict) -> None:
        expect_finite(out)
        truth = ref.werner_matrix(inp["lam"], inp["phase"])
        check_run_rows(out["thetas"], out["edges"], out["v"], out["dv"])
        check_fit(out["thetas"], out["v"], *out["fit"], out["residuals"], inp["lam"], inp["phase"])
        expect(bool(out["converged"]), "MLE did not converge")
        check_mle(out["rho_mle"], truth)
        expect(abs(out["chsh"]) <= ref.TSIRELSON + 1e-9, f"|S| = {abs(out['chsh'])!r} above 2 sqrt 2")
        expect_close(out["chsh"], ref.chsh(out["rho_mle"], *ref.OPTIMAL_BELL_ANGLES), MATCH_TOL,
                     "CHSH of the MLE state")


def check_run_rows(thetas, edges, v, dv) -> None:
    expect_close(thetas, ref.REFERENCE_THETAS, 0.0, "simulated thetas")
    edges = np.asarray(edges, dtype=float)
    expect(np.all((edges >= -1e-9) & (edges <= 2.0 + 1e-9)), "an edge distance is outside [0, 2]")
    expect_close(v, edges[:, 3] - edges[:, :3].sum(axis=1), 1e-12, "V from the edges")
    expect(np.all(np.asarray(dv, dtype=float) > 0.0), "an uncertainty is not positive")


def check_fit(thetas, v, lam, phase, residual_sum, residuals, lam_true, phase_true) -> None:
    """A least-squares fit lands in range, reports its own residuals, and beats the truth."""
    expect(0.0 <= lam <= 1.0, f"fitted lambda {lam!r} outside [0, 1]")
    expect(0.0 <= phase <= np.pi, f"fitted phase {phase!r} outside [0, pi]")
    model = ref.violation(ref.werner_matrix(lam, phase), np.asarray(thetas, dtype=float))
    expect_close(residuals, model - np.asarray(v, dtype=float), MATCH_TOL, "fit residuals")
    expect_close(residual_sum, float(np.sum(np.square(residuals))), 1e-12, "residual sum")
    truth = ref.violation(ref.werner_matrix(lam_true, phase_true), np.asarray(thetas, dtype=float))
    truth_sum = float(np.sum(np.square(truth - np.asarray(v, dtype=float))))
    expect(residual_sum <= truth_sum + 1e-12,
           f"fit residual {residual_sum!r} worse than the true parameters' {truth_sum!r}")


def check_mle(rho_mle, truth) -> None:
    distance = ref.trace_distance(np.asarray(rho_mle), truth)
    expect(distance < MLE_TRACE_DISTANCE_BOUND,
           f"MLE state {distance:.3g} from the true state (bound {MLE_TRACE_DISTANCE_BOUND})")


class Multipartite:
    """Four-qubit Monte Carlo reactivity over a cycle of mixing weights."""

    name = "multipartite"
    cycle = len(REACTIVITY_LAMBDAS)
    trace_ops_per_s = 3.4

    def __init__(self, ib, seed: int, workdir: Path):
        self.ib, self.seed = ib, seed

    def make_input(self, i: int, stream: int = LOOP) -> dict:
        rng = input_rng(self.seed, stream, i)
        return {"lam": REACTIVITY_LAMBDAS[i % self.cycle], "sample_seed": int(rng.integers(2**31))}

    def run(self, inp: dict) -> dict:
        ib = self.ib
        rho = ib.modified_werner(inp["lam"], 0.0, n_qubits=4)
        result = ib.reactivity(rho, REACTIVITY_SAMPLES, inp["sample_seed"])
        return {"area": result.mean_area, "volume": result.mean_volume, "ratio": result.reactivity}

    def check(self, inp: dict, out: dict) -> None:
        expect_finite(out)
        expect(out["area"] >= 0.0 and out["volume"] > 0.0, "area or volume not positive")
        expect_close(out["ratio"], out["area"] / out["volume"], 1e-12 * max(1.0, out["ratio"]),
                     "reactivity against area / volume")
        if inp["lam"] == 0.0:
            expect_close(out["ratio"], 0.75, 1e-12, "reactivity of the maximally mixed state")


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON number {token}")


def parse_json(text: bytes):
    """Parse CLI output; NaN and Infinity tokens are rejected, so every number is finite."""
    return json.loads(text, parse_constant=_reject_constant)


class Cli:
    """One ``python -m infobell`` call per operation, rotating through six commands."""

    name = "cli"
    commands = ("violation", "sweep", "chsh", "fit", "tomo", "simulate")
    cycle = len(commands)
    trace_ops_per_s = 0.45

    def __init__(self, ib, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.python = sys.executable
        self.env = dict(os.environ)

    def make_input(self, i: int, stream: int = LOOP) -> dict:
        rng = input_rng(self.seed, stream, i)
        command = "fit" if stream == WARMUP else self.commands[i % self.cycle]
        inp = {"command": command, "out": str(self.workdir / f"out-{stream}-{i}.json")}
        if command in ("violation", "sweep", "chsh"):
            if rng.random() < 0.5:
                kind = BELL_KINDS[int(rng.integers(4))]
                spec, matrix = f"bell:{kind}", ref.bell_matrix(kind)
            else:
                lam, phase = rng.uniform(0.7, 1.0), rng.uniform(0.0, np.pi)
                spec, matrix = f"werner:{lam!r},{phase!r}", ref.werner_matrix(lam, phase)
            inp["matrix"] = matrix
            inp["argv"] = [command, "--state", spec, "--json"]
            if command == "violation":
                inp["theta"] = rng.uniform(SCAN_LO, SCAN_HI)
                inp["argv"] += ["--theta", repr(inp["theta"])]
            elif command == "sweep":
                inp["argv"].append("--reference-grid")
            else:
                inp["argv"].append("--optimal")
            return inp
        lam, phase = rng.uniform(0.9, 1.0), rng.uniform(0.0, np.pi)
        inp.update(lam=lam, phase=phase)
        path = self.workdir / f"in-{stream}-{i}"
        if command == "fit":
            thetas = np.array(ref.REFERENCE_THETAS)
            v = ref.violation(ref.werner_matrix(lam, phase), thetas) + rng.normal(0.0, 0.02, thetas.size)
            inp["v"] = v
            rows = "".join(f"{float(t)!r},{float(x)!r},0.02\n" for t, x in zip(thetas, v))
            path.write_text("# infobell curve v1\ntheta,v,dv\n" + rows, encoding="utf-8")
            inp["argv"] = ["fit", "--curve", str(path)]
        elif command == "tomo":
            mean = TOMO_PER_BASIS * ref.mode_probabilities(ref.werner_matrix(lam, phase))
            counts = rng.poisson(mean)
            rows = "".join(f"{label},{int(n)}\n" for label, n in zip(ref.MODE_LABELS, counts))
            path.write_text("# infobell tomo counts v1\nlabel,counts\n" + rows, encoding="utf-8")
            inp["argv"] = ["tomo", "--counts", str(path)]
        else:
            config = {
                "state": {"lambda": lam, "phase": phase},
                "thetas": list(ref.REFERENCE_THETAS),
                "counts_per_mode": COUNTS_PER_MODE,
                "accidental_mean": 6.0,
                "angle_sigma": 0.003,
                "seed": int(rng.integers(2**31)),
            }
            path.write_text(json.dumps(config), encoding="utf-8")
            inp["argv"] = ["simulate", "--config", str(path), "--json"]
        return inp

    def _call(self, prefix: list, inp: dict) -> tuple:
        out = Path(inp["out"])
        proc = subprocess.run(prefix + inp["argv"] + ["--output", str(out)], cwd=self.workdir,
                              env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        text = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        return {"returncode": proc.returncode, "output": text}, proc.stderr

    def run(self, inp: dict) -> dict:
        return self._call([self.python, "-m", "infobell"], inp)[0]

    def run_traced(self, inp: dict, rec: spans.Recorder, op: int, stats: dict) -> dict:
        span_path = self.workdir / "spans.json"
        start = time.perf_counter()
        result, stderr = self._call(
            [self.python, "-X", "importtime", str(BENCH_DIR / "cli_call.py"), str(span_path)], inp)
        wall = time.perf_counter() - start
        with open(span_path, encoding="utf-8") as fh:
            spans.merge(rec, fh, op)
        span_path.unlink()
        imports = import_times(stderr.decode("utf-8", "replace"))
        stats.setdefault("imports", []).append(imports)
        stats.setdefault("run_s", []).append(wall - stats["start_s"] - imports.get("infobell", 0.0) / 1e3)
        return result

    def check(self, inp: dict, out: dict) -> None:
        expect(out["returncode"] == 0, f"{inp['command']} exited {out['returncode']}")
        payload = parse_json(out["output"])
        command = inp["command"]
        if command == "violation":
            m, theta = inp["matrix"], inp["theta"]
            expect_close(list(payload["edges"].values()), ref.edges(m, theta), MATCH_TOL, "edges")
            expect_close(payload["v"], ref.violation(m, theta), MATCH_TOL, "V")
        elif command == "sweep":
            points = payload["points"]
            thetas = [p["theta"] for p in points]
            expect_close(thetas, ref.REFERENCE_THETAS, 0.0, "sweep thetas")
            expect_close([p["v"] for p in points], ref.violation(inp["matrix"], np.array(thetas)),
                         MATCH_TOL, "sweep V")
        elif command == "chsh":
            s = payload["s"]
            expect(abs(s) <= ref.TSIRELSON + 1e-9, f"|S| = {abs(s)!r} above 2 sqrt 2")
            expect_close(s, ref.chsh(inp["matrix"], *ref.OPTIMAL_BELL_ANGLES), MATCH_TOL, "CHSH")
        elif command == "fit":
            check_fit(ref.REFERENCE_THETAS, inp["v"], payload["lambda"], payload["phase"],
                      payload["residual_sum"], payload["residuals"], inp["lam"], inp["phase"])
        elif command == "tomo":
            expect(payload["converged"] is True, "MLE did not converge")
            rho = np.array(payload["rho_mle"]["re"]) + 1j * np.array(payload["rho_mle"]["im"])
            check_mle(rho, ref.werner_matrix(inp["lam"], inp["phase"]))
        else:
            runs = payload["runs"]
            check_run_rows([r["theta"] for r in runs], [list(r["edges"].values()) for r in runs],
                           [r["v"] for r in runs], [r["dv"] for r in runs])


WORKLOADS = {w.name: w for w in (Exact, Measured, Multipartite, Cli)}


def import_times(stderr: str) -> dict:
    """Cumulative import milliseconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue
        out.setdefault(parts[2].strip(), cumulative_us / 1e3)
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; a failed operation's latency is +inf."""
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def attempt(runner, inp: dict) -> tuple:
    """Run one operation; returns (output or None, seconds, failure message or None)."""
    start = time.perf_counter()
    try:
        out = runner(inp)
    except Exception as exc:  # any error of the package counts as one failed operation
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - start, None


def verify(workload, inp: dict, out, error):
    """Failure message for one operation's output, or None if every check passes."""
    if error is not None:
        return error
    try:
        workload.check(inp, out)
    except Exception as exc:  # a check that cannot even read the output is a failed check
        return f"{type(exc).__name__}: {exc}"
    return None


def tally(records, loop_s: float, kernel_s: float) -> dict:
    """Latency and throughput of a timed loop; failed operations count as missing every limit.

    ``records`` holds (seconds, failure message or None) per operation;
    ``kernel_s`` is the time spent in the reference kernel, run once
    before each operation and excluded from ``loop_s``.
    """
    latencies = [math.inf if failure else seconds for seconds, failure in records]
    done = [seconds for seconds, failure in records if failure is None]
    p90 = percentile(latencies, 90.0)
    kernel_mean = kernel_s / len(records)
    return {
        "ops": len(records),
        "completed": len(done),
        "failed": len(records) - len(done),
        "loop_s": loop_s,
        "throughput_ops_s": len(done) / loop_s,
        "op_cost_ref": sum(done) / len(done) / kernel_mean if done else math.inf,
        "reference_kernel_ms": kernel_mean * 1e3,
        "op_p50_ms": percentile(latencies, 50.0) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "beyond_p90": sum(1 for x in latencies if x > p90),
    }


_KERNEL_STATE = np.eye(4, dtype=complex) / 4.0
_KERNEL_EFFECTS = (np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), np.full((2, 2), 0.5, dtype=complex))


def reference_kernel() -> float:
    """Fixed interpreter and small-array numpy work, about 5 ms, timed before every operation.

    The machine this runs on changes speed by up to 1.8 times over
    seconds to minutes. Operation time divided by the time of this kernel,
    measured in the same stretch of the run, cancels most of that drift
    while still moving with every change to the package.
    """
    total = 0.0
    for k in range(150):
        effect = np.kron(_KERNEL_EFFECTS[k & 1], _KERNEL_EFFECTS[(k >> 1) & 1])
        total += np.trace(_KERNEL_STATE @ effect).real
    return total


def run_timed(workload, seconds: float) -> dict:
    records = []
    kernel_s = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        before = time.perf_counter()
        reference_kernel()
        kernel_s += time.perf_counter() - before
        inp = workload.make_input(i)
        out, took, error = attempt(workload.run, inp)
        records.append([inp, out, took, error])
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    loop_s = time.perf_counter() - start - kernel_s
    for entry in records:
        inp, out, took, error = entry
        entry[3] = verify(workload, inp, out, error)
    first_inp, first_out = records[0][0], records[0][1]
    again, _, error = attempt(workload.run, first_inp)
    rerun_failure = error or verify(workload, first_inp, again, None)
    if rerun_failure is None and first_out is not None and fingerprint(again) != fingerprint(first_out):
        rerun_failure = "first operation did not reproduce bit for bit"
    result = tally([(took, failure) for _, _, took, failure in records], loop_s, kernel_s)
    failures = [f"op {k}: {f}" for k, (_, _, _, f) in enumerate(records) if f]
    if rerun_failure:
        failures.append(f"rerun of op 0: {rerun_failure}")
    result.update(attempted=len(records) + 1, failed=len(failures), failures=failures[:10],
                  latencies_ms=[took * 1e3 for _, _, took, _ in records])
    return result


def run_traced(workload, ib, seconds: float, out_dir: Path, stats: dict) -> dict:
    """Fixed-count traced pass, then the same operations untraced; outputs must match bit for bit."""
    n = workload.cycle * max(1, round(seconds * workload.trace_ops_per_s / workload.cycle))
    inputs = [workload.make_input(i) for i in range(n)]
    rec = spans.Recorder()
    restore = spans.install(rec) if ib is not None else (lambda: None)
    traced = []
    start = time.perf_counter()
    try:
        for i, inp in enumerate(inputs):
            rec.op = i
            index = rec.open(f"{workload.name}.op")
            try:
                if ib is None:  # the CLI runs out of process; its calls carry their own tracer
                    traced.append(attempt(lambda x: workload.run_traced(x, rec, i, stats), inp))
                else:
                    traced.append(attempt(workload.run, inp))
            finally:
                rec.close(index)
    finally:
        restore()
    traced_s = time.perf_counter() - start
    untraced = []
    start = time.perf_counter()
    for inp in inputs:
        untraced.append(attempt(workload.run, inp))
    untraced_s = time.perf_counter() - start
    failures = []
    for i, (inp, (out, _, error), (plain, _, plain_error)) in enumerate(zip(inputs, traced, untraced)):
        failure = verify(workload, inp, out, error) or verify(workload, inp, plain, plain_error)
        if failure is None and fingerprint(out) != fingerprint(plain):
            failure = "traced output differs from untraced output"
        if failure:
            failures.append(f"op {i}: {failure}")
    spans.write_csv(rec, out_dir / f"spans-{workload.name}-seed{workload.seed}.csv")
    layer = per_layer(spans.summarize(rec.spans), rec.notes, n)
    layer["trace.throughput_ops_s"] = n / traced_s
    layer["trace.overhead_ops_s"] = n / untraced_s - n / traced_s
    return {"ops": n, "attempted": n, "failed": len(failures), "failures": failures[:10],
            "per_layer": layer}


PER_OP_COUNTS = (
    ("states.joint_probabilities.calls", "states.joint_probabilities"),
    ("states.JointDistribution.constructed", "states.JointDistribution.constructed"),
    ("states.DensityMatrix.constructed", "states.DensityMatrix.constructed"),
    ("infogeo.violation.calls", "infogeo.violation"),
    ("infogeo.info_distance.calls", "infogeo.info_distance"),
    ("infogeo.shannon_entropy.calls", "infogeo.shannon_entropy"),
    ("infogeo.stream_rng.calls", "infogeo.stream_rng"),
    ("expsim.estimate_distribution.calls", "expsim.estimate_distribution"),
    ("fitting.model_curve.calls", "fitting.model_curve"),
    ("tomography.mode_probabilities.calls", "tomography.mode_probabilities"),
    ("tomography.correlation.calls", "tomography.correlation"),
)
PER_OP_SELF_MS = (
    "states.joint_probabilities", "infogeo.info_distance", "infogeo.shannon_entropy",
    "infogeo.reactivity", "infogeo.stream_rng", "infogeo.info_area", "infogeo.info_volume",
    "expsim.propagate_error", "fitting.fit_werner", "tomography.mle_reconstruct",
    "tomography.linear_inversion", "tomography.chsh",
)
PER_OP_TOTAL_MS = (
    "infogeo.max_violation", "infogeo.reactivity", "expsim.propagate_error",
    "expsim.simulate_schumacher_run", "fitting.fit_werner", "tomography.mle_reconstruct",
)
PER_OP_NOTES = (
    "infogeo.golden_section_min.evals", "expsim.estimate_distribution.clamped_bins",
    "fitting.fit_werner.rounds", "fitting.fit_werner.cap_hits", "tomography.mle_reconstruct.rounds",
)


def per_layer(summary: dict, notes: dict, n: int) -> dict:
    """Per-operation layer statistics from span totals and notes."""
    def total(name, key):
        return summary.get(name, {}).get(key, 0)

    out = {metric: total(name, "calls") / n for metric, name in PER_OP_COUNTS}
    out.update({f"{name}.self_ms": total(name, "self_s") * 1e3 / n for name in PER_OP_SELF_MS})
    out.update({f"{name}.total_ms": total(name, "total_s") * 1e3 / n for name in PER_OP_TOTAL_MS})
    out.update({key: notes.get(key, 0) / n for key in PER_OP_NOTES})
    mle_calls = total("tomography.mle_reconstruct", "calls")
    converged = notes.get("tomography.mle_reconstruct.converged", 0)
    out["tomography.mle_reconstruct.converged_ratio"] = converged / mle_calls if mle_calls else 0.0
    return out


def interpreter_start_s(env: dict) -> float:
    """Median wall time of a bare ``python -c pass``."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measured_imports(env: dict) -> list:
    """``-X importtime`` breakdown of ``import infobell``, three fresh interpreters."""
    runs = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import infobell"],
                              env=env, capture_output=True, text=True, check=True)
        runs.append(import_times(proc.stderr))
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    ib = None
    if args.workload != "cli":
        import infobell as ib
    workdir = args.out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](ib, args.seed, workdir)
        warm = workload.make_input(0, WARMUP)
        warm_out, _, warm_error = attempt(workload.run, warm)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            stats = {}
            if ib is None:
                stats["start_s"] = interpreter_start_s(workload.env)
            result = run_traced(workload, ib, args.seconds, args.out_dir, stats)
            imports = stats.get("imports") or measured_imports(os.environ)
            for module in IMPORT_MODULES:
                values = [run.get(module, 0.0) for run in imports]
                result["per_layer"][f"import.{module}.cumulative_ms"] = statistics.median(values)
            run_s = stats.get("run_s", [])
            result["per_layer"]["cli.run_ms"] = statistics.fmean(run_s) * 1e3 if run_s else 0.0
        else:
            result = run_timed(workload, args.seconds)
            who = resource.RUSAGE_CHILDREN if ib is None else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        warm_failure = verify(workload, warm, warm_out, warm_error)
        result["attempted"] += 1
        if warm_failure:
            result["failed"] += 1
            result["failures"].append(f"warm-up: {warm_failure}")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
