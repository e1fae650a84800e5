"""Command-line front end.

Subcommands mirror the library layers: exact model quantities
(violation, sweep, chsh), finite-statistics simulation (simulate),
reconstruction from data (tomo, fit), the multipartite scan
(reactivity), and a composite demo (reproduce). Numbers print with 6
significant digits, every file format carries a versioned header, file
writes are atomic (temp file + rename), and exit codes are 0 on
success, 2 for usage or input errors, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

import numpy as np

from .expsim import (
    ConfigError,
    EstimationError,
    NoiseConfig,
    SimulationConfig,
    simulate_sweep,
)
from .fitting import fit_werner
from .infogeo import (
    REFERENCE_THETAS,
    ViolationCurve,
    max_violation,
    quadrilateral,
    reactivity,
    schumacher_settings,
    sweep,
)
from .states import DensityMatrix, MeasurementSetting, bell_state, modified_werner, visibility
from .tomography import (
    OPTIMAL_BELL_SETTINGS,
    TomoDataset,
    TomographyError,
    chsh,
    mle_reconstruct,
)

__all__ = ["main", "build_parser", "parse_state_spec"]

CURVE_HEADER = "# infobell curve v1"
RUN_HEADER = "# infobell run v1"
REACTIVITY_HEADER = "# infobell reactivity v1"

_EDGE_COLUMNS = ("d_a1b1", "d_a2b1", "d_a2b2", "d_a1b2")


class NonFiniteOutputError(RuntimeError):
    """A result to be written holds NaN or inf."""


def _fmt(x: float) -> str:
    """Six significant digits; NaN or inf raises NonFiniteOutputError."""
    x = float(x)
    if not np.isfinite(x):
        raise NonFiniteOutputError(f"non-finite value in text output: {x}")
    return f"{x:.6g}"


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file and rename, so failures never leave partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".infobell-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _json_text(payload: dict) -> str:
    """``payload`` as indented JSON under the versioned envelope.

    A NaN or inf anywhere in the payload raises NonFiniteOutputError.
    """
    try:
        text = json.dumps({"format_version": 1, **payload}, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutputError(f"non-finite value in JSON output: {exc}") from None
    return text + "\n"


def _emit_json(payload: dict, path: str | None) -> None:
    _emit(_json_text(payload), path)


def parse_state_spec(spec: str) -> DensityMatrix:
    """Parse "bell", "bell:<kind>", or "werner:<lambda>,<phase>"."""
    s = spec.strip().lower()
    if s == "bell":
        return bell_state("phi+").density_matrix()
    if s.startswith("bell:"):
        return bell_state(s[len("bell:"):]).density_matrix()
    if s.startswith("werner:"):
        parts = s[len("werner:"):].split(",")
        if len(parts) != 2:
            raise ValueError(f"werner spec needs 'werner:<lambda>,<phase>', got {spec!r}")
        return modified_werner(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse state spec {spec!r}")


def _finite(value: float, what: str) -> float:
    if not np.isfinite(value):
        raise ValueError(f"{what} is not finite: {value}")
    return value


def _parse_floats(text: str, expected: int | None = None) -> list:
    values = [_finite(float(part), f"number in {text!r}") for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"no numbers in {text!r}")
    if expected is not None and len(values) != expected:
        raise ValueError(f"expected {expected} comma-separated numbers, got {text!r}")
    return values


def _parse_range(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"range must be 'lo:hi:step', got {text!r}") from None
    for value in (lo, hi, step):
        _finite(value, f"range {text!r}")
    if step <= 0 or hi <= lo:
        raise ValueError(f"range must be increasing with positive step, got {text!r}")
    return np.arange(lo, hi + step / 2.0, step)


def curve_to_csv(curve: ViolationCurve) -> str:
    lines = [CURVE_HEADER, "theta,v,dv"]
    for theta, v, dv in curve:
        lines.append(f"{_fmt(theta)},{_fmt(v)},{'' if dv is None else _fmt(dv)}")
    return "\n".join(lines) + "\n"


def curve_from_csv(path: str) -> ViolationCurve:
    """Read a curve from the curve CSV format or the wider run CSV format.

    Columns are located by the header row, so both layouts (theta,v,dv
    and theta,<edges...>,v,dv) parse; a missing or empty dv column
    yields a curve without uncertainties. A data row whose cell count
    differs from the header's is an error that names its line.
    """
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            if header is None:
                header = [c.lower() for c in cells]
                if "theta" not in header or "v" not in header:
                    raise ValueError(f"curve file {path!r} lacks theta/v columns")
                continue
            if len(cells) != len(header):
                raise ValueError(f"curve file {path!r} line {lineno} has {len(cells)} cells "
                                 f"but its header has {len(header)}")
            rows.append(cells)
    if header is None or not rows:
        raise ValueError(f"curve file {path!r} has no data rows")
    i_theta, i_v = header.index("theta"), header.index("v")
    i_dv = header.index("dv") if "dv" in header else None
    thetas = np.array([float(r[i_theta]) for r in rows])
    v = np.array([float(r[i_v]) for r in rows])
    dv = None
    if i_dv is not None and all(r[i_dv] != "" for r in rows):
        dv = np.array([float(r[i_dv]) for r in rows])
    return ViolationCurve(thetas, v, dv)


def cmd_violation(args) -> int:
    rho = parse_state_spec(args.state)
    quad = quadrilateral(rho, _finite(args.theta, "--theta"))
    if args.json:
        edges = dict(zip(_EDGE_COLUMNS, quad.edges))
        _emit_json({"theta": args.theta, "edges": edges, "v": quad.violation}, args.output)
    else:
        lines = [f"{name} = {_fmt(value)}" for name, value in zip(_EDGE_COLUMNS, quad.edges)]
        lines.append(f"v = {_fmt(quad.violation)}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _sweep_thetas(args) -> np.ndarray:
    if args.reference_grid:
        return np.array(REFERENCE_THETAS)
    if args.range:
        return _parse_range(args.range)
    return np.array(_parse_floats(args.thetas))


def cmd_sweep(args) -> int:
    rho = parse_state_spec(args.state)
    curve = sweep(rho, _sweep_thetas(args))
    if args.json:
        _emit_json({"points": [{"theta": t, "v": v, "dv": dv} for t, v, dv in curve]}, args.output)
    else:
        _emit(curve_to_csv(curve), args.output)
    return 0


def run_rows_to_csv(rows) -> str:
    lines = [RUN_HEADER, "theta," + ",".join(_EDGE_COLUMNS) + ",v,dv"]
    for theta, quad in rows:
        cells = [_fmt(theta)]
        cells += [_fmt(d) for d in quad.edges]
        cells.append(_fmt(quad.violation))
        dv = quad.violation_uncertainty
        cells.append("" if dv is None else _fmt(dv))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    config = SimulationConfig.load(args.config)
    rows = simulate_sweep(config.state(), config.thetas, config.counts_per_mode, config.noise())
    if args.json:
        payload = {
            "runs": [
                {
                    "theta": theta,
                    "edges": dict(zip(_EDGE_COLUMNS, quad.edges)),
                    "edge_uncertainties": dict(
                        zip(("dd_a1b1", "dd_a2b1", "dd_a2b2", "dd_a1b2"), quad.uncertainties)
                    ),
                    "v": quad.violation,
                    "dv": quad.violation_uncertainty,
                }
                for theta, quad in rows
            ],
        }
        _emit_json(payload, args.output)
    else:
        _emit(run_rows_to_csv(rows), args.output)
    return 0


def cmd_tomo(args) -> int:
    data = TomoDataset.from_csv(args.counts)
    result = mle_reconstruct(data)
    _emit_json(result.to_json_dict(), args.output)
    if not result.converged:
        print("warning: likelihood maximization did not converge", file=sys.stderr)
        return 3
    return 0


def _chsh_settings(args):
    if args.optimal:
        return OPTIMAL_BELL_SETTINGS
    if args.angles is None:
        raise ValueError("chsh needs --angles a1,a2,b1,b2 or --optimal")
    return tuple(MeasurementSetting(a) for a in _parse_floats(args.angles, expected=4))


def cmd_chsh(args) -> int:
    if args.counts is not None:
        rho = mle_reconstruct(TomoDataset.from_csv(args.counts)).rho_mle
    else:
        rho = parse_state_spec(args.state)
    value = chsh(rho, *_chsh_settings(args))
    if args.json:
        _emit_json({"s": value}, args.output)
    else:
        _emit(f"s = {_fmt(value)}\n", args.output)
    return 0


def cmd_fit(args) -> int:
    curve = curve_from_csv(args.curve)
    fit = fit_werner(curve, weighted=args.weighted)
    _emit_json(fit.to_json_dict(), args.output)
    return 0


def reactivity_rows_to_csv(rows) -> str:
    lines = [REACTIVITY_HEADER, "lambda,area,volume,reactivity"]
    for lam, result in rows:
        lines.append(
            f"{_fmt(lam)},{_fmt(result.mean_area)},{_fmt(result.mean_volume)},{_fmt(result.reactivity)}"
        )
    return "\n".join(lines) + "\n"


def cmd_reactivity(args) -> int:
    lambdas = _parse_floats(args.lambdas)
    rows = []
    for lam in lambdas:
        state = modified_werner(lam, args.phase, n_qubits=4)
        rows.append((lam, reactivity(state, args.samples, args.seed)))
    if args.json:
        payload = [{"lambda": lam, **result.to_json_dict()} for lam, result in rows]
        _emit_json({"rows": payload}, args.output)
    else:
        _emit(reactivity_rows_to_csv(rows), args.output)
    return 0


def cmd_reproduce(args) -> int:
    """Run the full demonstration pipeline into a results directory; a failing run writes nothing."""
    files = {}
    summary = []

    bell = bell_state("phi+").density_matrix()
    werner = modified_werner(0.998, 0.225)

    quad = quadrilateral(bell, np.pi / 8.0)
    summary.append("Single-angle quadrilateral, ideal Bell state, theta = pi/8")
    for name, value in zip(_EDGE_COLUMNS, quad.edges):
        summary.append(f"  {name} = {_fmt(value)}")
    summary.append(f"  v = {_fmt(quad.violation)}  (positive = triangle violation)")

    theta_star, v_star = max_violation(bell)
    summary.append(f"Peak violation (dense scan): theta* = {_fmt(theta_star)}, v* = {_fmt(v_star)}")

    files["bell_curve.csv"] = curve_to_csv(sweep(bell, REFERENCE_THETAS))
    files["werner_curve.csv"] = curve_to_csv(sweep(werner, REFERENCE_THETAS))

    noise = NoiseConfig(accidental_mean=6.0, angle_sigma=0.0030, seed=args.seed)
    rows = simulate_sweep(werner, REFERENCE_THETAS, args.counts, noise)
    files["simulated_run.csv"] = run_rows_to_csv(rows)
    observed = ViolationCurve(
        np.array([theta for theta, _ in rows]),
        np.array([quad.violation for _, quad in rows]),
        np.array([quad.violation_uncertainty for _, quad in rows]),
    )
    fit = fit_werner(observed)
    files["fit.json"] = _json_text(fit.to_json_dict())
    summary.append(
        f"Simulated run ({args.counts} counts/mode, seed {args.seed}) refit: "
        f"lambda = {_fmt(fit.lam)}, phase = {_fmt(fit.phase)}"
    )

    s_bell = chsh(bell, *OPTIMAL_BELL_SETTINGS)
    s_werner = chsh(werner, *schumacher_settings(np.pi / 8.0))
    summary.append(f"CHSH: ideal Bell at optimal settings s = {_fmt(s_bell)}")
    summary.append(f"CHSH: werner(0.998, 0.225) at quadrilateral pi/8 settings s = {_fmt(s_werner)}")
    summary.append(
        f"Visibility of werner(0.998, 0.225): HV = {_fmt(visibility(werner, 'HV'))}, "
        f"DA = {_fmt(visibility(werner, 'DA'))}"
    )

    lambdas = [0.0, 0.2, 0.4, 0.6, 0.8]
    react_rows = [
        (lam, reactivity(modified_werner(lam, 0.0, n_qubits=4), args.samples, args.seed))
        for lam in lambdas
    ]
    files["reactivity.csv"] = reactivity_rows_to_csv(react_rows)
    values = [result.reactivity for _, result in react_rows]
    trend = "increasing" if all(b > a for a, b in zip(values, values[1:])) else "NOT increasing"
    summary.append(
        f"Reactivity scan ({args.samples} samples/point, seed {args.seed}): "
        + ", ".join(_fmt(v) for v in values)
        + f"  ({trend} in lambda)"
    )
    files["summary.txt"] = "\n".join(summary) + "\n"

    os.makedirs(args.output, exist_ok=True)
    for name, text in files.items():
        _atomic_write(os.path.join(args.output, name), text)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infobell",
        description="Information-distance Bell tests: exact curves, simulated runs, "
        "tomography, model fits, and multipartite reactivity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, json_flag=True):
        p.add_argument("--output", "-o", metavar="PATH", help="write to file instead of stdout")
        if json_flag:
            fmt = p.add_mutually_exclusive_group()
            fmt.add_argument("--json", action="store_true", help="emit JSON")
            fmt.add_argument("--csv", dest="json", action="store_false", help="emit CSV/text (default)")

    p = sub.add_parser("violation", help="edge distances and V at one angle")
    p.add_argument("--state", required=True, help='"bell", "bell:<kind>" or "werner:<lambda>,<phase>"')
    p.add_argument("--theta", type=float, required=True, help="quadrilateral angle, radians (Stokes)")
    add_output(p)
    p.set_defaults(func=cmd_violation)

    p = sub.add_parser("sweep", help="exact violation curve over an angle grid")
    p.add_argument("--state", required=True)
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--reference-grid", action="store_true",
                      help="use the built-in eight-angle reference grid")
    grid.add_argument("--range", metavar="LO:HI:STEP", help="uniform grid, radians")
    grid.add_argument("--thetas", metavar="T1,T2,...", help="explicit angle list, radians")
    add_output(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="finite-statistics run from a JSON config")
    p.add_argument("--config", required=True, metavar="FILE",
                   help="JSON: {state:{lambda,phase}, thetas, counts_per_mode, "
                   "accidental_mean, angle_sigma, seed}")
    add_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tomo", help="maximum-likelihood tomography from mode counts")
    p.add_argument("--counts", required=True, metavar="FILE", help='CSV of "label,counts" rows')
    add_output(p, json_flag=False)
    p.set_defaults(func=cmd_tomo)

    p = sub.add_parser("chsh", help="CHSH S value for a state or a counts file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--state")
    source.add_argument("--counts", metavar="FILE", help="tomography counts; uses the MLE state")
    angles = p.add_mutually_exclusive_group(required=True)
    angles.add_argument("--angles", metavar="A1,A2,B1,B2", help="Stokes angles, radians")
    angles.add_argument("--optimal", action="store_true",
                        help="settings maximizing |S| for an ideal Bell state")
    add_output(p)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("fit", help="least-squares mixed-state model fit to a curve file")
    p.add_argument("--curve", required=True, metavar="FILE", help="curve or run CSV")
    p.add_argument("--weighted", action="store_true", help="weight points by 1/dv^2")
    add_output(p, json_flag=False)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("reactivity", help="area/volume ratio scan over mixing weights")
    p.add_argument("--lambdas", required=True, metavar="L1,L2,...")
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True)
    add_output(p)
    p.set_defaults(func=cmd_reactivity)

    p = sub.add_parser("reproduce", help="run the full demonstration pipeline into a directory")
    p.add_argument("--output", "-o", required=True, metavar="DIR")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--counts", type=int, default=350, help="coincidences per mode (default 350)")
    p.add_argument("--samples", type=int, default=2000,
                   help="reactivity samples per point (default 2000)")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, TomographyError, NonFiniteOutputError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
