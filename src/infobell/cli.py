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
    EDGE_NAMES,
    REFERENCE_THETAS,
    ViolationCurve,
    _uniform_grid,
    max_violation,
    quadrilateral,
    reactivity,
    schumacher_settings,
    sweep,
)
from .states import DensityMatrix, MeasurementSetting, _real, bell_state, modified_werner, visibility
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

_EDGE_COLUMNS = tuple(f"d_{edge}" for edge in EDGE_NAMES)


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


def _json_text(payload: dict) -> str:
    """``payload`` as indented JSON under the versioned envelope.

    A NaN or inf anywhere in the payload raises NonFiniteOutputError.
    """
    try:
        text = json.dumps({"format_version": 1, **payload}, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutputError(f"non-finite value in JSON output: {exc}") from None
    return text + "\n"


def _output(args, payload: dict, text=None) -> None:
    """Write a command's one result to stdout, or atomically to ``--output``.

    The result is ``payload`` as JSON under ``--json`` or when the command
    has no text form, and ``text()`` otherwise; only the chosen form is
    formatted.
    """
    out = _json_text(payload) if text is None or args.json else text()
    if args.output is None:
        sys.stdout.write(out)
    else:
        _atomic_write(args.output, out)


def _csv_text(header: str, columns, rows) -> str:
    """A versioned CSV: the header comment, the column row, then one line of
    cells per row of numbers, where None leaves its cell empty."""
    lines = [header, ",".join(columns)]
    lines += [",".join("" if x is None else _fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


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


def _number(text: str, name: str) -> float:
    """A text cell as a finite float through _real under ``name``; text that is no number names it too."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name} = {text!r} is not a number") from None
    return _real(value, name)


def _parse_floats(text: str, expected: int | None = None) -> list:
    values = [_number(part, f"number in {text!r}") for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"no numbers in {text!r}")
    if expected is not None and len(values) != expected:
        raise ValueError(f"expected {expected} comma-separated numbers, got {text!r}")
    return values


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be 'lo:hi:step', got {text!r}")
    lo, hi, step = (_number(part, f"range {text!r}") for part in parts)
    if step <= 0 or hi <= lo:
        raise ValueError(f"range must be increasing with positive step, got {text!r}")
    return _uniform_grid(lo, hi, step)


def curve_to_csv(curve: ViolationCurve) -> str:
    return _csv_text(CURVE_HEADER, ("theta", "v", "dv"), curve)


def curve_from_csv(path: str) -> ViolationCurve:
    """Read a curve from the curve CSV format or the wider run CSV format.

    Columns are located by the header row, so both layouts (theta,v,dv
    and theta,<edges...>,v,dv) parse; a missing or empty dv column
    yields a curve without uncertainties. A data row whose cell count
    differs from the header's, or a theta, v or dv cell that is not a
    finite number, is an error that names its line.
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
            rows.append((lineno, cells))
    if header is None or not rows:
        raise ValueError(f"curve file {path!r} has no data rows")

    def column(name):
        i = header.index(name)
        return [_number(cells[i], f"curve file {path!r} line {lineno}: {name}") for lineno, cells in rows]

    has_dv = "dv" in header and all(cells[header.index("dv")] != "" for _, cells in rows)
    return ViolationCurve(column("theta"), column("v"), column("dv") if has_dv else None)


def cmd_violation(args) -> int:
    rho = parse_state_spec(args.state)
    quad = quadrilateral(rho, _real(args.theta, "--theta"))
    edges = dict(zip(_EDGE_COLUMNS, quad.edges))
    lines = {**edges, "v": quad.violation}
    _output(args, {"theta": args.theta, "edges": edges, "v": quad.violation},
            lambda: "".join(f"{name} = {_fmt(value)}\n" for name, value in lines.items()))
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
    points = [{"theta": t, "v": v, "dv": dv} for t, v, dv in curve]
    _output(args, {"points": points}, lambda: curve_to_csv(curve))
    return 0


def run_rows_to_csv(rows) -> str:
    return _csv_text(RUN_HEADER, ("theta", *_EDGE_COLUMNS, "v", "dv"),
                     ((theta, *quad.edges, quad.violation, quad.violation_uncertainty) for theta, quad in rows))


def cmd_simulate(args) -> int:
    config = SimulationConfig.load(args.config)
    rows = simulate_sweep(config.state(), config.thetas, config.counts_per_mode, config.noise())
    runs = [
        {
            "theta": theta,
            "edges": dict(zip(_EDGE_COLUMNS, quad.edges)),
            "edge_uncertainties": {f"dd_{edge}": dd for edge, dd in zip(EDGE_NAMES, quad.uncertainties)},
            "v": quad.violation,
            "dv": quad.violation_uncertainty,
        }
        for theta, quad in rows
    ]
    _output(args, {"runs": runs}, lambda: run_rows_to_csv(rows))
    return 0


def cmd_tomo(args) -> int:
    result = mle_reconstruct(TomoDataset.from_csv(args.counts))
    _output(args, result.to_json_dict())
    if not result.converged:
        print("warning: likelihood maximization did not converge", file=sys.stderr)
        return 3
    return 0


def _chsh_settings(args):
    if args.optimal:
        return OPTIMAL_BELL_SETTINGS
    return tuple(MeasurementSetting(a) for a in _parse_floats(args.angles, expected=4))


def cmd_chsh(args) -> int:
    if args.counts is not None:
        result = mle_reconstruct(TomoDataset.from_csv(args.counts))
        if not result.converged:
            raise TomographyError("likelihood maximization did not converge")
        rho = result.rho_mle
    else:
        rho = parse_state_spec(args.state)
    value = chsh(rho, *_chsh_settings(args))
    _output(args, {"s": value}, lambda: f"s = {_fmt(value)}\n")
    return 0


def cmd_fit(args) -> int:
    curve = curve_from_csv(args.curve)
    fit = fit_werner(curve, weighted=args.weighted)
    _output(args, fit.to_json_dict())
    return 0


def reactivity_rows_to_csv(rows) -> str:
    return _csv_text(REACTIVITY_HEADER, ("lambda", "area", "volume", "reactivity"),
                     ((lam, r.mean_area, r.mean_volume, r.reactivity) for lam, r in rows))


def _reactivity_rows(lambdas, phase, samples, seed) -> list:
    return [(lam, reactivity(modified_werner(lam, phase, n_qubits=4), samples, seed)) for lam in lambdas]


def cmd_reactivity(args) -> int:
    rows = _reactivity_rows(_parse_floats(args.lambdas), args.phase, args.samples, args.seed)
    payload = [{"lambda": lam, **result.to_json_dict()} for lam, result in rows]
    _output(args, {"rows": payload}, lambda: reactivity_rows_to_csv(rows))
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

    rows = simulate_sweep(werner, REFERENCE_THETAS, args.counts, NoiseConfig(seed=args.seed))
    files["simulated_run.csv"] = run_rows_to_csv(rows)
    observed = np.array([(theta, quad.violation, quad.violation_uncertainty) for theta, quad in rows])
    fit = fit_werner(ViolationCurve(*observed.T))
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

    react_rows = _reactivity_rows([0.0, 0.2, 0.4, 0.6, 0.8], 0.0, args.samples, args.seed)
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
