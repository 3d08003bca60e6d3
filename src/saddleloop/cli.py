"""Command-line entry point.

Every module is exposed as a subcommand with reproducible runs: a run is
fully described by its flags, and every run writes its artifact plus a
manifest echoing the config, the toolkit version, and wall time.
Artifacts are deterministic for a fixed config; the manifest is not (it
carries the wall time).  ``--config FILE`` holds flags too: the keys of
its JSON object become --key=value flags read after the command line,
so they override it and the subcommand's own parser checks them.

The parser is the input policy: a ``melnikov`` or ``sim`` run is parsed
with only the flags its family (and for ``sim`` its ``--census`` or
``--traj`` mode) reads, the ones it needs required, so a flag of another
family or mode fails as an unrecognized argument instead of being
dropped.  The manifest echoes every setting of the parsed run.

Exit codes: 0 success, 1 hard failure, 2 invalid config, 3 degraded
(artifact written, but one or more numerical quality flags were raised).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, abelian, acceptance, centroid, melnikov, picard_fuchs
from .flowsim import (CENSUS_POINTS, FLOW_TOL, RETURN_T_MAX, FlowSpec,
                      QuadraticOneForm, appendix_flow, census, integrate)
from .model import (Annulus, Family, HamiltonianSpec, MelnikovCoeffs,
                    PerturbationSpec, critical_data)

OUT_DIR_ENV = "SADDLELOOP_OUT_DIR"
TRAJ_T = 100.0          # sim --traj duration when --T is not given


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_grid(text: str, field: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{field}: expected LO:HI:N, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    if n < 1:
        raise ConfigError(f"{field}: need at least one point")
    return np.linspace(lo, hi, n)


def _parse_pair(text: str, field: str) -> tuple[float, float]:
    sep = ":" if ":" in text else ","
    parts = text.split(sep)
    if len(parts) != 2:
        raise ConfigError(f"{field}: expected two values, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def _parse_coeffs(text: str, field: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 6:
        raise ConfigError(f"{field}: expected 6 comma-separated coefficients "
                          f"(1, x, y, x^2, x*y, y^2), got {len(parts)}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def _annulus(name: str) -> Annulus:
    return Annulus.SIGMA_PLUS if name == "plus" else Annulus.SIGMA_MINUS


def _out_path(args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    base = os.environ.get(OUT_DIR_ENV, ".")
    return Path(base) / default_name


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    # serialize before opening: a payload json cannot encode must not
    # leave a truncated file behind
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_manifest(path: Path, config: dict, artifacts: list[str],
                    wall: float, flags: list[str]) -> None:
    _write_json(Path(str(path) + ".manifest.json"), {
        "config": config,
        "version": __version__,
        "wall_time_s": wall,
        "artifacts": artifacts,
        "degraded": bool(flags),
        "flags": flags,
    })


def _spec_for(args) -> HamiltonianSpec:
    if args.family == "appendix":
        return HamiltonianSpec(family=Family.APPENDIX_ELLIPSE)
    return HamiltonianSpec(family=Family.NORMAL_FORM, a=args.a)


def _artifact(cmd):
    """The tail every artifact command shares.  cmd(args) writes its
    artifact and returns (path, quality flags); the manifest echoes
    every setting the run was parsed with, its wall time covers the
    whole of cmd, and any flag makes the exit code 3."""
    @functools.wraps(cmd)
    def run(args) -> int:
        t0 = time.time()
        out, flags = cmd(args)
        config = {k: v for k, v in vars(args).items() if v is not None
                  and k not in ("command", "fn", "out", "config", "mode")}
        _write_manifest(out, config, [str(out)], time.time() - t0, flags)
        print(out)
        return 3 if flags else 0
    return run


@_artifact
def cmd_abelian(args):
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=float(args.a))
    ts = _parse_grid(args.t_grid, "t-grid")
    tr = abelian.triples_on_grid(spec, _annulus(args.annulus), ts,
                                 tol=args.tol)
    out = _out_path(args, "abelian.csv")
    cols = (tr.t, tr.jm1, tr.j0, tr.j1, *tr.err.T, tr.converged.astype(int))
    _write_csv(out, ["t", "j_minus1", "j0", "j1",
                     "err_minus1", "err0", "err1", "converged"],
               zip(*(c.tolist() for c in cols)))
    flags = [f"row t={t:g} not converged" for t in tr.t[~tr.converged]]
    return out, flags


@_artifact
def cmd_pf(args):
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=float(args.a))
    sys_ = picard_fuchs.pf_system(spec)
    fund = picard_fuchs.fundamental(spec, order=args.order)
    out = _out_path(args, "pf.json")
    payload = {
        "a": float(args.a),
        "A1": sys_.A1.tolist(),
        "A0": sys_.A0.tolist(),
        "B": sys_.B.tolist(),
        "log_coefficient": fund.lam,
        "p_const": np.asarray(fund.p_const).tolist(),
        "p_lin": np.asarray(fund.p_lin).tolist(),
        "q": np.asarray(fund.q).tolist(),
    }
    _write_json(out, payload)
    return out, []


@_artifact
def cmd_melnikov(args):
    out = _out_path(args, "melnikov.csv")
    spec = _spec_for(args)
    if args.family == "appendix":
        col, xs = "h", _parse_grid(args.h_grid, "h-grid")
        h_center = critical_data(spec).center0.energy
        if np.any(xs >= 0.0) or np.any(xs <= h_center):
            raise ConfigError("h-grid: appendix ovals live in (-4/3, 0)")
        vals, conv = melnikov.values_on_grid(
            melnikov.APPENDIX_NORMAL_FORM, melnikov.appendix_coeffs(args.mu2),
            Annulus.SIGMA_PLUS, melnikov.APPENDIX_T_PER_H * xs, tol=args.tol)
    else:
        coeffs = MelnikovCoeffs(alpha=args.alpha, beta=args.beta,
                                gamma=args.gamma,
                                order_k=2 if args.gamma else 1)
        col, xs = "t", _parse_grid(args.t_grid, "t-grid")
        vals, conv = melnikov.values_on_grid(spec, coeffs,
                                             _annulus(args.annulus), xs,
                                             tol=args.tol)
    _write_csv(out, [col, "value"], zip(xs.tolist(), vals.tolist()))
    flags = [f"row {col}={x:g} not converged" for x in xs[~conv]]
    return out, flags


@_artifact
def cmd_centroid(args):
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=float(args.a))
    curve = centroid.sample_curve(spec, _annulus(args.annulus), n=args.n,
                                  tol=args.tol)
    out = _out_path(args, "centroid.csv")
    rows = list(zip((float(t) for t in curve.ts),
                    (float(x) for x in curve.xi),
                    (float(e) for e in curve.eta)))
    _write_csv(out, ["t", "xi", "eta"], rows)
    flags = [] if curve.converged else ["curve quadrature not converged"]
    return out, flags


def _sim_flow(args) -> FlowSpec:
    spec = _spec_for(args)
    if args.family == "appendix":
        pert = PerturbationSpec(epsilon=args.eps, mu1=args.mu1, mu2=args.mu2,
                                c=args.c)
        return appendix_flow(spec, pert, tol=args.tol)
    f = _parse_coeffs(args.f, "f") if args.f else (0.0,) * 6
    g = _parse_coeffs(args.g, "g") if args.g else (0.0,) * 6
    one_form = QuadraticOneForm(f=f, g=g)
    return FlowSpec(hamiltonian=spec, epsilon=args.eps, one_form=one_form,
                    tol=args.tol)


@_artifact
def cmd_sim(args):
    flow = _sim_flow(args)
    if args.mode == "census":
        out = _out_path(args, "census.json")
        s_range = (_parse_pair(args.window, "window")
                   if args.window else None)
        res = census(flow, annulus=_annulus(args.annulus), s_range=s_range,
                     n=args.n, T_max=RETURN_T_MAX if args.T is None else args.T,
                     with_saddle_data=True)
        payload = {
            "family": args.family,
            "epsilon": args.eps,
            "grid_size": res.grid_size,
            "window": list(res.window),
            "degenerate_continuum": res.degenerate_continuum,
            "no_return_count": res.no_return_count,
            "outcomes": res.outcomes,
            "refine_rounds": res.refine_rounds,
            "refine_lanes": res.refine_lanes,
            "cycles": [{
                "section_coordinate": c.section_coordinate,
                "energy": c.energy_estimate,
                "stability": c.stability,
                "return_derivative": c.return_derivative,
            } for c in res.cycles],
        }
        flags = [f"cycle at s={c.section_coordinate:.6g} stability undetermined"
                 for c in res.cycles if c.stability == "undetermined"]
        if res.outcomes.get("failed"):
            flags.append(f"{res.outcomes['failed']} census lanes failed")
        for key, names, pair in (
                ("traces", ("sigma1", "sigma2"), res.saddle_traces),
                ("shifts", ("b1", "b2"), res.shifts)):
            if pair is not None:
                payload[key] = dict(zip(names, pair))
        # an appendix scan measures both; a missing one is flagged
        flags += [f"{key} not measured: {why}"
                  for key, why in res.unmeasured.items()]
        _write_json(out, payload)
        return out, flags

    out = _out_path(args, "traj.csv")
    traj = integrate(flow, np.array(_parse_pair(args.start, "start")),
                     TRAJ_T if args.T is None else args.T)
    rows = [(float(t), float(z[0]), float(z[1]), float(flow.energy(z)))
            for t, z in zip(traj.ts, traj.states)]
    _write_csv(out, ["t", "x", "y", "H"], rows)
    flags = (["integration failed before reaching T"]
             if traj.status == "failed" else [])
    return out, flags


def cmd_verify(args) -> int:
    if args.criteria:
        try:
            numbers = tuple(int(p) for p in args.criteria.split(","))
        except ValueError as exc:
            raise ConfigError(f"criteria: {exc}") from exc
        bad = [n for n in numbers if n not in acceptance.CRITERIA]
        if bad:
            raise ConfigError(f"criteria: unknown criterion {bad}")
    elif args.quick:
        numbers = acceptance.QUICK
    elif args.slow:
        numbers = acceptance.ALL
    else:
        numbers = acceptance.DEFAULT
    results = acceptance.run(numbers)
    print(acceptance.format_table(results))
    if args.out:
        payload = {
            "results": [{
                "number": r.number, "title": r.title, "passed": r.passed,
                "runtime_s": r.runtime_s, "budget_s": r.budget_s,
                "detail": r.detail,
            } for r in results],
            "version": __version__,
        }
        _write_json(Path(args.out), payload)
    return 0 if all(r.passed for r in results) else 1


def _add_common(p) -> None:
    p.add_argument("--out", help="artifact path (default: subcommand name "
                   f"under ${OUT_DIR_ENV} or the working directory)")
    p.add_argument("--config", help="JSON object of flags (key: value) "
                   "read after the command line")


def build_parser(run) -> argparse.ArgumentParser:
    """The saddleloop parser.  With run None every subcommand holds all its
    flags, which -h lists, and requires none, so that a --config file
    can supply any of them.  Given run, the namespace of that full
    parse, it is the run's own parser: every subcommand requires the
    flags its run needs, and melnikov and sim hold only the flags their
    --family (and for sim its --census or --traj mode) reads, so any
    other flag fails as an unrecognized argument."""
    full = run is None
    family, mode = getattr(run, "family", None), getattr(run, "mode", None)
    normal, appendix = family in (None, "normal"), family in (None, "appendix")
    ap = argparse.ArgumentParser(
        prog="saddleloop",
        description="Numerics for limit cycles bifurcating from two-saddle "
                    "loops of quadratic Hamiltonian systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("abelian", help="integral triples on a parameter grid")
    p.add_argument("--a", type=float, required=not full)
    p.add_argument("--annulus", choices=("plus", "minus"), default="plus")
    p.add_argument("--t-grid", required=not full, metavar="LO:HI:N")
    p.add_argument("--tol", type=float, default=abelian.QUAD_TOL)
    _add_common(p)
    p.set_defaults(fn=cmd_abelian)

    p = sub.add_parser("pf", help="ODE system and fundamental series")
    p.add_argument("--a", type=float, required=not full)
    p.add_argument("--order", type=int, default=8)
    _add_common(p)
    p.set_defaults(fn=cmd_pf)

    p = sub.add_parser("melnikov", help="first-order displacement function")
    p.add_argument("--family", choices=("normal", "appendix"),
                   default="normal")
    if normal:
        p.add_argument("--a", type=float, default=1.0)
        p.add_argument("--annulus", choices=("plus", "minus"), default="plus")
        p.add_argument("--alpha", type=float, required=not full)
        p.add_argument("--beta", type=float, required=not full)
        p.add_argument("--gamma", type=float, default=0.0)
        p.add_argument("--t-grid", metavar="LO:HI:N", required=not full)
    if appendix:
        p.add_argument("--mu2", type=float, default=0.0)
        p.add_argument("--h-grid", metavar="LO:HI:N", required=not full)
    p.add_argument("--tol", type=float, default=abelian.QUAD_TOL)
    _add_common(p)
    p.set_defaults(fn=cmd_melnikov)

    p = sub.add_parser("centroid", help="centroid curve samples")
    p.add_argument("--a", type=float, required=not full)
    p.add_argument("--annulus", choices=("plus", "minus"), default="plus")
    p.add_argument("--n", type=int, default=centroid.CURVE_POINTS)
    p.add_argument("--tol", type=float, default=abelian.QUAD_TOL)
    _add_common(p)
    p.set_defaults(fn=cmd_centroid)

    p = sub.add_parser("sim", help="direct flow simulation")
    p.add_argument("--family", choices=("normal", "appendix"),
                   default="appendix")
    if normal:
        p.add_argument("--a", type=float, default=1.0)
        p.add_argument("--f", help="6 comma-separated coefficients "
                       "(normal family)")
        p.add_argument("--g", help="6 comma-separated coefficients "
                       "(normal family)")
    if appendix:
        p.add_argument("--c", type=float, default=PerturbationSpec.c,
                       help="appendix perturbation's x*y coefficient "
                       "(default %(default)g)")
        p.add_argument("--mu1", type=float, default=0.0)
        p.add_argument("--mu2", type=float, default=0.0)
    p.add_argument("--eps", type=float, required=not full)
    g = p.add_mutually_exclusive_group(required=not full)
    g.add_argument("--census", dest="mode", action="store_const",
                   const="census")
    g.add_argument("--traj", dest="mode", action="store_const", const="traj")
    if mode in (None, "census"):
        p.add_argument("--annulus", choices=("plus", "minus"), default="plus")
        p.add_argument("--window", metavar="LO:HI",
                       help="section window for the census")
        p.add_argument("--n", type=int, default=CENSUS_POINTS,
                       help="census grid size")
    if mode in (None, "traj"):
        p.add_argument("--start", metavar="X,Y", required=mode == "traj")
    p.add_argument("--T", type=float, default=None,
                   help=f"duration: trajectory length (default {TRAJ_T:g}) "
                   f"or return-map time limit (default {RETURN_T_MAX:g})")
    p.add_argument("--tol", type=float, default=FLOW_TOL)
    _add_common(p)
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("verify", help="run the acceptance suite")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--quick", action="store_true",
                   help="criteria 1-7 (no flow simulation)")
    g.add_argument("--slow", action="store_true",
                   help="all criteria including the long census scan")
    g.add_argument("--criteria", help="comma-separated criterion numbers")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)
    # an unknown flag is an error, never read as the prefix of another
    # (melnikov --c would otherwise become --config)
    for p in sub.choices.values():
        p.allow_abbrev = False
    return ap


def _merge_dash_values(argv: list[str]) -> list[str]:
    """argparse refuses "--t-grid -1.9:..." because the value looks like
    an option, so a --flag followed by a token that starts with a minus
    sign and a digit or a point becomes one "--flag=value" token."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok.startswith("--") and "=" not in tok
                and re.match(r"-[\d.]", nxt)):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _config_flags(path: str) -> list[str]:
    """The JSON object of a --config file as flags of the subcommand:
    each key in flag spelling, true as the bare switch, a string or a
    number as --key=value.  There is no flag for false, so it is an
    error, as are null, lists and objects."""
    try:
        overrides = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError("config: top level must be an object")
    flags = []
    for key, val in overrides.items():
        flag = "--" + key.replace("_", "-")
        if flag in ("--help", "--config"):
            raise ConfigError(f"config: {key!r} is not a run setting")
        if val is True:
            flags.append(flag)
        elif isinstance(val, (str, int, float)) and not isinstance(val, bool):
            flags.append(f"{flag}={val}")
        else:
            raise ConfigError(f"config: {key}: expected true, a string or "
                              f"a number, got {json.dumps(val)}")
    return flags


def main(argv=None) -> int:
    argv = _merge_dash_values(list(sys.argv[1:] if argv is None else argv))
    args = build_parser(None).parse_args(argv)
    try:
        # config flags come last, so they override the command line and
        # argparse converts and checks them as it does every flag
        if args.config:
            argv += _config_flags(args.config)
            args = build_parser(None).parse_args(argv)
        # the run's family and mode pick the flags it is parsed with
        args = build_parser(args).parse_args(argv)
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # hard failure: keep the message, lose the trace
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
