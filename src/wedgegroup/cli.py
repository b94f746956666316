"""Command-line front end.

Subcommands expose the polar decomposition, the reflection factorization,
reconstruction verification for a supplied map description, the modular
computation, and the acceptance suite.  I/O is JSON only: input comes from
stdin or --file, output is one canonical JSON document on stdout (sorted
keys, fixed float precision, so identical invocations are byte-identical).
Human-readable diagnostics go to stderr.

Exit codes: 0 success, 1 failed check or rejected input values, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

import numpy as np

from .errors import BadSpec, WedgeGroupError
from .minkowski import LorentzElement, frobenius, make_boost, make_rotation, polar_decompose
from .modular import MatrixAlgebra, modular_data
from .reconstruction import builtin_map, verify_axioms, verify_homomorphism
from .reflections import factor_into_reflections
from .sampling import random_unit3
from .serialization import (
    _real_list,
    canonical_dumps,
    complex_matrix_from_json,
    complex_matrix_to_json,
    complex_vector_from_json,
    matrix_to_json,
    reflection_to_json,
)
from .suite import run_suite

__all__ = [
    "CommandResult",
    "cmd_polar",
    "cmd_factor",
    "cmd_reconstruct",
    "cmd_modular",
    "cmd_suite",
    "main",
    "entrypoint",
]

_EXIT_CODES = {"ok": 0, "fail": 1, "error": 2}


class CommandResult(NamedTuple):
    status: str
    payload: object
    diagnostics: tuple = ()

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]


def _fail(exc) -> CommandResult:
    return CommandResult(
        "fail",
        {"error": type(exc).__name__, "message": str(exc)},
        (f"{type(exc).__name__}: {exc}",),
    )


def _parse_lorentz(data) -> np.ndarray:
    return _real_list(data, 16).reshape(4, 4)


def cmd_polar(data, tol=None) -> CommandResult:
    """Rotation/boost split of a 4x4 matrix given as 16 reals (row-major)."""
    values = _parse_lorentz(data)
    try:
        lam = LorentzElement(values, tol=tol)
        pd = polar_decompose(lam, tol=tol)
    except (WedgeGroupError, ValueError) as exc:
        return _fail(exc)
    residual = frobenius(pd.rotation.m @ pd.boost.m - lam.m)
    payload = {
        "R": matrix_to_json(pd.rotation),
        "B": matrix_to_json(pd.boost),
        "axis": None if pd.axis is None else [float(c) for c in pd.axis],
        "angle": pd.angle,
        "boost_dir": None if pd.boost_dir is None else [float(c) for c in pd.boost_dir],
        "rapidity": pd.rapidity,
        "residual": residual,
    }
    return CommandResult("ok", payload)


def cmd_factor(data=None, seed=42, random=False, tol=None) -> CommandResult:
    """Two-reflection factorization of a matrix (or of a seeded random one)."""
    if random:
        rng = np.random.default_rng(seed)
        lam_m = (
            make_rotation(random_unit3(rng), float(rng.uniform(0.0, np.pi)))
            @ make_boost(random_unit3(rng), float(rng.uniform(0.0, 3.0)))
        ).m
    else:
        lam_m = _parse_lorentz(data)
    try:
        lam = LorentzElement(lam_m, tol=tol)
        r1, r2 = factor_into_reflections(lam, tol=tol)
    except (WedgeGroupError, ValueError) as exc:
        return _fail(exc)
    residual = frobenius((r1.element @ r2.element).lorentz.m - lam.m)
    payload = {
        "matrix": matrix_to_json(lam),
        "reflections": [reflection_to_json(r1), reflection_to_json(r2)],
        "residual": residual,
    }
    return CommandResult("ok", payload)


def cmd_reconstruct(spec, samples=200, seed=42, tol=None) -> CommandResult:
    """Axiom audit plus group-law audit for a described reflection map."""
    jmap = builtin_map(spec)  # BadSpec propagates to the usage-error handler
    diagnostics = ()
    if samples == 0:
        diagnostics += ("warning: samples = 0, both checks are vacuous",)
    axioms = verify_axioms(jmap, samples, seed)
    try:
        homomorphism = verify_homomorphism(jmap, samples, seed, tol=tol)
    except WedgeGroupError as exc:
        homomorphism = {
            "check": "homomorphism",
            "samples": 0,
            "max_residual": 1.0,
            "pass": False,
        }
        diagnostics += (f"homomorphism audit aborted: {exc}",)
    ok = axioms["pass"] and homomorphism["pass"]
    payload = {"axioms": axioms, "homomorphism": homomorphism}
    return CommandResult("ok" if ok else "fail", payload, diagnostics)


def cmd_modular(data, tol=None) -> CommandResult:
    """Modular conjugation and operator for an algebra/vector pair."""
    if not isinstance(data, dict) or "algebra" not in data or "vector" not in data:
        raise ValueError("expected an object with 'algebra' and 'vector'")
    algebra_spec = data["algebra"]
    if not isinstance(algebra_spec, dict) or "generators" not in algebra_spec:
        raise ValueError("algebra must be an object with 'd' and 'generators'")
    generators = [complex_matrix_from_json(g) for g in algebra_spec["generators"]]
    if not generators:
        raise ValueError("algebra needs at least one generator")
    d = int(algebra_spec.get("d", generators[0].shape[0]))
    if any(g.shape != (d, d) for g in generators):
        raise ValueError(f"generators must all be {d}x{d}")
    omega = complex_vector_from_json(data["vector"])
    if omega.shape != (d,):
        raise ValueError(f"vector must have {d} entries")
    try:
        algebra = MatrixAlgebra(generators)
        md = modular_data(algebra, omega, tol=tol)
    except WedgeGroupError as exc:
        return _fail(exc)
    residuals = md.invariant_residuals(omega)
    payload = {
        "J": complex_matrix_to_json(md.j.matrix),
        "antilinear": True,
        "Delta": complex_matrix_to_json(md.delta),
        "residuals": residuals,
    }
    ok = all(value <= 1e-8 for value in residuals.values())
    return CommandResult("ok" if ok else "fail", payload)


def cmd_suite(level="full", seed=42, parallel=None, force_fail=False) -> CommandResult:
    """Run the acceptance checks and summarize."""
    reports = run_suite(level=level, seed=seed, parallel=parallel, force_fail=force_fail)
    failing = [r["check"] for r in reports if not r["pass"]]
    payload = {"level": level, "seed": int(seed), "reports": reports}
    diagnostics = tuple(f"check failed: {name}" for name in failing)
    return CommandResult("ok" if not failing else "fail", payload, diagnostics)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedgegroup",
        description="Spacetime reflection toolkit: decomposition, factorization, "
        "representation checks, modular computation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--file", help="read JSON input from a file instead of stdin")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")

    p_polar = sub.add_parser("polar", help="rotation/boost split of a matrix")
    add_io(p_polar)

    p_factor = sub.add_parser("factor", help="factor a matrix into two reflections")
    add_io(p_factor)
    p_factor.add_argument("--seed", type=int, default=42)
    p_factor.add_argument(
        "--random", action="store_true", help="factor a seeded random element instead of input"
    )

    p_rec = sub.add_parser("reconstruct", help="verify a reflection-map description")
    add_io(p_rec)
    p_rec.add_argument("--samples", type=int, default=200)
    p_rec.add_argument("--seed", type=int, default=42)

    p_mod = sub.add_parser("modular", help="modular data of an algebra/vector pair")
    add_io(p_mod)

    p_suite = sub.add_parser("suite", help="run the acceptance checks")
    p_suite.add_argument("--level", choices=("quick", "full"), default="full")
    p_suite.add_argument("--seed", type=int, default=42)
    p_suite.add_argument("--parallel", type=int, default=None, help="ignored; checks run serially")
    p_suite.add_argument(
        "--force-fail", action="store_true", help="append a synthetic failing check"
    )
    return parser


def _read_json(args):
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    return json.loads(text)


def _dispatch(args) -> CommandResult:
    if args.command == "polar":
        return cmd_polar(_read_json(args), tol=args.tol)
    if args.command == "factor":
        data = None if args.random else _read_json(args)
        return cmd_factor(data, seed=args.seed, random=args.random, tol=args.tol)
    if args.command == "reconstruct":
        return cmd_reconstruct(
            _read_json(args), samples=args.samples, seed=args.seed, tol=args.tol
        )
    if args.command == "modular":
        return cmd_modular(_read_json(args), tol=args.tol)
    if args.command == "suite":
        return cmd_suite(
            level=args.level,
            seed=args.seed,
            parallel=args.parallel,
            force_fail=args.force_fail,
        )
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        result = _dispatch(args)
    except BadSpec as exc:
        result = CommandResult("error", {"message": str(exc)}, (f"bad map description: {exc}",))
    except (json.JSONDecodeError, ValueError, TypeError, KeyError, OSError) as exc:
        result = CommandResult("error", {"message": str(exc)}, (f"invalid input: {exc}",))
    except WedgeGroupError as exc:
        result = _fail(exc)
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    print(canonical_dumps({"payload": result.payload, "status": result.status}))
    return result.exit_code


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
