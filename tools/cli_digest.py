"""One sha256 per CLI command of a fixed set, to compare two checkouts.

Runs each command of ``COMMANDS`` in a fresh ``python -m wedgegroup``
process against the ``src/`` of a checkout and prints the sha256 of its
stdout, its exit code and its name, one line per command.  Two checkouts
whose stdout is byte-identical print identical lines:

    python tools/cli_digest.py > change.txt
    python tools/cli_digest.py --root ../parent > parent.txt
    diff parent.txt change.txt

Only numpy and the standard library are used to build the inputs, so the
inputs do not depend on the checkout under test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def _lorentz_json(m):
    return json.dumps([float(v) for v in np.asarray(m, dtype=float).ravel()])


def _x_boost(rapidity):
    m = np.eye(4)
    m[0, 0] = m[1, 1] = math.cosh(rapidity)
    m[0, 1] = m[1, 0] = math.sinh(rapidity)
    return m


def _modular_pair():
    """M_2 (x) 1 on C^2 (x) C^2 with the vector sqrt(0.8) e00 + sqrt(0.2) e11."""
    gens = []
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2))
            unit[i, j] = 1.0
            g = np.kron(unit, np.eye(2))
            gens.append([[[float(z), 0.0] for z in row] for row in g])
    vec = [[math.sqrt(0.8), 0.0], [0.0, 0.0], [0.0, 0.0], [math.sqrt(0.2), 0.0]]
    return json.dumps({"algebra": {"d": 4, "generators": gens}, "vector": vec})


def _conjugated_spec():
    g = np.random.default_rng(3).normal(size=16)
    return json.dumps({"kind": "conjugated", "G": [float(v) for v in g]})


# (name, argv after ``python -m wedgegroup``, stdin text or None)
COMMANDS = [
    ("polar-identity", ["polar"], _lorentz_json(np.eye(4))),
    ("polar-x-boost", ["polar"], _lorentz_json(_x_boost(1.0))),
    *(
        (f"factor-random-seed-{seed}", ["factor", "--random", "--seed", str(seed)], None)
        for seed in (1, 7, 42)
    ),
    ("reconstruct-tautological", ["reconstruct"], json.dumps({"kind": "tautological"})),
    (
        "reconstruct-conjugated",
        ["reconstruct", "--samples", "120", "--seed", "7"],
        _conjugated_spec(),
    ),
    (
        "reconstruct-spinorial-negative",
        ["reconstruct"],
        json.dumps({"kind": "spinorial-negative"}),
    ),
    ("modular-pair", ["modular"], _modular_pair()),
    *(
        (f"suite-quick-seed-{seed}", ["suite", "--level", "quick", "--seed", str(seed)], None)
        for seed in (1, 7, 42)
    ),
]


def digest(root, argv, stdin):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    proc = subprocess.run(
        [sys.executable, "-m", "wedgegroup", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
    )
    return hashlib.sha256(proc.stdout.encode()).hexdigest(), proc.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parents[1]),
        help="checkout whose src/ is run (default: the one holding this script)",
    )
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    for name, cmd, stdin in COMMANDS:
        sha, code = digest(root, cmd, stdin)
        print(f"{sha}  exit={code}  {name}")


if __name__ == "__main__":
    main()
