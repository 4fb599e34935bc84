#!/usr/bin/env python3
"""Seeded scenario generator for the benchmark.

Every family writes a schema-1 scenario document with explicit
``hamiltonian_terms`` (and ``lindblad_terms`` for open systems), so the
program under test receives only plain JSON.  The families are built so
that every seed yields a valid drive, by construction rather than by
filtering seeds:

closed4
    H(s) = (1 - s) H0 + s H1 with H0 = D0 + V0, H1 = D0 + V1,
    D0 = diag(0, 1, 2, 3) and random Hermitian V0, V1 of spectral norm
    0.3.  By Weyl's inequality every gap stays above 1 - 2 * 0.3 = 0.4.
open4, open8
    H(s) = diag(E) + s X, with level energies E on a Golomb ruler (all
    Bohr frequencies distinct), a weak random Hermitian drive X, and a
    decay ladder |k-1><k| with distinct rates plus a small random part.
    The population and coherence eigenvalues of L(s) stay well apart, so
    every cluster is a singleton and no curves collide.
qubit_static, qubit_driven
    The bundled dephasing qubit and its transverse-driven variant, with a
    random initial density matrix.

Usage: python3 perfbench/gen.py --family open4 --seed 3 --out scenario.json
"""

import argparse
import json
import zlib

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Golomb rulers: every difference between two marks is distinct.
_RULERS = {4: (0, 1, 4, 6), 8: (0, 1, 4, 9, 15, 22, 32, 34)}


def _mat(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _term(M, envelope):
    return {"matrix": _mat(M), "envelope": envelope}


def _const(value):
    return {"kind": "constant", "value": float(value)}


def _linear(start, end):
    return {"kind": "linear", "start": float(start), "end": float(end)}


def _hermitian(rng, D, norm):
    A = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
    H = 0.5 * (A + A.conj().T)
    return H * (norm / np.linalg.norm(H, 2))


def _density(rng, D):
    A = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
    rho = A @ A.conj().T + 0.1 * np.eye(D)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def closed4(rng):
    D0 = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    H0 = D0 + _hermitian(rng, 4, 0.3)
    H1 = D0 + _hermitian(rng, 4, 0.3)
    return {
        "schema": 1, "kind": "closed", "dimension": 4,
        "hamiltonian_terms": [_term(H0, _linear(1.0, 0.0)),
                              _term(H1, _linear(0.0, 1.0))],
        "total_time": 20.0, "grid_points": 201,
        "tolerances": {"rtol": 1e-8, "atol": 1e-10},
        "output": {"format": "json"},
    }


def _open_ladder(rng, D, spacing, drive, rate):
    E = spacing * np.array(_RULERS[D], dtype=float)
    X = _hermitian(rng, D, drive)
    np.fill_diagonal(X, 0.0)
    jumps = []
    for k in range(1, D):
        G = np.zeros((D, D), dtype=complex)
        G[k - 1, k] = 1.0
        G += 0.02 * (rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D)))
        gamma = rate * k * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
        jumps.append(_term(np.sqrt(gamma) * G, _const(1.0)))
    return {
        "schema": 1, "kind": "open", "dimension": D,
        "hamiltonian_terms": [_term(np.diag(E).astype(complex), _const(1.0)),
                              _term(X, _linear(0.0, 1.0))],
        "lindblad_terms": jumps,
        "initial_state": _mat(_density(rng, D)),
        "tolerances": {"rtol": 1e-8, "atol": 1e-10},
        "output": {"format": "json"},
    }


def open4(rng):
    doc = _open_ladder(rng, 4, 0.5, 0.1, 0.1)
    doc.update(total_time=5.0, T_grid=[2.0, 5.0, 20.0], grid_points=41)
    return doc


def open8(rng):
    doc = _open_ladder(rng, 8, 0.25, 0.1, 0.05)
    doc.update(total_time=10.0, grid_points=101)
    return doc


def qubit_static(rng):
    return {
        "schema": 1, "kind": "open",
        "model": {"name": "dephasing_qubit",
                  "params": {"omega": 2.0, "gamma": 0.2}},
        "initial_state": _mat(_density(rng, 2)),
        "total_time": 10.0, "T_grid": [1.0, 5.0, 10.0, 50.0],
        "grid_points": 201, "output": {"format": "json"},
    }


def qubit_driven(rng):
    return {
        "schema": 1, "kind": "open", "dimension": 2,
        "hamiltonian_terms": [_term(SIGMA_Z, _const(0.5)),
                              _term(SIGMA_X, _linear(0.05, 0.2))],
        "lindblad_terms": [_term(SIGMA_Z, _const(np.sqrt(0.1)))],
        "initial_state": _mat(_density(rng, 2)),
        "total_time": 10.0, "T_grid": [1.0, 5.0, 10.0, 50.0, 100.0],
        "grid_points": 201, "output": {"format": "json"},
    }


FAMILIES = {f.__name__: f for f in (closed4, open4, open8, qubit_static,
                                    qubit_driven)}


def generate(family, seed):
    """The scenario document of one family for one seed."""
    # one stream per (family, seed), so adding a family changes no other
    rng = np.random.default_rng([seed, zlib.crc32(family.encode())])
    return FAMILIES[family](rng)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=sorted(FAMILIES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(args.out, "w") as fh:
        json.dump(generate(args.family, args.seed), fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
