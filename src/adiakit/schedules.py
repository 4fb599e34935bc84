"""Time-dependent generator models over normalized time s = t/T.

A :class:`GeneratorSpec` is a declarative description of either a closed
system (a Hamiltonian built from constant matrices times scalar envelopes)
or an open one (the same plus a list of jump operators, one per term).
Envelopes come from a closed vocabulary with closed-form derivatives, so
dH/ds and dL/ds are always analytic, and specs pickle cleanly for process
pools.  :func:`envelope_from_json` reads the scenario-file form of an
envelope.

H, dH/ds and the superoperator L, dL/ds of :mod:`adiakit.open_system` all
come from one weighting rule, sum_k w_k(s) part_k, at one s or stacked
over an array of s; a stack equals the per-point matrices bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, InputError, ShapeError
from .numkit import _finite_number, as_square_matrix, is_hermitian

__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "IDENTITY2",
    "Envelope", "constant", "linear", "polynomial", "cosine_ramp", "sinusoid",
    "envelope_from_json",
    "GeneratorSpec",
    "eval_generator", "eval_generator_derivative",
    "make_model", "MODEL_NAMES",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

_ENVELOPE_PARAMS = {
    "constant": ("value",),
    "linear": ("start", "end"),
    "polynomial": ("coeffs",),
    "cosine_ramp": ("start", "end"),
    "sinusoid": ("amplitude", "frequency", "phase", "offset"),
}


@dataclass(frozen=True)
class Envelope:
    """One scalar function of s from the closed vocabulary.

    Parameters are held as a sorted tuple of (name, value) pairs so
    instances are hashable and compare equal when their parameters do.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _ENVELOPE_PARAMS:
            raise ConfigError(f"unknown envelope kind {self.kind!r}",
                              known=sorted(_ENVELOPE_PARAMS))
        names = tuple(sorted(name for name, _ in self.params))
        if names != tuple(sorted(_ENVELOPE_PARAMS[self.kind])):
            raise ConfigError(
                f"envelope {self.kind!r} expects parameters "
                f"{sorted(_ENVELOPE_PARAMS[self.kind])}, got {list(names)}")

    def value(self, s):
        arr = np.asarray(s, dtype=float)
        p = dict(self.params)
        if self.kind == "constant":
            out = np.full_like(arr, p["value"], dtype=float)
        elif self.kind == "linear":
            out = p["start"] + (p["end"] - p["start"]) * arr
        elif self.kind == "polynomial":
            out = np.polynomial.polynomial.polyval(arr, np.asarray(p["coeffs"], float))
        elif self.kind == "cosine_ramp":
            out = p["start"] + (p["end"] - p["start"]) * 0.5 * (1.0 - np.cos(np.pi * arr))
        else:
            out = p["amplitude"] * np.sin(2.0 * np.pi * p["frequency"] * arr
                                          + p["phase"]) + p["offset"]
        return float(out) if arr.ndim == 0 else out

    def bound(self) -> float:
        """An upper bound on |value(s)| for s in [0, 1]."""
        p = dict(self.params)
        if self.kind == "constant":
            return abs(p["value"])
        if self.kind == "polynomial":
            return float(sum(abs(c) for c in p["coeffs"]))
        if self.kind == "sinusoid":
            return abs(p["amplitude"]) + abs(p["offset"])
        return max(abs(p["start"]), abs(p["end"]))   # linear, cosine_ramp

    def derivative(self, s):
        arr = np.asarray(s, dtype=float)
        p = dict(self.params)
        if self.kind == "constant":
            out = np.zeros_like(arr, dtype=float)
        elif self.kind == "linear":
            out = np.full_like(arr, p["end"] - p["start"], dtype=float)
        elif self.kind == "polynomial":
            dc = np.polynomial.polynomial.polyder(np.asarray(p["coeffs"], float))
            out = np.polynomial.polynomial.polyval(arr, dc) if dc.size \
                else np.zeros_like(arr, dtype=float)
        elif self.kind == "cosine_ramp":
            out = (p["end"] - p["start"]) * 0.5 * np.pi * np.sin(np.pi * arr)
        else:
            w = 2.0 * np.pi * p["frequency"]
            out = p["amplitude"] * w * np.cos(w * arr + p["phase"])
        return float(out) if arr.ndim == 0 else out


def _envelope(kind: str, **params) -> Envelope:
    items = []
    for name, value in params.items():
        if name == "coeffs":
            value = tuple(float(v) for v in value)
            if not value:
                raise ConfigError("polynomial envelope needs at least one coefficient")
        else:
            value = float(value)
        items.append((name, value))
    return Envelope(kind, tuple(sorted(items)))


def constant(value) -> Envelope:
    return _envelope("constant", value=value)


def linear(start, end) -> Envelope:
    """start + (end - start) * s."""
    return _envelope("linear", start=start, end=end)


def polynomial(coeffs) -> Envelope:
    """sum_k coeffs[k] * s**k."""
    return _envelope("polynomial", coeffs=coeffs)


def cosine_ramp(start, end) -> Envelope:
    """Smooth ramp with vanishing slope at both endpoints."""
    return _envelope("cosine_ramp", start=start, end=end)


def sinusoid(amplitude, frequency=1.0, phase=0.0, offset=0.0) -> Envelope:
    """amplitude * sin(2 pi frequency s + phase) + offset."""
    return _envelope("sinusoid", amplitude=amplitude, frequency=frequency,
                     phase=phase, offset=offset)


def envelope_from_json(data, name: str = "envelope",
                       field: str = None) -> Envelope:
    """Parse ``{"kind": ..., <parameters>}`` into an :class:`Envelope`.

    Every parameter must be a finite number (``coeffs`` a non-empty list
    of them); an error names ``<field>.<parameter>``, with ``field``
    defaulting to ``name``.
    """
    prefix = field or name
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError(f"{name}: expected an object with a 'kind' field",
                         field=prefix)
    kind = data["kind"]
    if not (isinstance(kind, str) and kind in _ENVELOPE_PARAMS):
        raise InputError(f"{name}: unknown envelope kind {kind!r}",
                         known=sorted(_ENVELOPE_PARAMS), field=prefix)
    params = {k: v for k, v in data.items() if k != "kind"}
    if set(params) != set(_ENVELOPE_PARAMS[kind]):
        raise InputError(f"{name}: envelope {kind!r} expects "
                         f"{sorted(_ENVELOPE_PARAMS[kind])}, got {sorted(params)}",
                         field=prefix)
    for key, value in params.items():
        if key == "coeffs":
            if not isinstance(value, list) or not value:
                raise InputError(f"{name}.coeffs must be a non-empty list",
                                 field=f"{prefix}.coeffs")
            params[key] = [_finite_number(v, f"{name}.coeffs[{k}]",
                                          f"{prefix}.coeffs")
                           for k, v in enumerate(value)]
        else:
            params[key] = _finite_number(value, f"{name}.{key}",
                                         f"{prefix}.{key}")
    return _envelope(kind, **params)


def _normalize_terms(terms, dim, label, hermitian):
    out = []
    for k, (matrix, env) in enumerate(terms):
        field = f"{label}_terms[{k}].matrix"
        M = np.asarray(matrix, dtype=complex)
        if M.shape != (dim, dim):
            raise ShapeError(f"{label} term {k} has shape {M.shape}, "
                             f"spec dimension is {dim}", field=field)
        if hermitian and not is_hermitian(M, 1e-12):
            raise InputError(f"{label} term {k} matrix is not Hermitian",
                             field=field)
        if not isinstance(env, Envelope):
            raise InputError(f"{label} term {k} envelope must be an Envelope")
        M.setflags(write=False)
        out.append((M, env))
    return tuple(out)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative generator: H(s) = sum_i f_i(s) T_i, plus jump operators.

    ``kind`` is "closed" or "open".  Each Hamiltonian term contributes
    ``envelope(s) * matrix`` to H(s); each Lindblad term is one jump
    operator ``envelope(s) * matrix`` (terms are not summed together).
    Hamiltonian term matrices must be Hermitian; with the real-valued
    envelope vocabulary this makes H(s) Hermitian at every s.
    """

    dimension: int
    kind: str
    hamiltonian_terms: tuple
    lindblad_terms: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.dimension, int) and self.dimension > 0):
            raise ConfigError(f"dimension must be a positive integer, got {self.dimension}")
        if self.kind not in ("closed", "open"):
            raise ConfigError(f"kind must be 'closed' or 'open', got {self.kind!r}")
        if self.kind == "closed" and self.lindblad_terms:
            raise ConfigError("closed spec cannot carry Lindblad terms")
        object.__setattr__(self, "hamiltonian_terms", _normalize_terms(
            self.hamiltonian_terms, self.dimension, "hamiltonian", hermitian=True))
        object.__setattr__(self, "lindblad_terms", _normalize_terms(
            self.lindblad_terms, self.dimension, "lindblad", hermitian=False))


def _check_s(s):
    """s as a float (a float array for an array), every entry in [0, 1]."""
    arr = np.asarray(s, dtype=float)
    outside = ~((arr >= 0.0) & (arr <= 1.0))
    if outside.any():
        bad = float(arr[outside][0])
        raise DomainError(f"s must lie in [0,1], got {bad}", s=bad)
    return float(arr) if arr.ndim == 0 else arr


def _weighted_sum(s, weights, parts, n: int) -> np.ndarray:
    """sum_k weights[k] * parts[k] over n x n parts, stacked over the shape
    of s (each weight a scalar or an array of that shape); term by term the
    arithmetic is that of one point, so a stack is bit for bit pointwise."""
    out = np.zeros(np.shape(s) + (n, n), dtype=complex)
    for w, part in zip(weights, parts):
        out += np.asarray(w)[..., None, None] * part
    return out


def eval_generator(spec: GeneratorSpec, s):
    """H(s); for an array of s, the stack of H, shape s.shape + (D, D).
    For an open spec this is the Hamiltonian part only: the jump operators
    enter through :class:`adiakit.open_system.SuperAssembler`."""
    s = _check_s(s)
    terms = spec.hamiltonian_terms
    return _weighted_sum(s, [env.value(s) for _, env in terms],
                         [M for M, _ in terms], spec.dimension)


def eval_generator_derivative(spec: GeneratorSpec, s):
    """dH/ds, stacked like :func:`eval_generator` for an array of s, and
    like it the Hamiltonian part only for an open spec.  The sum starts at
    +0, so skipping a constant term, which adds only zeros, and weighting
    a linear one by its slope alone leave it the same to the bit."""
    s = _check_s(s)
    terms = [t for t in spec.hamiltonian_terms if t[1].kind != "constant"]
    return _weighted_sum(s, [env.derivative(0.0 if env.kind == "linear" else s)
                             for _, env in terms],
                         [M for M, _ in terms], spec.dimension)


def _require(params: dict, name: str, model: str) -> float:
    if name not in params:
        raise ConfigError(f"model {model!r} needs parameter {name!r}")
    return params[name]


def make_model(name: str, /, **params) -> GeneratorSpec:
    """Build one of the named benchmark generators.

    landau_zener(a, delta)
        H(s) = a (2s - 1) sigma_z + delta sigma_x
    rotating_field(b, theta)
        H(s) = b [sin(theta) cos(2 pi s) sigma_x
                  + sin(theta) sin(2 pi s) sigma_y + cos(theta) sigma_z]
    linear_interp(h0, h1)
        H(s) = (1 - s) H0 + s H1
    dephasing_qubit(omega, gamma)
        H = (omega / 2) sigma_z with jump operator sqrt(gamma / 2) sigma_z;
        optional ``omega_envelope`` / ``gamma_envelope`` replace the constant
        profiles (the gamma envelope g(s) sets the operator amplitude, so the
        instantaneous dephasing rate is 2 g(s)^2).
    """
    known = set(MODEL_NAMES)
    if name not in known:
        raise ConfigError(f"unknown model {name!r}", known=sorted(known))
    if name == "landau_zener":
        a = float(_require(params, "a", name))
        delta = float(_require(params, "delta", name))
        return GeneratorSpec(2, "closed", [
            (SIGMA_Z, linear(-a, a)),
            (SIGMA_X, constant(delta)),
        ])
    if name == "rotating_field":
        b = float(_require(params, "b", name))
        theta = float(_require(params, "theta", name))
        return GeneratorSpec(2, "closed", [
            (SIGMA_X, sinusoid(b * np.sin(theta), 1.0, np.pi / 2)),
            (SIGMA_Y, sinusoid(b * np.sin(theta), 1.0, 0.0)),
            (SIGMA_Z, constant(b * np.cos(theta))),
        ])
    if name == "linear_interp":
        H0 = as_square_matrix(_require(params, "h0", name), "h0")
        H1 = as_square_matrix(_require(params, "h1", name), "h1")
        if H0.shape != H1.shape:
            raise ConfigError("h0 and h1 must share a dimension",
                              field="model.params.h1")
        return GeneratorSpec(H0.shape[0], "closed", [
            (H0, linear(1.0, 0.0)),
            (H1, linear(0.0, 1.0)),
        ])
    omega = float(_require(params, "omega", name))
    gamma = float(_require(params, "gamma", name))
    if gamma < 0:
        raise ConfigError(f"dephasing rate must be nonnegative, got {gamma}")
    omega_env = params.get("omega_envelope", constant(omega / 2.0))
    gamma_env = params.get("gamma_envelope", constant(np.sqrt(gamma / 2.0)))
    return GeneratorSpec(2, "open",
                         [(SIGMA_Z, omega_env)],
                         [(SIGMA_Z, gamma_env)])


MODEL_NAMES = ("landau_zener", "rotating_field", "linear_interp", "dephasing_qubit")
