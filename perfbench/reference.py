"""Independent references for every job, using numpy and scipy only.

Nothing here imports the program.  Generators are rebuilt from the
scenario documents; closed and open evolutions come from
``scipy.integrate.solve_ivp`` (DOP853, rtol 1e-12) or, for the constant
dephasing qubit, from ``scipy.linalg.expm(s T L)``; eigenvalues from
``numpy.linalg`` or closed forms.

:func:`check` returns ``(ok, err, notes)`` for one job: ``err`` is the
worst deviation from the reference divided by the tolerance the check
states (``TOL``), ``ok`` is false when ``err > 1`` or a structural
property fails, and ``notes`` lists what failed.
"""

import csv
import json

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# Tolerances each check states, as absolute deviations unless marked.
TOL = {
    "state": 1e-6,          # trajectory entries, closed and open
    "energy": 1e-9,         # instantaneous eigenvalues
    "relative": 1e-8,       # condition ratios, T_est, sweep ratios
    "infidelity": 1e-6,     # 1 - fidelity at s = 1
    "eigenvalue": 1e-8,     # Jordan block eigenvalues
    "residual": 1e-9,       # the decomposition's own residual_max
    "trace": 1e-8,          # |tr rho - 1| along open trajectories
    "metric": 1e-6,         # open condition metric (relative)
    "witness": 1e-3,        # consistency witness and turning rate
    "bound": 1e-8,          # Wu zeroth order vs its transition lower bound
    "drift": 1e-4,          # open sweep drift vs its magnitude lower bound
}

ETA = 10.0                  # the time-condition factor the CLI uses
REGIMES = ("oscillatory-RL", "decaying", "compensated", "finite-window",
           "guaranteed", "model-dependent")

RTOL, ATOL = 1e-12, 1e-13


# ------------------------------------------------------------- generators

def _matrix(data):
    return np.array([[complex(re, im) for re, im in row] for row in data])


def _envelope(env):
    kind = env["kind"]
    if kind == "constant":
        return (lambda s: env["value"]), (lambda s: 0.0)
    if kind == "linear":
        a, b = env["start"], env["end"]
        return (lambda s: a + (b - a) * s), (lambda s: b - a)
    raise ValueError(f"no reference for envelope kind {kind!r}")


def _model(doc):
    """(H(s), dH/ds(s), [jump(s)], D) of a scenario document."""
    if "model" in doc:
        name, p = doc["model"]["name"], doc["model"].get("params", {})
        if name == "landau_zener":
            a, d = p["a"], p["delta"]
            return (lambda s: a * (2 * s - 1) * SZ + d * SX,
                    lambda s: 2 * a * SZ, lambda s: [], 2)
        if name == "rotating_field":
            b, th = p["b"], p["theta"]
            w = 2 * np.pi
            return (lambda s: b * (np.sin(th) * np.cos(w * s) * SX
                                   + np.sin(th) * np.sin(w * s) * SY
                                   + np.cos(th) * SZ),
                    lambda s: b * np.sin(th) * w * (-np.sin(w * s) * SX
                                                    + np.cos(w * s) * SY),
                    lambda s: [], 2)
        if name == "dephasing_qubit":
            om, g = p["omega"], p["gamma"]
            return (lambda s: 0.5 * om * SZ, lambda s: 0 * SZ,
                    lambda s: [np.sqrt(g / 2) * SZ], 2)
        raise ValueError(f"no reference for model {name!r}")
    hterms = [(_matrix(t["matrix"]), *_envelope(t["envelope"]))
              for t in doc["hamiltonian_terms"]]
    jterms = [(_matrix(t["matrix"]), *_envelope(t["envelope"]))
              for t in doc.get("lindblad_terms", [])]
    return (lambda s: sum(f(s) * M for M, f, _ in hterms),
            lambda s: sum(df(s) * M for M, _, df in hterms),
            lambda s: [f(s) * M for M, f, _ in jterms],
            doc["dimension"])


def lindbladian(H, jumps):
    """Matrix of rho -> -i[H, rho] + sum G rho G+ - {G+G, rho}/2 acting on
    row-major vec(rho), built column by column from the map itself."""
    D = H.shape[0]
    L = np.empty((D * D, D * D), dtype=complex)
    for col in range(D * D):
        E = np.zeros((D, D), dtype=complex)
        E.flat[col] = 1.0
        out = -1j * (H @ E - E @ H)
        for G in jumps:
            GG = G.conj().T @ G
            out += G @ E @ G.conj().T - 0.5 * (GG @ E + E @ GG)
        L[:, col] = out.reshape(-1)
    return L


def _ground(H):
    """Lowest eigenvector, largest-magnitude component real positive."""
    _, V = np.linalg.eigh(H)
    v = V[:, 0]
    k = np.argmax(np.abs(v))
    return v * np.conj(v[k] / abs(v[k]))


def _schrodinger(H, T, psi0, s_eval):
    sol = solve_ivp(lambda s, y: -1j * T * (H(s) @ y), (0.0, s_eval[-1]),
                    np.asarray(psi0, dtype=complex), method="DOP853",
                    t_eval=s_eval, rtol=RTOL, atol=ATOL)
    return sol.y.T


def _lindbladian_path(doc):
    """L(s) and dL/ds.  Every envelope the references accept is constant or
    linear, so L(s) is a polynomial of degree at most 2 in s (quadratic in
    the jump envelopes) and three samples determine it exactly."""
    H, _, jumps, _ = _model(doc)
    L0, Lh, L1 = (lindbladian(H(s), jumps(s)) for s in (0.0, 0.5, 1.0))
    A, B = -3 * L0 + 4 * Lh - L1, 2 * L0 - 4 * Lh + 2 * L1
    return (lambda s: L0 + s * A + s * s * B), (lambda s: A + 2 * s * B)


def _master(doc, T, rho0, s_eval):
    L, _ = _lindbladian_path(doc)
    if doc.get("model", {}).get("name") == "dephasing_qubit":
        return np.array([expm(s * T * L(0.0)) @ rho0.reshape(-1)
                         for s in s_eval])
    sol = solve_ivp(lambda s, y: T * (L(s) @ y), (0.0, s_eval[-1]),
                    rho0.reshape(-1).astype(complex), method="DOP853",
                    t_eval=s_eval, rtol=RTOL, atol=ATOL)
    return sol.y.T


# ---------------------------------------------------------------- reading

def _csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in r] for r in rows[1:]])


def _csv_sweep(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return ([float(r[0]) for r in rows], [float(r[1]) for r in rows],
            [float(r[2]) for r in rows], [r[3] == "true" for r in rows])


def _report(path):
    with open(path) as fh:
        return json.load(fh)["results"]


def _complex_columns(table, start, count):
    return table[:, start:start + 2 * count:2] \
        + 1j * table[:, start + 1:start + 2 * count:2]


def _phase_aligned(out, ref):
    """``out`` with the global phase that best matches ``ref`` at s = 0."""
    z = np.vdot(out[0], ref[0])
    return out * (z / abs(z)) if abs(z) > 0 else out


class _Verdict:
    def __init__(self):
        self.err = 0.0
        self.notes = []

    def dev(self, label, deviation, tol_key):
        ratio = float(deviation) / TOL[tol_key]
        if not np.isfinite(ratio):
            self.fail(f"{label}: deviation is not finite")
            return
        self.err = max(self.err, ratio)
        if ratio > 1.0:
            self.notes.append(f"{label}: {deviation:.3e} exceeds "
                              f"{TOL[tol_key]:.0e}")

    def rel(self, label, got, want, tol_key):
        got, want = np.asarray(got, float), np.asarray(want, float)
        scale = np.maximum(np.abs(want), 1e-300)
        self.dev(label, np.max(np.abs(got - want) / scale), tol_key)

    def fail(self, note):
        self.notes.append(note)

    def result(self):
        return not self.notes, self.err, self.notes


# ----------------------------------------------------------------- checks

def _closed_ratio(doc, T, N):
    """adiabatic condition ratios and T_est from level 0, on N points."""
    H, dH, _, D = _model(doc)
    grid = np.linspace(0.0, 1.0, N)
    E = np.empty((N, D))
    mel = np.empty((N, D, D))
    for i, s in enumerate(grid):
        E[i], V = np.linalg.eigh(H(s))
        mel[i] = np.abs(V.conj().T @ dH(s) @ V)
    ratios = {}
    for n in range(D):
        for k in range(D):
            if n != k:
                gap = E[:, n] - E[:, k]
                ratios[f"{n},{k}"] = (np.max(mel[:, k, n] / np.abs(gap))
                                      / (T * np.min(np.abs(gap))))
    pairs = [(np.max(mel[:, k, 0]), np.min(np.abs(E[:, 0] - E[:, k])))
             for k in range(1, D)]
    F, G = max(pairs, key=lambda fg: fg[0] / fg[1] ** 2)
    return ratios, F, G


def _check_closed_check(job, v):
    c = job["check"]
    res = _report(job["outputs"][0])
    grid_points = c["doc"].get("grid_points", 201)
    ratios, F, G = _closed_ratio(c["doc"], c["T"], grid_points)
    keys = sorted(ratios)
    if sorted(res["ratios"]) != keys:
        v.fail("condition ratio pairs differ")
        return
    v.rel("ratios", [res["ratios"][k] for k in keys],
          [ratios[k] for k in keys], "relative")
    v.rel("max_ratio", res["max_ratio"], max(ratios.values()), "relative")
    est = res["min_time_estimate"]
    v.rel("T_est", [est["T_est"], est["F"], est["G"]], [F / G ** 2, F, G],
          "relative")
    if res["satisfied"] != (res["max_ratio"] < 1.0):
        v.fail("satisfied flag disagrees with max_ratio")


def _check_closed_sweep(job, v):
    c = job["check"]
    doc = c["doc"]
    H, _, _, _ = _model(doc)
    grid_points = doc.get("grid_points", 201)
    Ts, infid, ratio, sat = _csv_sweep(job["outputs"][0])
    if len(Ts) != len(c["T_values"]):
        v.fail("sweep row count differs")
        return
    v.rel("T column", Ts, c["T_values"], "relative")
    psi0 = _ground(H(0.0))
    v1 = _ground(H(1.0))
    ratio_at_1 = max(_closed_ratio(doc, 1.0, grid_points)[0].values())
    want_inf, want_ratio = [], []
    for T in c["T_values"]:
        psi = _schrodinger(H, T, psi0, [1.0])[-1]
        fid = min(1.0, abs(np.vdot(v1, psi)) ** 2 / np.vdot(psi, psi).real)
        want_inf.append(1.0 - fid)
        want_ratio.append(ratio_at_1 / T)
    v.dev("infidelity", np.max(np.abs(np.array(infid) - want_inf)),
          "infidelity")
    v.rel("condition ratio", ratio, want_ratio, "relative")
    if sat != [r < 1.0 for r in ratio]:
        v.fail("bound_satisfied disagrees with the ratio column")


def _check_closed_evolve(job, v):
    c = job["check"]
    H, _, _, D = _model(c["doc"])
    _, table = _csv(job["outputs"][0])
    grid = np.linspace(0.0, 1.0, c["grid_points"])
    v.dev("s column", np.max(np.abs(table[:, 0] - grid)), "energy")
    v.dev("t column", np.max(np.abs(table[:, 1] - c["T"] * grid)), "energy")
    E = np.array([np.linalg.eigvalsh(H(s)) for s in grid])
    v.dev("energies", np.max(np.abs(table[:, 2:2 + D] - E)), "energy")
    states = _complex_columns(table, 2 + D, D)
    ref = _schrodinger(H, c["T"], _ground(H(0.0)), grid)
    v.dev("states", np.max(np.abs(_phase_aligned(states, ref) - ref)),
          "state")


def _check_coefficient_flow(job, v):
    c = job["check"]
    H, _, _, _ = _model(c["doc"])
    states = np.load(job["outputs"][0])
    grid = np.linspace(0.0, 1.0, c["grid_points"])
    ref = _schrodinger(H, c["T"], _ground(H(0.0)), grid)
    v.dev("reconstructed states",
          np.max(np.abs(_phase_aligned(states, ref) - ref)), "state")


def _check_spectrum(job, v):
    c = job["check"]
    H, _, _, D = _model(c["doc"])
    _, table = _csv(job["outputs"][0])
    grid = np.linspace(0.0, 1.0, c["grid_points"])
    E = np.array([np.linalg.eigvalsh(H(s)) for s in grid])
    v.dev("s column", np.max(np.abs(table[:, 0] - grid)), "energy")
    v.dev("energies", np.max(np.abs(table[:, 1:1 + D] - E)), "energy")


def _check_wu(job, v):
    c = job["check"]
    H, _, _, D = _model(c["doc"])
    errors = _report(job["outputs"][0])["final_errors"]
    if len(errors) != c["order"] + 1 or not np.all(np.isfinite(errors)):
        v.fail("final_errors missing or not finite")
        return
    if any(b > a for a, b in zip(errors, errors[1:])):
        v.fail(f"partial sums do not converge: {errors}")
    # U^(0) is diagonal, so its distance to the exact propagator is at
    # least the norm of the exact transition amplitudes
    _, V0 = np.linalg.eigh(H(0.0))
    _, V1 = np.linalg.eigh(H(1.0))
    amp = np.array([np.abs(V1.conj().T @ _schrodinger(H, c["T"], V0[:, m],
                                                      [1.0])[-1])
                    for m in range(D)]).T
    offdiag = np.sqrt(np.sum(amp ** 2) - np.sum(np.diag(amp) ** 2))
    v.dev("zeroth order below the transition bound",
          max(0.0, offdiag - errors[0]), "bound")


def _check_consistency(job, v):
    c = job["check"]
    p = c["doc"]["model"]["params"]
    H, _, _, _ = _model(c["doc"])
    if c["format"] == "csv":
        _, table = _csv(job["outputs"][0])
        s, w, r, fp, fi = table.T
    else:
        res = _report(job["outputs"][0])
        pts = res["points"]
        s, w, r, fp, fi = (np.array([q[k] for q in pts]) for k in
                           ("s", "w", "r", "fid_proper", "fid_illegal"))
    grid = np.linspace(0.0, 1.0, c["doc"]["grid_points"])
    v.dev("s column", np.max(np.abs(s - grid)), "energy")
    # rotating field, theta <= pi/2: the lower level's reference gauge
    # pins its larger component, giving gamma = 2 pi sin^2(theta/2) s and
    # a turning rate of pi sin(theta)
    sn, cs = np.sin(p["theta"] / 2) ** 2, np.cos(p["theta"] / 2) ** 2
    phi = 2 * np.pi * grid
    w_ref = np.abs(np.exp(1j * sn * phi) * (sn * np.exp(-1j * phi) + cs) - 1)
    v.dev("witness", np.max(np.abs(w - w_ref)), "witness")
    v.rel("turning rate", r, np.full_like(r, np.pi * np.sin(p["theta"])),
          "witness")
    psi = _schrodinger(H, c["T"], _ground(H(0.0)), grid)
    ground = np.array([_ground(H(x)) for x in grid])
    fp_ref = np.abs(np.einsum("ij,ij->i", ground.conj(), psi)) ** 2
    fi_ref = np.abs(psi @ ground[0].conj()) ** 2
    v.dev("fid_proper", np.max(np.abs(fp - fp_ref)), "state")
    v.dev("fid_illegal", np.max(np.abs(fi - fi_ref)), "state")
    if c["format"] == "json":
        v.dev("summary", max(abs(res["max_witness"] - np.max(w)),
                             abs(res["min_fid_proper"] - np.min(fp)),
                             abs(res["min_fid_illegal"] - np.min(fi))),
              "state")


def _open_eigs(doc, s):
    H, _, jumps, _ = _model(doc)
    if doc.get("model", {}).get("name") == "dephasing_qubit":
        p = doc["model"]["params"]
        g, om = p["gamma"], p["omega"]
        return np.array([0, 0, -g - 1j * om, -g + 1j * om])
    return np.linalg.eigvals(lindbladian(H(s), jumps(s)))


def _check_jordan(job, v):
    c = job["check"]
    res = _report(job["outputs"][0])
    worst = 0.0
    for point in res["points"]:
        got = np.array([complex(re, im) for re, im in point["eigenvalues"]])
        want = _open_eigs(c["doc"], point["s"])
        if got.size != want.size:
            v.fail(f"{got.size} blocks at s = {point['s']}, want "
                   f"{want.size}")
            return
        cost = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(cost)
        worst = max(worst, float(np.max(cost[rows, cols])))
    v.dev("eigenvalues", worst, "eigenvalue")
    v.dev("residual_max", res["residual_max"], "residual")
    if any(size != 1 for size in res["block_sizes"]):
        v.fail(f"block sizes {res['block_sizes']}, the generator is "
               "diagonalizable")


def _metric_reference(doc, N):
    """max over s and block pairs of |E_a dL/ds D_b| / |lambda_b - lambda_a|
    for a diagonalizable L(s) with unit-norm right eigenvectors."""
    L, dL = _lindbladian_path(doc)
    worst = 0.0
    for s in np.linspace(0.0, 1.0, N):
        lam, V = np.linalg.eig(L(s))
        W = np.linalg.inv(V)
        B = np.abs(W @ dL(s) @ V)
        gap = np.abs(lam[None, :] - lam[:, None])
        off = gap > 1e-7
        worst = max(worst, float(np.max(B[off] / gap[off])))
    return worst


def _check_open_check(job, v):
    c = job["check"]
    doc = c["doc"]
    res = _report(job["outputs"][0])
    if doc.get("model", {}).get("name") == "dephasing_qubit":
        # constant generator: dL/ds = 0, so every metric and bound is 0
        v.dev("max_metric", abs(res["max_metric"]), "energy")
        bounds = [b for vals in res["time_condition"]["bounds"].values()
                  for b in vals]
        v.dev("time-condition bounds", max(abs(b) for b in bounds), "energy")
        if not all(res["time_condition"]["satisfied_all"]):
            v.fail("a constant generator must satisfy every time condition")
    else:
        v.rel("max_metric", res["max_metric"],
              _metric_reference(doc, doc["grid_points"]), "metric")
    tc = res["time_condition"]
    if tc["T_grid"] != doc["T_grid"]:
        v.fail("time condition T_grid differs from the scenario")
    _check_time_condition(tc, v)
    _check_regimes(res, doc.get("model", {}).get("name")
                   == "dephasing_qubit", v)


def _check_open_evolve(job, v):
    c = job["check"]
    doc = c["doc"]
    D = _model(doc)[3]
    _, table = _csv(job["outputs"][0])
    grid = np.linspace(0.0, 1.0, doc["grid_points"])
    v.dev("s column", np.max(np.abs(table[:, 0] - grid)), "energy")
    rho = _complex_columns(table, 2, D * D)
    ref = _master(doc, c["T"], _matrix(doc["initial_state"]), grid)
    v.dev("states", np.max(np.abs(rho - ref)), "state")
    trace = rho[:, ::D + 1].sum(axis=1)
    v.dev("trace", np.max(np.abs(trace - 1.0)), "trace")


def _check_time_condition(tc, v):
    """satisfied_all, threshold_T and crossover_T against the bounds."""
    T_grid = tc["T_grid"]
    want = [all(T >= ETA * vals[k] for vals in tc["bounds"].values())
            for k, T in enumerate(T_grid)]
    if tc["satisfied_all"] != want:
        v.fail(f"satisfied_all {tc['satisfied_all']}, the bounds give "
               f"{want}")
    threshold = next((T for T, ok in zip(T_grid, want) if ok), None)
    crossover = None
    for k in range(len(T_grid) - 1):
        if want[k] and not all(want[k + 1:]):
            crossover = T_grid[k]
    if tc["threshold_T"] != threshold or tc["crossover_T"] != crossover:
        v.fail(f"threshold_T {tc['threshold_T']} and crossover_T "
               f"{tc['crossover_T']}, the bounds give {threshold} and "
               f"{crossover}")


def _check_regimes(res, constant, v):
    """One label from the documented set for every pair of blocks."""
    nb = len(res["block_sizes"])
    want = {f"{a},{b}" for a in range(nb) for b in range(a + 1, nb)}
    got = set(res.get("regimes", {}))
    # pairs inside one eigenvalue cluster carry no label; the generated
    # generators have distinct eigenvalues, so every pair has one
    if not (got <= want if constant else got == want):
        v.fail(f"regime labels for {sorted(got)}, want {sorted(want)}")
    if bad := {lab for lab in res["regimes"].values() if lab not in REGIMES}:
        v.fail(f"unknown regime labels {sorted(bad)}")


def _stripped_magnitudes(doc, T, s_eval):
    """|p_b(s)| = 2 exp(-T Re int lambda_b) |E_b rho(s)| for every block of
    a generator with distinct eigenvalues, right eigenvectors of unit
    norm.  Magnitudes do not depend on the phase gauge of the chains."""
    L, _ = _lindbladian_path(doc)
    rho = _master(doc, T, _matrix(doc["initial_state"]), s_eval)
    lam = np.empty((len(s_eval), rho.shape[1]), dtype=complex)
    proj = np.empty_like(lam)
    for i, s in enumerate(s_eval):
        w, V = np.linalg.eig(L(s))
        if i:
            # follow each eigenvalue curve from the previous point
            _, order = linear_sum_assignment(
                np.abs(lam[i - 1][:, None] - w[None, :]))
            w, V = w[order], V[:, order]
        lam[i] = w
        proj[i] = np.linalg.solve(V / np.linalg.norm(V, axis=0), rho[i])
    growth = -T * cumulative_trapezoid(lam.real, s_eval, axis=0, initial=0.0)
    return 2.0 * np.exp(growth) * np.abs(proj), growth.max()


def _check_open_sweep(job, v):
    c = job["check"]
    doc = c["doc"]
    Ts, drift, ratio, sat = _csv_sweep(job["outputs"][0])
    if len(Ts) != len(c["T_values"]):
        v.fail("sweep row count differs")
        return
    v.rel("T column", Ts, c["T_values"], "relative")
    if not all(np.isfinite(drift)) or min(drift) < 0:
        v.fail("drift column is negative or not finite")
    if any(np.isnan(ratio)) or min(ratio) < 0:
        v.fail("ratio column is negative or NaN")
    if sat != [r <= 1.0 / ETA for r in ratio]:
        v.fail("bound_satisfied disagrees with the ratio column")
    # rows at a T of the scenario's T_grid: the check job reports the same
    # bounds and verdict through open_time_condition
    tc = _report(c["check_report"])["time_condition"]
    for k, T_check in enumerate(tc["T_grid"]):
        rows = [i for i, T in enumerate(Ts) if abs(T / T_check - 1) < 1e-9]
        for i in rows:
            bound = max(vals[k] for vals in tc["bounds"].values())
            if np.isinf(bound) or np.isinf(ratio[i]):
                if ratio[i] != bound:
                    v.fail(f"ratio at T = {T_check:g} is {ratio[i]}, the "
                           f"check report's bound is {bound}")
            else:
                v.rel(f"ratio at T = {T_check:g}", ratio[i], bound / Ts[i],
                      "relative")
            if sat[i] != tc["satisfied_all"][k]:
                v.fail(f"bound_satisfied at T = {T_check:g} differs from "
                       "the check report")
    if doc.get("model", {}).get("name") == "dephasing_qubit":
        return      # exact drift 0, the integrator's noise is a known defect
    grid = np.linspace(0.0, 1.0, doc["grid_points"])
    atol = doc.get("tolerances", {}).get("atol", 1e-10)  # the CLI default
    for i, T in enumerate(Ts):
        mag, growth = _stripped_magnitudes(doc, T, grid)
        # the program's own integrator error, atol times the stripped
        # exponential, must stay below the tolerance for the row to count
        if atol * np.exp(growth) > TOL["drift"]:
            continue
        lower = np.max(np.abs(mag - mag[0])) / np.max(mag)
        v.dev(f"drift at T = {T:g} below the magnitude drift",
              max(0.0, lower - drift[i]), "drift")


CHECKS = {
    "closed_check": _check_closed_check,
    "closed_sweep": _check_closed_sweep,
    "closed_evolve": _check_closed_evolve,
    "coefficient_flow": _check_coefficient_flow,
    "spectrum": _check_spectrum,
    "wu": _check_wu,
    "consistency": _check_consistency,
    "jordan": _check_jordan,
    "open_check": _check_open_check,
    "open_evolve": _check_open_evolve,
    "open_sweep": _check_open_sweep,
}


def check(job):
    """(ok, err, notes) of one job's outputs against its reference."""
    v = _Verdict()
    try:
        CHECKS[job["check"]["type"]](job, v)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        v.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    return v.result()
