"""Least-squares Monte Carlo solvers for the backward equation.

Three routes estimate the same value process on a simulated ensemble:

* direct: backward regression recursion on the original quadratic driver;
* transformed: the same machinery applied to the exponentially transformed
  process exp(-z_quad * (Y - value_floor)), which lives in (0, 1] and turns
  the quadratic z-term into algebra; the solution is mapped back afterwards;
* girsanov: the direct recursion with the drift-eliminated driver on
  driftless paths.

The backward step is explicit in y when the driver does not depend on y,
and one-step implicit (a per-path Newton fixed point) when it does; the
transformed driver, affine in u without a y-term and with a constant z_quad,
then takes the exact exponential step instead.  Each implicit step builds its
driver as a function of y once, evaluating the y-free terms then, so Newton's
calls redo only the y part.

Per step, the z-component is estimated by regressing Y_{k+1} dW_k on the
state basis and dividing by dt; the conditional mean of Y_{k+1} comes from
the same feature matrix F, filled in place (powers by recurrence for the
polynomial basis).  One fit serves both targets: ridge-stabilized normal
equations F^T F c = F^T targets without features that fewer than
MIN_SUPPORT samples touch, after a condition check on the diagonally
normalized Gram, which the basis supplies (for powers, from their moments).
That design depends only on the paths and the basis, so it
is computed once per (ensemble, basis, step), memoised on the ensemble and
shared by every solve on it, bit for bit.  All path arrays are column-major,
so each step's column is contiguous.  The basis is scaled to the ensemble's
state range, so no sample ever falls outside it.  Each solver's ``estimate_only``
keeps two alternating value columns instead of the paths x steps Y and Z, and
returns y0, its stderr, the coefficients and the clamp counts, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, SolverError
from .expressions import time_derivative
from .problem import DriverSpec, ForwardSpec, driver_at, eval_driver, girsanov_shifted_driver
from .sde import PathEnsemble

U_FLOOR = 1e-12           # clamp floor for the transformed process
RIDGE = 1e-10             # relative ridge in the normal equations
MAX_CONDITION = 1e12
MIN_SUPPORT = 8           # samples a feature needs before it enters a step's fit
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 20

BASIS_FAMILIES = {"polynomial": "degree", "piecewise_linear": "n_knots"}   # family -> label field


@dataclass(frozen=True)
class BasisSpec:
    """Regression basis: global polynomials or piecewise-linear hats.

    Scaling and knot placement come from the ensemble's state range, fixed
    per solve.  ``from_label`` parses what ``label`` prints, ``<family>:<degree or knots>``.
    """

    family: str = "polynomial"
    degree: int = 2
    n_knots: int = 8

    def __post_init__(self):
        if self.family not in BASIS_FAMILIES:
            raise DomainError(f"unknown basis family {self.family!r}")
        if self.family == "polynomial" and self.degree < 1:
            raise DomainError("polynomial degree must be >= 1")
        if self.family == "piecewise_linear" and self.n_knots < 2:
            raise DomainError("piecewise_linear needs at least 2 knots")

    def label(self) -> str:
        return f"{self.family}:{getattr(self, BASIS_FAMILIES[self.family])}"

    @classmethod
    def from_label(cls, label: str) -> "BasisSpec":
        """The spec ``label`` names; without ``:<n>`` the family's default size."""
        family, _, size = label.partition(":")
        if (family := family.strip()) not in BASIS_FAMILIES:
            raise DomainError(f"unknown basis {label!r}")
        return cls(family, **({BASIS_FAMILIES[family]: int(size)} if size else {}))


class _Basis:
    """Feature builder on a fixed domain; polynomial calls overwrite one reused buffer."""

    def __init__(self, spec: BasisSpec, lo: float, hi: float):
        self.spec = spec
        self._buf = None
        if not np.isfinite(lo) or not np.isfinite(hi):
            raise DomainError("basis domain must be finite")
        if hi <= lo:   # degenerate data range; widen so scaling is defined
            hi = lo + 1.0
        self.lo, self.hi = float(lo), float(hi)
        if spec.family == "piecewise_linear":
            self.knots = np.linspace(self.lo, self.hi, spec.n_knots)

    def features(self, x: np.ndarray) -> np.ndarray:
        if self.spec.family == "polynomial":
            buf = self._buf
            if buf is None or buf.shape[0] != x.size:
                buf = self._buf = np.empty((x.size, self.spec.degree + 1), order="F")
                buf[:, 0] = 1.0
            s = buf[:, 1]   # (2x - (lo + hi)) / (hi - lo), scaled to [-1, 1]
            np.multiply(x, 2.0, out=s)
            s -= self.lo + self.hi
            s /= self.hi - self.lo
            for j in range(2, buf.shape[1]):
                np.multiply(buf[:, j - 1], s, out=buf[:, j])
            return buf
        dx = self.knots[1] - self.knots[0]
        idx = np.clip(((x - self.lo) / dx).astype(int), 0, self.spec.n_knots - 2)
        w = (x - self.knots[idx]) / dx
        out = np.zeros((x.size, self.spec.n_knots))
        rows = np.arange(x.size)
        out[rows, idx] = 1.0 - w
        out[rows, idx + 1] = w
        return out

    def gram(self, features: np.ndarray) -> np.ndarray:
        """F^T F / n; for powers s^j, the Hankel matrix (entry i, j: moment i + j) of the moments
        mean(s^d) from two matrix-vector products (a BLAS dot's sum can follow the thread count)."""
        n, p = features.shape[0], features.shape[1] - 1
        if self.spec.family != "polynomial":
            return features.T @ features / n
        mom = np.concatenate([features.T @ features[:, 0], features[:, 1:].T @ features[:, p]])
        return (mom / n)[np.add.outer(*2 * [np.arange(p + 1)])]


def _design(features: np.ndarray, gram: np.ndarray) -> tuple:
    """A step's regression design from F and F^T F / n: (support mask, ridged normal, condition).

    Features with almost no sample support (hats whose knot interval the
    states barely visit) are dropped for the step: such a coefficient is pure
    noise, and through a quadratic-in-z driver one wild fitted value can
    destabilize the whole recursion.  Only columns short in the first 512 rows are counted in full.
    """
    need = min(MIN_SUPPORT, features.shape[0])
    diag = np.diag(gram).copy()
    support = np.array([np.count_nonzero(f[:64 * need]) >= need or np.count_nonzero(f) >= need
                        for f in features.T])
    support &= diag > 0.0
    sub = gram[np.ix_(support, support)]
    d = np.sqrt(diag[support])
    cond = np.linalg.cond(sub / d / d[:, None])
    return support, sub + RIDGE * np.eye(sub.shape[0]), cond


def _fit(features: np.ndarray, targets: np.ndarray, design: tuple, step: int):
    """Solve ``design``'s normal equations for ``targets`` (n, m); returns (fitted, coefficients).

    Column-major (polynomial) features fit over ``targets``, bit for bit numpy's row-major
    product; a row-major (hat) product may differ there, so it stays row-major.
    A condition number beyond 1e12 is an error: the basis is too rich for the paths.
    """
    support, normal, cond = design
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SolverError(
            f"regression at step {step} is rank-deficient (condition {cond:.3e}); "
            f"use fewer basis functions or more paths", step=step)
    rhs = features.T @ targets / features.shape[0]
    if not support.all():
        rhs = rhs[support]
    sub_coef = np.linalg.solve(normal, rhs)
    coef = np.zeros((features.shape[1], targets.shape[1]))
    coef[support] = sub_coef
    return np.matmul(features, coef, out=targets if features.flags.f_contiguous else None), coef


def _implicit_y(f: Callable, m: np.ndarray, dt: float, step: int) -> np.ndarray:
    """Per-path fixed point of y = m + f(y) dt by in-place Newton; f returns fresh arrays."""
    y = f(m) * dt + m
    h, w = np.empty_like(y), np.empty_like(y)
    for _ in range(NEWTON_MAX_ITER):
        resid = f(y)
        resid *= dt
        np.subtract(np.subtract(y, m, out=h), resid, out=resid)   # y - m - f(y) dt
        scale = max(1.0, float(np.max(np.abs(y, out=h))))
        if float(np.max(np.abs(resid))) <= NEWTON_TOL * scale:
            return y
        np.multiply(np.maximum(h, 1.0, out=h), 1e-6, out=h)
        slope = f(np.add(y, h, out=w))
        slope -= f(np.subtract(y, h, out=w))
        slope /= np.multiply(h, 2.0, out=h)
        np.subtract(1.0, np.multiply(slope, dt, out=slope), out=slope)
        slope[np.abs(slope) < 1e-12] = 1.0
        y -= np.divide(resid, slope, out=resid)
    raise SolverError(f"implicit step did not converge at step {step}", step=step)


@dataclass(frozen=True)
class BackwardSolution:
    """Estimated (Y, Z) along an ensemble, with per-step regression data.

    An estimate-only solve keeps no paths (Y and Z are None); the rest is bit for bit the same.
    """

    grid: "object"
    Y: np.ndarray | None
    Z: np.ndarray | None
    route: str
    scheme: str
    basis: BasisSpec
    y_coefficients: list
    z_coefficients: list
    y0: float
    y0_stderr: float
    clamp_counts: np.ndarray
    n_paths: int
    driver: DriverSpec = field(repr=False, default=None)
    seed: int | None = None   # the ensemble's, checked by martingale_residual

    def __post_init__(self):
        for name in ("Y", "Z", "clamp_counts"):
            if getattr(self, name) is not None:
                arr = np.asarray(getattr(self, name))
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps


def _backward_recursion(
    ens: PathEnsemble,
    terminal: np.ndarray,
    step: Callable,
    basis_spec: BasisSpec,
    clamp: tuple | None = None,
    estimate_only: bool = False,
):
    """Shared backward loop; optionally clamps the value into a band per step.

    ``step(t, x, z, m, v_next, k)`` is the solver's scheme: step k's values from
    the fitted z and mean m of ``v_next``.  Returns (V, Zc, y_coefs,
    z_coefs, clamp_counts, stderr_target, v0), v0 being the time-0 value: the
    common entry when every path starts at one state, the path mean otherwise.
    Step k's values sit in V[:, k % width]; ``estimate_only`` alternates two columns, returning
    V and Zc as None.
    """
    n_paths, n_steps = ens.dW.shape
    dt = ens.grid.dt
    times = ens.grid.times()
    if "states" not in ens._memo:   # the basis domain and the steps with all paths at one state
        lo, hi = ens.states.min(axis=0), ens.states.max(axis=0)
        ens._memo["states"] = float(lo.min()), float(hi.max()), [
            float(b - a) <= 1e-13 * max(1.0, abs(float(x.mean())))
            for a, b, x in zip(lo, hi, ens.states.T)]
    lo, hi, degenerate = ens._memo["states"]
    basis = _Basis(basis_spec, lo, hi)

    width = 2 if estimate_only else n_steps + 1
    V = np.empty((n_paths, width), order="F")
    Zc = None if estimate_only else np.zeros((n_paths, n_steps), order="F")
    targets = np.empty((n_paths, 2), order="F")   # (Y_{k+1}, Y_{k+1} dW_k), then their fit
    V[:, n_steps % width] = terminal
    y_coefs: list = [None] * n_steps
    z_coefs: list = [None] * n_steps
    clamp_counts = np.zeros(n_steps + 1, dtype=int)

    for k in range(n_steps - 1, -1, -1):
        t = float(times[k])
        x = ens.states[:, k]
        v_next = V[:, (k + 1) % width]
        if degenerate[k]:
            zk = np.full(n_paths, float(np.mean(v_next * ens.dW[:, k])) / dt)
            m = np.full(n_paths, float(v_next.mean()))
        else:
            targets[:, 0] = v_next
            np.multiply(v_next, ens.dW[:, k], out=targets[:, 1])
            feats = basis.features(x)
            if (basis_spec, k) not in ens._memo:
                ens._memo[basis_spec, k] = _design(feats, basis.gram(feats))
            fitted, coef = _fit(feats, targets, ens._memo[basis_spec, k], step=k)
            m = fitted[:, 0]
            zk = fitted[:, 1] / dt
            y_coefs[k] = coef[:, 0]
            z_coefs[k] = coef[:, 1] / dt
        v = step(t, x, zk, m, v_next, k)
        if not np.all(np.isfinite(v)):
            raise SolverError(
                f"backward recursion produced non-finite values at step {k}; "
                f"the regression basis resolves the state tails too finely for "
                f"a quadratic-in-z driver at this path count; use fewer knots, "
                f"a polynomial basis, more paths, or the transformed route",
                step=k)
        if clamp is None:
            V[:, k % width] = v
        else:   # v is finite, so clipped = outside the band; none clipped, v >= U_FLOOR > 0
            clamp_counts[k] = np.count_nonzero(np.clip(v, *clamp, out=V[:, k % width]) != v)
            if clamp_counts[k] and (nonpos := float(np.mean(v <= 0.0))) > 0.01:
                raise SolverError(
                    f"transformed values <= 0 on {100 * nonpos:.1f}% of paths at step {k}; "
                    f"the transform is unreliable at this resolution", step=k)
        if Zc is not None:
            Zc[:, k] = zk
    stderr_target = float(V[:, 1].std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    v0 = float(V[0, 0]) if float(np.ptp(V[:, 0])) == 0.0 else float(V[:, 0].mean())
    return None if Zc is None else V, Zc, y_coefs, z_coefs, clamp_counts, stderr_target, v0


def solve_lsmc(
    ens: PathEnsemble,
    spec: DriverSpec,
    basis: BasisSpec,
    route: str = "direct",
    *, estimate_only: bool = False,
) -> BackwardSolution:
    """Direct backward regression on the original driver.

    Terminal values are applied pointwise; per step the conditional mean and
    the incremental z-regression share one feature matrix.  The step follows
    the driver: when it depends on y, the y-argument is the per-path Newton
    fixed point (scheme one_step_implicit); otherwise it is the previous
    backward iterate (scheme explicit).  ``estimate_only`` keeps two value
    columns instead of the paths x steps Y and Z, which come back as None.
    """
    terminal = spec.terminal(ens.states[:, -1])
    dt = ens.grid.dt

    if spec.depends_on_y:
        def step(t, x, z, m, v_next, k):
            drv = driver_at(spec, t, x)
            return _implicit_y(lambda y: drv(y, z), m, dt, step=k)
    else:
        def step(t, x, z, m, v_next, k):
            return m + eval_driver(spec, t, x, v_next, z) * dt

    V, Zc, y_coefs, z_coefs, clamps, se, y0 = _backward_recursion(
        ens, terminal, step, basis, estimate_only=estimate_only)
    return BackwardSolution(
        grid=ens.grid, Y=V, Z=Zc, route=route,
        scheme="one_step_implicit" if spec.depends_on_y else "explicit", basis=basis,
        y_coefficients=y_coefs, z_coefficients=z_coefs, y0=y0, y0_stderr=se,
        clamp_counts=clamps, n_paths=ens.n_paths, driver=spec, seed=ens.seed)


def _check_transformable(z_quad_values: np.ndarray) -> None:
    """Raise ``DomainError`` unless z_quad, sampled at a grid's times, is > 0 throughout."""
    if np.any(z_quad_values <= 0.0):
        raise DomainError("transform requires z_quad > 0 on the whole grid")


def solve_transformed(
    ens: PathEnsemble,
    spec: DriverSpec,
    basis: BasisSpec,
    *, estimate_only: bool = False,
) -> BackwardSolution:
    """Solve the exponentially transformed equation and map back.

    The transformed process exp(-z_quad (Y - value_floor)) satisfies a
    backward equation free of the quadratic z-term; its values are kept in
    [U_FLOOR, 1] by clamping (counted per step), and the pair (Y, Z) is
    recovered from the transformed pair afterwards.  With no ``y_term`` and
    z_quad's time slope 0.0 at every grid time, the step is exponential,
    u = exp(-H source dt) m + z_slope lam dt; otherwise one_step_implicit.  With
    ``estimate_only`` only u0 and its stderr are mapped back, and Y and Z are None.
    """
    times = ens.grid.times()
    H = spec.z_quad(times)
    _check_transformable(H)
    M = spec.value_floor
    horizon = float(times[-1])

    g_vals = spec.terminal(ens.states[:, -1])
    if np.any(g_vals < M - 1e-9):
        raise DomainError(
            "terminal values fall below value_floor; the declared floor is not a lower bound")
    u_terminal = np.exp(-H[-1] * (np.maximum(g_vals, M) - M))

    hdot_cache = {float(t): float(time_derivative(spec.z_quad, float(t), span=horizon))
                  for t in times}
    dt = ens.grid.dt
    affine = spec.y_term is None and not any(hdot_cache.values())

    if affine:   # f(u) = -H source u + z_slope lam: its linear part integrated exactly
        def step(t, x, lam, m, v_next, k):
            u = np.exp(-H[k] * spec.source(t, x) * dt)
            u *= m
            return u if spec.z_slope is None else u + spec.z_slope(t, x) * lam * dt
    else:
        def step(t, x, lam, m, v_next, k):   # the y-free terms once per step
            Ht = float(spec.z_quad(t))
            rate = hdot_cache[t] / Ht   # the recursion only visits grid times
            fixed = Ht * spec.source(t, x)
            push = None if spec.z_slope is None else spec.z_slope(t, x) * lam

            def f(u):   # -u ((hdot/H) ln u + H source - H y_term) + z_slope lam
                u = np.maximum(u, 1e-15)
                ln_u = np.log(u)
                bracket = rate * ln_u
                bracket += fixed
                if spec.y_term is not None:
                    bracket -= Ht * spec.y_term(t, M - ln_u / Ht)
                np.negative(np.multiply(bracket, u, out=bracket), out=bracket)
                return bracket if push is None else bracket + push
            return _implicit_y(f, m, dt, step=k)

    U, Lam, y_coefs, z_coefs, clamps, se_u, u0 = _backward_recursion(
        ens, u_terminal, step, basis, clamp=(U_FLOOR, 1.0), estimate_only=estimate_only)

    if U is not None:   # in place: Z = -Lam / (H U) into Lam, Y = M - log(U) / H into U
        np.negative(Lam, out=Lam)
        for k in range(Lam.shape[1]):
            Lam[:, k] /= H[k] * U[:, k]
        np.subtract(M, np.divide(np.log(U, out=U), H, out=U), out=U)
        U[:, -1] = g_vals   # terminal applied pointwise, exact
    y0 = float(M - np.log(u0) / H[0])
    y0_stderr = float(se_u / (H[0] * u0))
    return BackwardSolution(
        grid=ens.grid, Y=U, Z=Lam, route="transformed",
        scheme="exponential" if affine else "one_step_implicit", basis=basis,
        y_coefficients=y_coefs, z_coefficients=z_coefs, y0=y0, y0_stderr=y0_stderr,
        clamp_counts=clamps, n_paths=ens.n_paths, driver=spec, seed=ens.seed)


def _check_driftless(ens0: PathEnsemble, fwd: ForwardSpec) -> None:
    """Raise ``DomainError`` unless ``ens0``'s increments are sigma(t, X) dW, |sigma| >= 1e-12."""
    times = ens0.grid.times()
    for k in (0, ens0.n_steps // 2, ens0.n_steps - 1):
        x = ens0.states[:, k]
        sig = fwd.sigma(times[k], x)
        if np.any(np.abs(sig) < 1e-12):
            raise DomainError("sigma is not bounded away from zero on the sampled range")
        step_gap = ens0.states[:, k + 1] - x - sig * ens0.dW[:, k]
        tol = 1e-10 * max(1.0, float(np.max(np.abs(ens0.states[:, k + 1]))))
        if float(np.max(np.abs(step_gap))) > tol:
            raise DomainError(
                "ensemble does not look driftless: increments deviate from sigma dW "
                f"at step {k}; simulate it with mu = 0")


def solve_girsanov(
    ens0: PathEnsemble,
    spec: DriverSpec,
    fwd: ForwardSpec,
    basis: BasisSpec,
    *, estimate_only: bool = False,
) -> BackwardSolution:
    """Direct recursion with the drift-eliminated driver on driftless paths.

    ``ens0`` must have been simulated with zero drift and the same diffusion;
    this is verified structurally (``_check_driftless``) rather than trusted.
    ``estimate_only`` is ``solve_lsmc``'s.
    """
    _check_driftless(ens0, fwd)
    shifted = girsanov_shifted_driver(spec, fwd)
    return solve_lsmc(ens0, shifted, basis, route="girsanov", estimate_only=estimate_only)


@dataclass(frozen=True)
class MartingaleResidualReport:
    """Mean one-step identity violation per step, with flagging at 4 stderr."""

    residual: np.ndarray
    stderr: np.ndarray
    flagged_steps: list
    pass_fraction: float

    @property
    def ok(self) -> bool:
        return self.pass_fraction >= 0.95


def martingale_residual(
    sol: BackwardSolution,
    spec: DriverSpec | None,
    ens: PathEnsemble,
) -> MartingaleResidualReport:
    """Check the discrete backward identity along the solution.

    e_k = mean over paths of Y_{k+1} - Y_k + F(t_k, X_k, Y_k, Z_k) dt - Z_k dW_k;
    a sound solution keeps |e_k| <= 4 stderr on at least 95% of steps.  Pass
    ``spec=None`` to use the driver the solution was actually built with
    (this matters for the drift-eliminated route).

    The stderr combines the per-path spread with the variance of
    mean(Z_k dW_k): the regression residual averages to zero exactly per
    realization (the basis contains constants), so the mean residual is
    driven by the fitted-Z / increment coupling, whose variance is
    dt * mean(Z^2) / n and is invisible to the naive per-path estimate.
    """
    if sol.Y is None:
        raise DomainError("the solution kept no paths: it is an estimate-only solve")
    if spec is None:
        spec = sol.driver
    # the seed and the terminal row pin the ensemble's paths, the grid its times
    if (ens.states.shape != sol.Y.shape or ens.grid != sol.grid or ens.seed != sol.seed
            or not np.array_equal(sol.Y[:, -1], spec.terminal(ens.states[:, -1]))):
        raise DomainError("solution and ensemble are not aligned")
    dt = ens.grid.dt
    times = ens.grid.times()
    n = sol.n_paths
    resid = np.empty(sol.n_steps)
    se = np.empty(sol.n_steps)
    for k in range(sol.n_steps):
        f = eval_driver(spec, float(times[k]), ens.states[:, k], sol.Y[:, k], sol.Z[:, k])
        per_path = sol.Y[:, k + 1] - sol.Y[:, k] + np.asarray(f) * dt \
            - sol.Z[:, k] * ens.dW[:, k]
        resid[k] = per_path.mean()
        var_path = per_path.var(ddof=1) / n if n > 1 else 0.0
        var_zdw = dt * float(np.mean(sol.Z[:, k] ** 2)) / n
        se[k] = np.sqrt(var_path + var_zdw)
    flagged = [int(k) for k in range(sol.n_steps)
               if abs(resid[k]) > 4.0 * se[k] + 1e-15]
    return MartingaleResidualReport(
        residual=resid, stderr=se, flagged_steps=flagged,
        pass_fraction=1.0 - len(flagged) / max(sol.n_steps, 1))
