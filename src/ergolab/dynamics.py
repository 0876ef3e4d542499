"""Measure-preserving actions of finite group quotients and their ergodic
averages.

A system is a finite set of states, with the uniform measure that every
permutation preserves (an invariant measure is constant on each orbit, so
another could only reweight whole orbits), and an action of a group
quotient; the ergodic average A_r f(x) is the plain mean of f(tau_{g^-1} x)
over the word-metric ball |g| <= r.  Infinite acting groups are replaced by
finite quotients ("desk-scale" systems): the full-group ball then averages
every orbit evenly, so orbit means are reached exactly instead of
asymptotically.

For the regular action of a quotient on itself the ergodic averages and the
geometric ball averages on the same quotient coincide after identifying the
point with the group element.  `transference_check` sweeps the action and
takes the geometric side from `operators.avg_profile`, which on Z^d
quotients is the FFT engine: integer values then agree bit for bit, other
values to rounding.  On other quotients it is the group sweep itself, and
only its spot check against direct ball sums at a few centers can fail.

Nothing stores permutations: a regular system asks `GroupSpace.right_perm`,
which computes each translation from key digits on every call, and a
rotation rolls the state grid on every request.  Orbits are labelled by
min-label hooking with pointer jumping (Shiloach-Vishkin 1982), in O(log n)
rounds.

The tail and convergence experiments never hold the (radii x states)
profile.  The sweep (`operators.sweep_chunks` in `_action_rows`) hands
over each radius's row as soon as it closes that radius, and the row is
folded into the jump or upcrossing DP (`stats.JumpFold`,
`stats.UpcrossingFold`), the mean drift and the convergence maxima before
the sweep divides the next row into the same buffer.  Their memory is
O(n_states * levels) whatever the number of radii (the jump fold holds two
floats per state and level, and two more per state for its quiet
intervals), and every count, tail and distance is bitwise the one the
whole profile gives.  The drift of a row is the plain reduction
(row * w).sum() over the fold's uniform weights w, which calls no BLAS,
so it depends neither on the number of BLAS threads nor on how the rows
are grouped.
`action_profile` and `transference_check` collect the profile.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import operators
from .operators import group_shells, sweep_chunks, sweep_profile
from .space import GroupSpace, _sorted_unique, build_group_space
from .stats import JumpFold, UpcrossingFold, jump_count_batch

__all__ = [
    "ActionError",
    "MPSystem",
    "regular_system",
    "build_system",
    "action_profile",
    "TransferenceReport",
    "transference_check",
    "TailReport",
    "tail_experiment",
    "tail_and_convergence",
    "ConvergenceReport",
    "convergence_probe",
]


class ActionError(ValueError):
    """The data does not define a group action by permutations."""


# products (u, v) whose action `MPSystem` checks against the homomorphism law
_HOMOMORPHISM_SAMPLES = 40


class MPSystem:
    """``n_states`` states, with the uniform measure, and a group action.

    ``perm_for(j)`` must return, for the j-th group element u (in the
    quotient's canonical order), the state permutation x -> tau_{u^-1}(x);
    gathering f through it evaluates the Koopman translate T_u f.  The
    system stores no permutations: each `act_perm` call asks ``perm_for``
    and checks the answer's length and range.
    The constructor checks bijectivity on the generators, the identity,
    and `_HOMOMORPHISM_SAMPLES` products drawn from seed 0 (the
    homomorphism law composes as perm(uv) = perm(v)[perm(u)]).
    """

    def __init__(self, group: GroupSpace, n_states: int,
                 perm_for: Callable[[int], np.ndarray]) -> None:
        if not group.is_quotient:
            raise ActionError("the acting group must be a finite quotient")
        if (not isinstance(n_states, (int, np.integer))
                or isinstance(n_states, bool) or n_states < 1):
            raise ActionError("n_states must be a positive integer")
        self.group = group
        self.n_states = int(n_states)
        self._perm_for = perm_for
        self._labels: np.ndarray | None = None
        self._validate()

    def act_perm(self, j: int) -> np.ndarray:
        """State permutation for group element index j (tau_{u_j^-1})."""
        perm = np.asarray(self._perm_for(int(j)))
        if perm.shape != (self.n_states,):
            raise ActionError("action permutation has the wrong length")
        # the sweep's gather does not check its indices
        if perm.min() < 0 or perm.max() >= self.n_states:
            raise ActionError("action permutation leaves the states")
        return perm

    def _generator_indices(self) -> np.ndarray:
        g = self.group
        gens = g.group.standard_generators()
        idx = g.index_of(gens)
        if np.any(idx < 0):
            raise ActionError("generators missing from the enumerated quotient")
        return _sorted_unique(idx)

    def _validate(self) -> None:
        g = self.group
        if g.word_lengths[0] != 0:
            raise ActionError("canonical order must start at the identity")
        ident = self.act_perm(0)
        if not np.array_equal(ident, np.arange(self.n_states)):
            raise ActionError("the identity element must act as the identity map")
        counts = np.zeros(self.n_states, dtype=np.int64)
        for j in self._generator_indices():
            perm = self.act_perm(int(j))
            counts[:] = 0
            np.add.at(counts, perm, 1)
            if counts.max() != 1:
                raise ActionError(
                    f"generator element {j} does not act bijectively")
        rng = np.random.default_rng(0)
        for _ in range(_HOMOMORPHISM_SAMPLES):
            i = int(rng.integers(g.n))
            j = int(rng.integers(g.n))
            prod = g.group.mult(g.elements[i], g.elements[j])
            k = int(g.index_of(prod)[0])
            if k < 0:
                raise ActionError("group product left the enumerated quotient")
            lhs = self.act_perm(k)
            rhs = self.act_perm(j)[self.act_perm(i)]
            if not np.array_equal(lhs, rhs):
                raise ActionError(
                    f"action is not a homomorphism at the pair ({i}, {j})")

    def orbit_labels(self) -> np.ndarray:
        """Connected components of the action graph, labelled by their
        smallest state index; computed once per system, read-only.

        Each round pulls every label back along each generator (the
        generator sets are symmetric, so along inverses too), then jumps
        every label to its own label's label.  Labels only fall and stay
        inside their orbit, so the fixpoint is the orbit minimum.
        """
        if self._labels is not None:
            return self._labels
        perms = [self.act_perm(int(j)) for j in self._generator_indices()]
        labels = np.arange(self.n_states)
        while True:
            new = labels
            for perm in perms:
                new = np.minimum(new, new[perm])
            new = new[new]
            if np.array_equal(new, labels):
                break
            labels = new
        labels.flags.writeable = False
        self._labels = labels
        return labels

    def orbit_means(self, values: np.ndarray) -> np.ndarray:
        """Per-state mean of ``values`` over the state's orbit, as a plain
        sum over count, so that exactly summable values (integers, signs)
        give the exact mean rather than one perturbed by 1/n weights."""
        labels = self.orbit_labels()
        _, compact = np.unique(labels, return_inverse=True)
        sums = np.bincount(compact, weights=values)
        sizes = np.bincount(compact)
        return (sums / sizes)[compact]


def regular_system(space: GroupSpace) -> MPSystem:
    """The quotient acting on itself by right translation.

    The action permutations are the space's own right translations,
    computed by `GroupSpace.right_perm` on every call.
    """
    return MPSystem(space, space.n, space.right_perm)


def build_system(kind: str, *, modulus: int, step: int = 1) -> MPSystem:
    """Construct one of the stock systems.

    kinds:
      regular     -- Z_N acting on itself
      heisenberg  -- H3 mod N acting on itself
      rotation    -- Z_N acting on Z_N by x -> x + step
      rotation2d  -- Z_N^2 acting on Z_N^2 through the shifts (step, 0)
                     and (0, 1)

    A rotation acts through the quotient Z_N^d itself, on which every
    shift is defined; ``step`` moves only rotations, and any integer step
    acts as ``step % N``.
    """
    if kind in ("regular", "heisenberg"):
        group, _ = (build_group_space("zd", d=1, modulus=modulus)
                    if kind == "regular"
                    else build_group_space("h3", modulus=modulus))
        return regular_system(group)

    if kind not in ("rotation", "rotation2d"):
        raise ValueError(
            f"unknown kind {kind!r}; expected one of regular, rotation, "
            f"rotation2d, heisenberg")
    n = int(modulus)
    dim = 1 if kind == "rotation" else 2
    group, _ = build_group_space("zd", d=dim, modulus=n)
    # row i: the i-th shift; reduced mod n, so e @ steps stays in int64
    steps = np.array([[step % n, 0], [0, 1]], dtype=np.int64)[:dim, :dim]
    grid = np.arange(n ** dim).reshape((n,) * dim)

    def perm_for(j: int) -> np.ndarray:
        # state x goes to x + e @ steps: roll the grid back by the shift
        shift = (group.elements[j] @ steps) % n
        return np.roll(grid, tuple(-shift), axis=tuple(range(dim))).ravel()

    return MPSystem(group, n ** dim, perm_for)


# ---------------------------------------------------------------------------
# Ergodic averages
# ---------------------------------------------------------------------------

def action_profile(system: MPSystem, values: np.ndarray,
                   radii: Sequence[float]) -> np.ndarray:
    """(len(radii), n_states) ergodic averages A_r f over the radius grid;
    for values of shape (n_states, T), shape (len(radii), n_states, T),
    each column bitwise equal to its own profile.

    The ball average counts group elements, as the geometric ball
    averages of a quotient count its points.
    """
    return sweep_profile(_state_values(system, values),
                         group_shells(system.group, system.act_perm, radii),
                         radii)


def _state_values(system: MPSystem, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[0] != system.n_states:
        raise ValueError("values must have one entry per state")
    return values


def _action_rows(system: MPSystem, values: np.ndarray,
                 radii: Sequence[float]) -> Iterator[np.ndarray]:
    """The rows of `action_profile`, bitwise, one radius at a time, each of
    shape ``values.shape``: `operators.sweep_chunks` in chunks of one row,
    so a row is valid only until the next one is drawn."""
    for chunk in sweep_chunks(_state_values(system, values),
                              group_shells(system.group, system.act_perm,
                                           radii),
                              radii, 1):
        yield chunk[0]


# ---------------------------------------------------------------------------
# Transference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferenceReport:
    max_discrepancy: float
    jumps_action: np.ndarray
    jumps_translation: np.ndarray

    @property
    def jumps_equal(self) -> bool:
        return bool(np.array_equal(self.jumps_action, self.jumps_translation))


def transference_check(space: GroupSpace, values: np.ndarray,
                       radii: Sequence[float],
                       lam: float = 0.5) -> TransferenceReport:
    """Compare ergodic averages of the regular action against geometric
    ball averages on the quotient (`operators.avg_profile`), pointwise and
    through jump counts."""
    act = action_profile(regular_system(space), values, radii)
    trans = operators.avg_profile(values, space, radii)
    disc = float(np.abs(act - trans).max()) if act.size else 0.0
    return TransferenceReport(
        max_discrepancy=disc,
        jumps_action=jump_count_batch(act, lam),
        jumps_translation=jump_count_batch(trans, lam))


# ---------------------------------------------------------------------------
# Tail experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailReport:
    kind: str                      # "jump" or "upcrossing"
    threshold: tuple[float, ...]   # (lam,) or (a, b)
    radii: tuple[float, ...]
    ns: tuple[int, ...]
    tails: tuple[float, ...]       # share of states with N > n, each n
    fitted: bool
    slope: float | None
    c1: float | None               # exp(intercept)
    c2: float | None               # exp(slope); in (0,1) iff slope < 0
    r_squared: float | None
    mean_drift: float              # max over radii of |mean(A_r f) - mean(f)|
    notes: tuple[str, ...]

    @property
    def decay_claimed(self) -> bool:
        return bool(self.fitted and self.slope is not None and self.slope < 0)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "threshold": list(self.threshold),
            "radii": list(self.radii),
            "fitted": self.fitted,
            "slope": self.slope,
            "c1": self.c1,
            "c2": self.c2,
            "r_squared": self.r_squared,
            "decay_claimed": self.decay_claimed,
            "notes": list(self.notes),
        }


def _ols_log_tail(ns: np.ndarray, tails: np.ndarray):
    """Least squares on log(tail) against n; returns slope, intercept, R^2."""
    y = np.log(tails)
    slope, intercept = np.polyfit(ns, y, 1)
    fit = slope * ns + intercept
    ss_res = float(((y - fit) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else (
        0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), r2


def tail_experiment(system: MPSystem, values: np.ndarray,
                    radii: Sequence[float], *, lam: float | None = None,
                    upcross: tuple[float, float] | None = None) -> TailReport:
    """Distribution of the jump (or upcrossing) count of the ergodic
    averages over the radius grid, with a log-linear tail fit, and the
    largest drift of the averages' mean from the mean of f.

    Values above sup-norm one are clipped, and the grid is capped at the
    acting group's safe radius; both are recorded in the report rather
    than applied silently.  This is the tail report of
    `tail_and_convergence`, which folds the profile row by row as it is
    swept, never holding it whole.
    """
    return _tail_and_convergence(system, values, radii, lam, upcross)[0]


def _radii_span(radii: Sequence[float]) -> str:
    """One or more dropped radii in a note, by their count and ends, so
    that the note stays short however long the grid is."""
    return (f"{len(radii)} radii, {radii[0]} to {radii[-1]}"
            if len(radii) > 1 else f"the radius {radii[0]}")


class _TailFold:
    """Jump (or upcrossing) counts and mean drift of the clipped values'
    profile over the radii up to the safe radius, fed one row per radius.
    ``values`` and ``radii`` are what it folds: the values clipped to
    sup-norm one (the input itself when nothing was clipped) and the kept
    radii."""

    def __init__(self, system: MPSystem, values: np.ndarray,
                 radii: Sequence[float], lam: float | None,
                 upcross: tuple[float, float] | None) -> None:
        if (lam is None) == (upcross is None):
            raise ValueError("pass exactly one of lam or upcross=(a, b)")
        self._notes: list[str] = []
        sup = float(np.abs(values).max()) if values.size else 0.0
        if sup > 1.0:
            # past this constructor, `_tail_and_convergence` and the public
            # entry point: the warning names the entry point's caller
            warnings.warn("values clipped to sup-norm one", stacklevel=4)
            self._notes.append(f"values clipped to sup-norm one (was {sup:.6g})")
            values = np.clip(values, -1.0, 1.0)
        safe = system.group.safe_radius
        self.radii = [float(r) for r in radii if r <= safe]
        if len(self.radii) < len(radii):
            dropped = [float(r) for r in radii if r > safe]
            self._notes.append(
                f"radius grid capped at the safe radius {safe} of the acting "
                f"group; dropped {_radii_span(dropped)}")
        if not self.radii:
            raise ValueError(
                f"all radii exceed the safe radius {safe} of the acting group")
        self.values = values
        if lam is not None:
            self._kind, self._threshold = "jump", (float(lam),)
            self._counts = JumpFold(lam, system.n_states)
        else:
            self._kind, self._threshold = "upcrossing", tuple(
                float(t) for t in upcross)
            self._counts = UpcrossingFold(*upcross, system.n_states)
        # the uniform weights, renormalised: n copies of 1/n need not sum
        # to 1 in floats (n = 100, 1000, ...), and dividing by their sum
        # keeps the tails and the drift bitwise those of earlier bundles
        w = np.ones(system.n_states) / system.n_states
        self._weights = w / w.sum()
        self._mean = (self._weights * values).sum()
        self._drift = -np.inf

    def update(self, row: np.ndarray) -> None:
        self._counts.update(row[None])
        # the reduction of `_mean`, row by row: no BLAS product
        drift = abs((row * self._weights).sum() - self._mean)
        # np.maximum, unlike max(), keeps a NaN drift
        self._drift = float(np.maximum(self._drift, drift))

    def report(self) -> TailReport:
        """The tail report of the folded profile, with a log-linear fit."""
        counts = self._counts.counts()
        notes = list(self._notes)
        ns = np.arange(int(counts.max()) + 1)
        tails = np.array([float(self._weights[counts > n].sum()) for n in ns])

        pos = tails > 0
        fitted, slope, c1, c2, r2 = False, None, None, None, None
        if not pos.any():
            notes.append("all counts are zero; degenerate report, no fit")
        elif pos.sum() < 3:
            notes.append("fewer than three positive tail points; no fit claimed")
        else:
            slope, intercept, r2 = _ols_log_tail(ns[pos], tails[pos])
            c1, c2 = math.exp(intercept), math.exp(slope)
            fitted = True
            if slope >= 0:
                notes.append("fit slope is nonnegative; no decay constant claimed")

        return TailReport(kind=self._kind, threshold=self._threshold,
                          radii=tuple(self.radii), ns=tuple(int(n) for n in ns),
                          tails=tuple(float(t) for t in tails), fitted=fitted,
                          slope=slope, c1=c1, c2=c2, r_squared=r2,
                          mean_drift=self._drift, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Convergence probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    radii: tuple[float, ...]
    distances: tuple[float, ...]   # max over x of |A_r f - orbit mean|
    n_orbits: int
    notes: tuple[str, ...]


def convergence_probe(system: MPSystem, values: np.ndarray,
                      radii: Sequence[float]) -> ConvergenceReport:
    """Sup distance of the ergodic averages from the orbit-mean projection.

    Radii past the safe radius are allowed (a full-group ball reaches the
    orbit means exactly) but are named in the report.
    """
    conv = _ConvergenceFold(system, values, radii)
    for row in _action_rows(system, values, conv.radii):
        conv.update(row)
    return conv.report()


class _ConvergenceFold:
    """Per-radius sup distance of the averages from the orbit means, fed
    one row per radius; every row goes through one state-sized buffer."""

    def __init__(self, system: MPSystem, values: np.ndarray,
                 radii: Sequence[float]) -> None:
        self._system = system
        self.radii = [float(r) for r in radii]
        self._target = system.orbit_means(np.asarray(values, dtype=float))
        self._diff = np.empty_like(self._target)
        self._distances: list[float] = []

    def update(self, row: np.ndarray) -> None:
        np.subtract(row, self._target, out=self._diff)
        np.abs(self._diff, out=self._diff)
        self._distances.append(float(self._diff.max()))

    def report(self) -> ConvergenceReport:
        safe = self._system.group.safe_radius
        beyond = [r for r in self.radii if r > safe]
        notes = ([f"averages beyond the safe radius {safe} of the acting "
                  f"group at {_radii_span(beyond)}"] if beyond else [])
        return ConvergenceReport(
            radii=tuple(self.radii),
            distances=tuple(self._distances),
            n_orbits=len(_sorted_unique(self._system.orbit_labels())),
            notes=tuple(notes))


def tail_and_convergence(system: MPSystem, values: np.ndarray,
                         radii: Sequence[float], *, lam: float | None = None,
                         upcross: tuple[float, float] | None = None
                         ) -> tuple[TailReport, ConvergenceReport]:
    """`tail_experiment` and `convergence_probe` over the tail's radii from
    one sweep, streamed: each radius's row updates the count fold, the
    drift and the convergence maxima before the sweep divides the next row
    into the same buffer, so the memory stays O(n_states * levels) instead
    of O(n_states * radii).
    The probe reads the unclipped values, so it reads the tail's rows when
    nothing was clipped; otherwise the clipped and the unclipped values are
    swept as one (n_states, 2) block.  The convergence report is bitwise
    that of `convergence_probe` over the kept radii."""
    return _tail_and_convergence(system, values, radii, lam, upcross)


def _tail_and_convergence(system: MPSystem, values: np.ndarray,
                          radii: Sequence[float], lam: float | None,
                          upcross: tuple[float, float] | None
                          ) -> tuple[TailReport, ConvergenceReport]:
    values = np.asarray(values, dtype=float)
    tail = _TailFold(system, values, radii, lam, upcross)
    conv = _ConvergenceFold(system, values, tail.radii)
    if tail.values is values:
        for row in _action_rows(system, values, tail.radii):
            tail.update(row)
            conv.update(row)
    else:
        both = np.stack([tail.values, values], axis=1)
        for row in _action_rows(system, both, tail.radii):
            tail.update(row[:, 0])
            conv.update(row[:, 1])
    return tail.report(), conv.report()
