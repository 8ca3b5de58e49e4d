"""The two-prover low individual degree test: question distribution with
exact rational masses.

Subtests: 'axis' (point vs axis-parallel line), 'selfcons' (same point to
both players), 'diag' (point vs general line whose direction has a bounded
number of free leading coordinates).  Probabilities are fractions.Fraction
end to end; floating point never enters this layer.  The support is one
integer table per TestParams (`support_table`, built once and cached), in
which a question is named by its position; `Support.at` finds the position
of integer coordinates, and `Support.describe` renders a position for
messages.  Verdicts are judged over this table in `strategies`.  The
question objects and the round-by-round view with per-round verdicts, the
references the tests check this table against, live in tests/algebra.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import StrategyError, check_power, check_size, guarded_cache
from .gf import GF

SUPPORT_GUARD = 10 ** 6

AXIS, SELFCONS, DIAG = "axis", "selfcons", "diag"
SUBTESTS = (AXIS, SELFCONS, DIAG)
ROLES = ("A", "B")
# the groups of questions: Support.group indexes this, and strategy files
# list questions under these names
GROUPS = ("points", "axis", "diag")


class ProtocolError(StrategyError):
    pass


@dataclass(frozen=True)
class TestParams:
    __test__ = False  # keep pytest collection away

    field: GF
    m: int
    d: int
    weights: tuple = dc_field(
        default=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    )

    def __post_init__(self):
        if self.m < 1 or self.d < 0:
            raise ProtocolError("need m >= 1 and d >= 0")
        w = tuple(Fraction(x) for x in self.weights)
        if len(w) != len(SUBTESTS):
            raise ProtocolError(f"need {len(SUBTESTS)} subtest weights, not {len(w)}")
        if any(x < 0 for x in w) or sum(w) != 1:
            raise ProtocolError("subtest weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)

    @property
    def q(self):
        return self.field.q

    def weight(self, subtest):
        return self.weights[SUBTESTS.index(subtest)]


def _check_support(params: TestParams):
    q, m = params.q, params.m
    check_power("q^m points", q, m, SUPPORT_GUARD)  # the support holds more than q^m
    check_size("question support", q ** m + 2 * m * q ** m + 2 * m * q ** m * q ** m,
               SUPPORT_GUARD)


@dataclass(frozen=True, eq=False)
class Support:
    """The question support of one TestParams as integer arrays.

    A question is named by its position: the points in grid order, then
    each canonical axis line and each canonical diagonal line in the order
    the points first reach them.  By position, `group` holds a question's
    index into GROUPS, `base` and `direction` its integer coordinates (a
    point is its own base, with direction 0; an axis line's direction is its
    unit vector), and `bound` its answer's degree bound (-1 for a value
    answer).  `axis_at[u, i]` is the position of the axis line through grid
    point u along axis i, and `diag_at[u, v]` that of the diagonal line
    through u in direction v (the degenerate line at u for v = 0); `at`
    reads them.  The other fields have one row per round, in the order of
    the subtests' supports: the index into SUBTESTS, the question positions
    asked of A and B, the role holding the line (0 for A, 1 for B, -1 for
    selfcons), the point's parameter on the line (-1 for selfcons and
    degenerate lines), the round's index into `masses`, and the axis of an
    axis line (-1 otherwise).
    """

    field: GF
    group: np.ndarray
    base: np.ndarray
    direction: np.ndarray
    bound: np.ndarray
    axis_at: np.ndarray
    diag_at: np.ndarray
    subtest: np.ndarray
    q_a: np.ndarray
    q_b: np.ndarray
    line_role: np.ndarray
    t: np.ndarray
    mass_class: np.ndarray
    masses: tuple
    axis: np.ndarray

    def __len__(self):
        return len(self.subtest)

    def at(self, group, base, direction):
        """(positions, canonical) for questions of `group` (an index into
        GROUPS, or one per row) given by integer coordinates in range, one
        row of m each: the position of the support question through the
        same points, and whether it has exactly these coordinates."""
        place = self.field.q ** np.arange(base.shape[1] - 1, -1, -1)
        u = base @ place
        line = np.where(group == 1, self.axis_at[u, direction.argmax(axis=1)],
                        self.diag_at[u, direction @ place])
        pos = np.where(group == 0, u, line)
        same = (self.base[pos] == base) & (self.direction[pos] == direction)
        return pos, same.all(axis=1)

    def describe(self, pos) -> str:
        """The question at a position in words, for messages."""
        return question_text(self.group[pos], self.base[pos], self.direction[pos])


def question_text(group, base, direction) -> str:
    """A question in words, for messages, from its group (an index into
    GROUPS) and its coordinates as element indices: a point, an axis line
    as its base and axis, or a diagonal line as base + t * direction."""
    base, direction = tuple(map(int, base)), tuple(map(int, direction))
    if group == 0:
        return f"point {base}"
    if group == 1:
        return f"axis-{direction.index(1)} line through {base}"
    if not any(direction):
        return f"degenerate diagonal line at {base}"
    return f"diagonal line {base} + t * {direction}"


def _rounds(subtest, role, line, pt, t, mass_class, axis):
    """Columns of a block of rounds, one per entry of pt."""
    q_a, q_b = (line, pt) if role == 0 else (pt, line)
    cols = (SUBTESTS.index(subtest), q_a, q_b, role, t, mass_class, axis)
    return [np.broadcast_to(c, pt.shape) for c in cols]


@guarded_cache(_check_support, maxsize=8)
def support_table(params: TestParams) -> Support:
    """The Support of params, built once: canonical lines come from integer
    arrays over every (point, axis) and (point, direction) pair."""
    f, m = params.field, params.m
    q, n = f.q, f.q ** m
    place = q ** np.arange(m - 1, -1, -1)  # grid index = coordinates @ place
    coords = np.arange(n)[:, None] // place % q
    # the axis line through (u, i) has base u with u_i = 0, where it is first met
    axis_id = (np.arange(n)[:, None] - coords * place) * m + np.arange(m)
    first = coords == 0
    rank = np.zeros(n * m, dtype=np.int64)
    rank[axis_id[first]] = np.arange(first.sum())
    axis_pos = n + rank[axis_id]
    n_axis = int(first.sum())
    # the diagonal line through (u, v): scale v to 1 at its pivot, and move
    # the base to 0 there; v = 0 keeps the degenerate line (u, 0)
    nonzero = coords != 0
    piv = nonzero.argmax(axis=1)
    degenerate = ~nonzero.any(axis=1)
    lead = np.where(degenerate, 1, coords[np.arange(n), piv])
    direction = f.mul(coords, f.inv(lead)[:, None])
    t_uv = coords[:, piv]  # [u, v] = u at v's pivot
    base = f.sub(coords[:, None, :], f.mul(t_uv[:, :, None], direction[None, :, :]))
    keys, first_at, inverse = np.unique((base @ place) * n + direction @ place,
                                        return_index=True, return_inverse=True)
    order = np.argsort(first_at)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    diag_pos = n + n_axis + rank[inverse.reshape(n, n)]
    t_diag = np.where(degenerate[None, :], -1, t_uv)
    axis_keys, diag_keys = axis_id[first], keys[order]
    group = np.repeat(np.arange(len(GROUPS)), [n, n_axis, len(diag_keys)])
    base = np.concatenate([coords, coords[axis_keys // m], coords[diag_keys // n]])
    direction = np.concatenate([np.zeros_like(coords), np.eye(m, dtype=np.int64)[axis_keys % m],
                                coords[diag_keys % n]])
    bound = np.concatenate([np.full(n, -1), np.full(n_axis, params.d),
                            np.where(diag_keys % n == 0, -1, m * params.d)])

    w_axis, w_self, w_diag = params.weights
    masses = (w_axis / 2 / n / m, w_self / n) + tuple(
        w_diag / 2 / n / m / q ** i for i in range(1, m + 1))
    u = np.arange(n)
    blocks = []
    if w_axis:
        uu, ii = np.repeat(u, m), np.tile(np.arange(m), n)
        blocks += [_rounds(AXIS, role, axis_pos[uu, ii], uu, coords[uu, ii], 0, ii)
                   for role in (0, 1)]
    if w_self:
        blocks.append(_rounds(SELFCONS, -1, u, u, -1, 1, -1))
    if w_diag:
        # count i draws the q^i directions whose coordinates after the i-th are 0
        vs = np.concatenate([np.arange(q ** i) * q ** (m - i) for i in range(1, m + 1)])
        cls = np.concatenate([np.full(q ** i, 1 + i) for i in range(1, m + 1)])
        uu, vv = np.repeat(u, len(vs)), np.tile(vs, n)
        blocks += [_rounds(DIAG, role, diag_pos[uu, vv], uu, t_diag[uu, vv],
                           np.tile(cls, n), -1) for role in (0, 1)]
    cols = [np.concatenate(c) for c in zip(*blocks)]
    for col in cols + [group, base, direction, bound, axis_pos, diag_pos]:
        col.setflags(write=False)  # the table is cached and shared
    subtest, q_a, q_b, role, t, mass_class, axis = cols
    return Support(f, group, base, direction, bound, axis_pos, diag_pos,
                   subtest, q_a, q_b, role, t, mass_class, masses, axis)
