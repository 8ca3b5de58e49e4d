"""Polynomials of bounded individual degree on F_q^m, as integer arrays:
values on the grid, restriction to lines, and slices.

Coefficients are dense, indexed by exponent tuples (e_1, ..., e_m) with every
e_j <= d, flattened in row-major order.  A polynomial is identified with an
integer index (base-q digits = flat coefficients), the outcome label of
polynomial-labelled measurement families and of the SDP, whose values are
rows of `value_table`, built once per (field, m, d).  `label_values` and
`restrict_to_lines` read polynomials as flat coefficient rows.  A point of
F_q^m is named by its grid index, its coordinates as base-q digits with the
last coordinate fastest.  The polynomial, point and line objects that the
tests use as the reference for these tables live in tests/algebra.py.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import SizeGuardError, check_power, guarded_cache  # noqa: F401 (re-export)
from .gf import GF

ENUM_GUARD = 10 ** 6
POINT_GUARD = 10 ** 5


def restrict_to_lines(f: GF, m: int, d: int, coeffs, bases, directions) -> np.ndarray:
    """Flat coefficient rows (polynomials, (d+1)^m) restricted to each line
    {b + t v} of the (lines, m) arrays b, v, as (polynomials, lines, m*d + 1)
    coefficients sum_e R[l, k, e] c_e, where R[l, k, e] is the coefficient
    of t^k in prod_j (b_j + t v_j)^{e_j}.  An axis line is v = e_i, and
    v = 0 leaves g(b) at k = 0."""
    bases, directions = (np.asarray(a, dtype=np.int64).reshape(-1, m) for a in (bases, directions))
    n, ks = len(bases), np.arange(d + 1)
    binom = np.array([[math.comb(e, k) % f.p for k in ks] for e in ks])
    rest = np.maximum(ks[:, None] - ks, 0)  # e - k where k <= e
    table = np.ones((n, 1, 1), dtype=np.int64)  # R: [line, k, exponents so far]
    for j in range(m):
        # [line, e, k]: C(e, k) b_j^(e-k) v_j^k, the coefficients of (b_j + t v_j)^e
        powers = f.mul(binom, f.mul(f.pow(bases[:, j, None, None], rest),
                                    f.pow(directions[:, j, None, None], ks)))
        width = table.shape[1]
        grown = np.zeros((n, width + d, table.shape[2], d + 1), dtype=np.int64)
        for k in ks:  # times t^k
            grown[:, k:k + width] = f.add(grown[:, k:k + width],
                                          f.mul(table[:, :, :, None], powers[:, None, None, :, k]))
        table = grown.reshape(n, width + d, -1)  # e_j is the fastest exponent
    coeffs = np.asarray(coeffs, dtype=np.int64)
    out = np.zeros((len(coeffs),) + table.shape[:2], dtype=np.int64)
    for e in range(table.shape[2]):
        out = f.add(out, f.mul(coeffs[:, e, None, None], table[None, :, :, e]))
    return out


def slice_indices(f: GF, m: int, d: int, x: int) -> np.ndarray:
    """Index of the slice h(., x), h with its last variable set to x, in the
    (m-1)-variable space for every h of the m-variable space, in index
    order: one Horner step in the last variable
    over the base-q coefficient digits of every index at once."""
    check_space("|space|", f, m, d, ENUM_GUARD)
    size = polyspace_size(f, m, d)
    n_exp = (d + 1) ** m
    digits = (np.arange(size)[:, None] // f.q ** np.arange(n_exp)) % f.q
    coeffs = digits.reshape(size, n_exp // (d + 1), d + 1)  # [h, other exponents, e_m]
    acc = np.zeros(coeffs.shape[:2], dtype=np.int64)
    for k in range(d, -1, -1):
        acc = f.add(f.mul(acc, x), coeffs[:, :, k])
    return acc @ f.q ** np.arange(acc.shape[1])


@guarded_cache(lambda f, m, d: check_power("q^m points", f.q, m, POINT_GUARD))
def monomial_table(f: GF, m: int, d: int) -> np.ndarray:
    """Values of every exponent-tuple monomial at every point.

    Shape (q^m, (d+1)^m); row-major over points (last coordinate fastest,
    matching polynomial/point integer indexing), columns in flat exponent
    order.  Entries are integer-encoded field values.
    """
    coords = np.array(list(itertools.product(range(f.q), repeat=m)), dtype=np.int64)
    # coords[:, j] is the j-th coordinate of each point
    pow_tables = [np.stack([f.pow(coords[:, j], e) for e in range(d + 1)], axis=1)
                  for j in range(m)]
    n_exp = (d + 1) ** m
    out = np.ones((f.q ** m, n_exp), dtype=np.int64)
    for col, exps in enumerate(itertools.product(range(d + 1), repeat=m)):
        acc = np.ones(f.q ** m, dtype=np.int64)
        for j, e in enumerate(exps):
            acc = f.mul(acc, pow_tables[j][:, e])
        out[:, col] = acc
    out.setflags(write=False)
    return out


def label_values(f: GF, m: int, d: int, coeffs) -> np.ndarray:
    """Integer-encoded value table of polynomials of the (m, d) space given
    by flat coefficient rows, one row per polynomial, of shape (n, q^m),
    columns in grid order."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    table = monomial_table(f, m, d)
    vals = np.zeros((len(coeffs), table.shape[0]), dtype=np.int64)
    for col in range(coeffs.shape[1]):
        vals = f.add(vals, f.mul(coeffs[:, col:col + 1], table[None, :, col]))
    return vals


def polyspace_size(f: GF, m: int, d: int) -> int:
    return f.q ** ((d + 1) ** m)


def check_space(what: str, f: GF, m: int, d: int, cap: int, factor: int = 1) -> None:
    """check_size of factor * polyspace_size(f, m, d), with factor >= 1,
    without building a space size far over the cap: for d >= 1,
    (d+1)^m >= 2^m > m, so clipping m at cap.bit_length() leaves an
    over-cap exponent over the cap."""
    check_power(what, f.q, (d + 1) ** min(m, cap.bit_length()), cap, factor)


@guarded_cache(lambda f, m, d: check_space("|space|", f, m, d, ENUM_GUARD))
def value_table(f: GF, m: int, d: int) -> np.ndarray:
    """Values of every space member at every point, read-only: row n is the
    label_values row of the polynomial of index n.  Built once per space."""
    table = monomial_table(f, m, d)
    n_pts = table.shape[0]
    vals = np.zeros((1, n_pts), dtype=np.int64)
    for j in range((d + 1) ** m):
        # extend: new digit c_j multiplies monomial j
        contrib = np.stack([f.mul(c, table[:, j]) for c in range(f.q)], axis=0)
        vals = f.add(vals[None, :, :], contrib[:, None, :]).reshape(-1, n_pts)
    vals.setflags(write=False)
    return vals

