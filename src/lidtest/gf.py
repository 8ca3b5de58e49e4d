"""Exact arithmetic in GF(p^t), the field trace, and additive characters.

Elements are stored as integers in [0, q) encoding coefficient vectors in
base p (little-endian polynomial basis).  Multiplication goes through
discrete log/antilog tables built from a primitive element found at
construction, so every field operation is O(1) table work and vectorizes
over numpy integer arrays.  The library works on these indices only; the
element objects with operator arithmetic that the tests check the tables
against live in tests/algebra.py.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

MAX_Q = 2 ** 16

# Smallest (lexicographic on (c_0..c_{t-1})) monic irreducible polynomial of
# degree t over F_p whose root z is a primitive element.  Fixed so that runs
# are deterministic; callers may override with any irreducible modulus.
MODULUS_TABLE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 0, 2, 1),
    (5, 2): (2, 1, 1),
    (7, 2): (3, 1, 1),
}


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n ** 0.5) + 1))


def _poly_rem(num, div, p):
    """Remainder of num by monic div, coefficient lists over F_p."""
    rem = list(num)
    e = len(div) - 1
    for i in range(len(rem) - 1, e - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j in range(e):
                rem[i - e + j] = (rem[i - e + j] - c * div[j]) % p
    return rem[:e]


def _is_irreducible(modulus, p: int) -> bool:
    """Exhaustive trial division by all monic polynomials of degree <= t/2."""
    from itertools import product

    t = len(modulus) - 1
    if t < 1 or modulus[-1] != 1:
        return False
    if t == 1:
        return True
    for e in range(1, t // 2 + 1):
        for tail in product(range(p), repeat=e):
            if not any(_poly_rem(modulus, list(tail) + [1], p)):
                return False
    return True


class GF:
    """The finite field F_q, q = p^t, with a fixed modulus polynomial."""

    def __init__(self, p: int, t: int = 1, modulus=None):
        if p > MAX_Q:  # before the trial division, which takes sqrt(p) steps
            raise FieldError(f"p = {p} exceeds the {MAX_Q} cap")
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if t < 1:
            raise FieldError(f"extension degree must be >= 1, got {t}")
        if t >= MAX_Q.bit_length() or p ** t > MAX_Q:  # p^t >= 2^t: no huge power is built
            raise FieldError(f"q = {p}^{t} exceeds the {MAX_Q} cap")
        q = p ** t
        if modulus is None:
            if t == 1:
                modulus = (0, 1)
            elif (p, t) in MODULUS_TABLE:
                modulus = MODULUS_TABLE[(p, t)]
            else:
                modulus = self._search_modulus(p, t)
        modulus = tuple(int(c) % p for c in modulus[:-1]) + (int(modulus[-1]),)
        if len(modulus) != t + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree t")
        if not _is_irreducible(modulus, p):
            raise FieldError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.t = t
        self.q = q
        self.modulus = modulus
        self.omega = cmath.exp(2j * cmath.pi / p)
        self._build_tables()

    @staticmethod
    def _search_modulus(p, t):
        from itertools import product

        for tail in product(range(p), repeat=t):
            cand = tuple(tail) + (1,)
            if _is_irreducible(cand, p):
                return cand
        raise FieldError(f"no irreducible polynomial found for p={p}, t={t}")

    def _build_tables(self):
        p, t, q = self.p, self.t, self.q
        # digits[i] = coefficient vector of element i
        idx = np.arange(q)
        digits = np.empty((q, t), dtype=np.int64)
        for j in range(t):
            digits[:, j] = idx % p
            idx = idx // p
        self._digits = digits
        self._pows = p ** np.arange(t, dtype=np.int64)

        # multiplication table via a primitive element
        def mul_naive(a, b):
            ca, cb = digits[a], digits[b]
            res = [0] * (2 * t - 1)
            for i in range(t):
                if ca[i]:
                    for j in range(t):
                        res[i + j] = (res[i + j] + int(ca[i]) * int(cb[j])) % p
            for i in range(2 * t - 2, t - 1, -1):
                c = res[i]
                if c:
                    res[i] = 0
                    for j in range(t):
                        res[i - t + j] = (res[i - t + j] - c * self.modulus[j]) % p
            return int(sum(res[j] * p ** j for j in range(t)))

        exp = None
        for g in range(1, q):
            powers = [1]
            x = 1
            for _ in range(q - 1):
                x = mul_naive(x, g)
                if x == 1:
                    break
                powers.append(x)
            if len(powers) == q - 1:
                exp = powers
                break
        if exp is None:
            raise FieldError("no primitive element found; modulus not irreducible?")
        self._exp = np.array(exp + exp, dtype=np.int64)  # doubled: no mod needed for one product
        log = np.zeros(q, dtype=np.int64)
        for k, v in enumerate(exp):
            log[v] = k
        self._log = log

        # trace table: tr(x) = sum_{l<t} x^(p^l), lands in the prime subfield
        tr = np.zeros(q, dtype=np.int64)
        for x in range(1, q):
            lx = int(log[x])
            acc = 0
            for l in range(t):
                acc = self._add_int(acc, int(self._exp[(lx * pow(p, l, q - 1)) % (q - 1)]))
            tr[x] = acc  # encoded element; must be a constant polynomial
        if np.any(digits[tr][:, 1:] != 0):
            raise FieldError("trace left the prime subfield; tables corrupt")
        self._trace = tr
        self._omega_pows = np.exp(2j * np.pi * np.arange(p) / p)

    def _add_int(self, a, b):
        c = (self._digits[a] + self._digits[b]) % self.p
        return int(c @ self._pows)

    # ---- vectorized integer-encoded operations -------------------------------

    def add(self, a, b):
        c = (self._digits[a] + self._digits[b]) % self.p
        return c @ self._pows

    def neg(self, a):
        c = (-self._digits[a]) % self.p
        return c @ self._pows

    def sub(self, a, b):
        c = (self._digits[a] - self._digits[b]) % self.p
        return c @ self._pows

    def mul(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        out = self._exp[self._log[a] + self._log[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv(self, a):
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def pow(self, a, e):
        a = np.asarray(a)
        if np.any((a == 0) & (np.asarray(e) < 0)):
            raise ZeroDivisionError("zero to a negative power")
        e_red = np.asarray(e) % (self.q - 1)
        out = self._exp[(self._log[a] * e_red) % (self.q - 1)]
        # 0^0 = 1, 0^e = 0 for e > 0
        zero_base = a == 0
        return np.where(zero_base, np.where(np.asarray(e) == 0, 1, 0), out)

    def trace_int(self, a):
        """Trace as an integer in [0, p)."""
        return self._digits[self._trace[a], 0]

    # ---- element interface ---------------------------------------------------

    def index(self, value) -> int:
        """The index of an element given as a coefficient vector (zero-padded,
        entries reduced mod p) or an index."""
        if isinstance(value, (list, tuple, np.ndarray)):
            coeffs = list(value) + [0] * (self.t - len(value))
            if len(coeffs) != self.t:
                raise FieldError("coefficient vector too long")
            return sum((int(c) % self.p) * self.p ** j for j, c in enumerate(coeffs))
        i = int(value)
        if not 0 <= i < self.q:
            raise FieldError(f"index {i} out of range for q = {self.q}")
        return i

    def coeffs_of(self, i: int):
        return tuple(int(c) for c in self._digits[i])

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.t, self.modulus) == (other.p, other.t, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.t, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.t}, modulus={list(self.modulus)})"


@lru_cache(maxsize=None)
def field(p: int, t: int = 1, modulus=None) -> GF:
    """Cached field constructor (moduli hashable as tuples)."""
    return GF(p, t, modulus)


def field_for_order(q: int) -> GF:
    """The field of order q with the built-in modulus."""
    for p in range(2, min(q, MAX_Q) + 1):  # GF refuses a prime power above MAX_Q
        if not is_prime(p):
            continue
        t = 1
        while p ** t < q:
            t += 1
        if p ** t == q:
            return field(p, t)
    raise FieldError(f"{q} is not a prime power of at most {MAX_Q}")


def character_sum(f: GF, a: int) -> complex:
    """E_{x ~ F_q} omega^tr(x*a) for the element of index a: 1 at a = 0 and
    0 elsewhere."""
    xs = np.arange(f.q)
    tr = f.trace_int(f.mul(xs, f.index(a)))
    return complex(f._omega_pows[tr].mean())
