import numpy as np
import pytest

from lidtest.gf import (
    GF,
    FieldError,
    character_sum,
    field,
    field_for_order,
)

def vector_character_sum(f, v):
    """E_{u ~ F_q^m} omega^tr(u.v) for a vector v of field elements."""
    vi = [f.element(c).i for c in v]
    total = 1.0 + 0j
    # product structure: E_u prod_j omega^tr(u_j v_j) factorizes
    for c in vi:
        total *= character_sum(f, c)
    return total


SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_characteristic_two_addition():
    f4 = field(2, 2)
    a = f4.element((1, 0))
    b = f4.element((1, 1))
    assert (a + b).coeffs == (0, 1)


def test_additive_identity_f9():
    f9 = field(3, 2)
    for x in f9.elements():
        assert x + f9.zero == x


def test_addition_latin_square_f5():
    f5 = field(5)
    table = [[(a + b).i for b in f5.elements()] for a in f5.elements()]
    for row in table:
        assert sorted(row) == list(range(5))
    for col in zip(*table):
        assert sorted(col) == list(range(5))


def test_inv_of_one():
    for q in SMALL_ORDERS:
        f = field_for_order(q)
        assert f.one.inv() == f.one


def test_frobenius_fixed_points_f8():
    f8 = field(2, 3)
    for x in f8.elements():
        assert x ** 8 == x


def test_mul_inv_round_trip_f9():
    f9 = field(3, 2)
    for x in f9.elements():
        if x.i == 0:
            with pytest.raises(ZeroDivisionError):
                x.inv()
        else:
            assert x * x.inv() == f9.one


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field_for_order(q)
    els = list(f.elements())
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els[:4]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_trace_zero():
    for q in (4, 8, 9):
        f = field_for_order(q)
        assert f.zero.trace() == f.zero


def test_trace_of_generator_f4():
    # z^2 + z + 1 = 0, so tr(z) = z + z^2 = z + (z + 1) = 1
    f4 = GF(2, 2, modulus=(1, 1, 1))
    z = f4.element((0, 1))
    assert z.trace() == f4.one


def test_trace_linear_and_into_prime_field():
    for q in (4, 8, 9, 16):
        f = field_for_order(q)
        traces = set()
        for x in f.elements():
            tx = x.trace()
            assert tx.coeffs[1:] == (0,) * (f.t - 1)
            traces.add(tx.coeffs[0])
            for y in f.elements():
                assert (x + y).trace() == tx + y.trace()
        assert traces == set(range(f.p))  # surjective onto F_p


def test_character_sum_zero_and_nonzero_f7():
    f7 = field(7)
    assert abs(character_sum(f7, 0) - 1.0) < 1e-12
    assert abs(character_sum(f7, 1)) < 1e-12


def test_character_sum_all_nonzero_f9():
    f9 = field(3, 2)
    for a in range(1, 9):
        assert abs(character_sum(f9, a)) < 1e-12


def test_character_sum_binary_valued():
    for q in SMALL_ORDERS:
        f = field_for_order(q)
        for a in f.elements():
            val = character_sum(f, a)
            target = 1.0 if a.i == 0 else 0.0
            assert abs(val - target) < 1e-10


def test_vector_character_sum():
    f3 = field(3)
    assert abs(vector_character_sum(f3, [0, 0]) - 1.0) < 1e-12
    assert abs(vector_character_sum(f3, [1, 0])) < 1e-12
    f4 = field(2, 2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.integers(0, 4, size=3)
        if not v.any():
            continue
        # exhaustive 64-term oracle
        total = 0j
        for u0 in range(4):
            for u1 in range(4):
                for u2 in range(4):
                    dot = 0
                    for ui, vi in zip((u0, u1, u2), v):
                        dot = f4.add(dot, f4.mul(ui, int(vi)))
                    total += f4._omega_pows[f4.trace_int(dot)]
        total /= 64
        assert abs(total) < 1e-12
        assert abs(vector_character_sum(f4, [int(c) for c in v]) - total) < 1e-12


def test_modulus_must_be_irreducible():
    with pytest.raises(FieldError):
        GF(2, 2, modulus=(1, 0, 1))  # z^2 + 1 = (z+1)^2 over F_2
    with pytest.raises(FieldError):
        GF(4, 1)


# the search for p stops at the cap: 10^8 and the prime 1000003 are refused
# at once, not after trying every p up to q
@pytest.mark.parametrize("q", [6, 10 ** 8, 1000003, 2 ** 20])
def test_field_order_search_is_bounded(q):
    with pytest.raises(FieldError):
        field_for_order(q)


def test_builtin_moduli_are_irreducible_and_primitive():
    from lidtest.gf import MODULUS_TABLE

    for (p, t), mod in MODULUS_TABLE.items():
        f = GF(p, t, modulus=mod)
        z = f.element((0, 1))
        seen = set()
        x = f.one
        for _ in range(f.q - 1):
            x = x * z
            seen.add(x.i)
        assert len(seen) == f.q - 1  # z generates the multiplicative group


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldError):
        field(2, 2).one + field(3).one


def test_vectorized_ops_match_scalar():
    f = field(3, 2)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 9, size=50)
    b = rng.integers(0, 9, size=50)
    add = f.add(a, b)
    mul = f.mul(a, b)
    for i in range(50):
        ea, eb = f.element(int(a[i])), f.element(int(b[i]))
        assert (ea + eb).i == add[i]
        assert (ea * eb).i == mul[i]


def test_size_guard():
    with pytest.raises(FieldError):
        GF(2, 17)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_equal_values_hash_equally(q):
    # a FieldElement equals the int that names it in the prime subfield, and
    # then hashes like it, so either one finds the other in a dict
    f = field_for_order(q)
    assert {0: "zero"}.get(f.zero) == "zero"
    assert {f.one: "one"}.get(1) == "one"
    for e in f.elements():
        for c in range(-2 * q, 2 * q):
            assert (e == c) == (c == e) == (c < f.p and e.i == c >= 0)
            if e == c:
                assert hash(e) == hash(c)
        assert hash(e) == hash(f.element(e.i))


# ---- multiplication against sympy's galoistools as an independent oracle ------


def galois_product(f, a, b):
    """a * b in F_p[z] / (modulus) by sympy.polys.galoistools.  gf encodes
    an element little-endian in base p; galoistools lists coefficients
    highest degree first."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_mul, gf_rem

    def high_first(n):
        digits = []
        for _ in range(f.t):
            digits.append(n % f.p)
            n //= f.p
        return digits[::-1]

    rem = gf_rem(gf_mul(high_first(a), high_first(b), f.p, ZZ),
                 list(f.modulus[::-1]), f.p, ZZ)
    n = 0
    for c in rem:
        n = n * f.p + int(c)
    return n


def test_extension_field_products_match_galoistools():
    from lidtest.gf import MODULUS_TABLE

    # every built-in modulus, and GF(3^4), whose modulus is found by search
    fields = [GF(p, t, modulus=mod) for (p, t), mod in sorted(MODULUS_TABLE.items())]
    fields.append(GF(3, 4))
    assert (3, 4) not in MODULUS_TABLE
    for f in fields:
        a, b = np.divmod(np.arange(f.q * f.q), f.q)
        got = f.mul(a, b).tolist()
        want = [galois_product(f, x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert got == want, (f.p, f.t)
