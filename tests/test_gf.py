import numpy as np
import pytest

from lidtest.gf import (
    GF,
    FieldError,
    character_sum,
    field,
    field_for_order,
)

from algebra import element


def vector_character_sum(f, v):
    """E_{u ~ F_q^m} omega^tr(u.v) for a vector v of element indices."""
    total = 1.0 + 0j
    # product structure: E_u prod_j omega^tr(u_j v_j) factorizes
    for c in v:
        total *= character_sum(f, c)
    return total


SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_characteristic_two_addition():
    f4 = field(2, 2)
    assert f4.coeffs_of(f4.add(f4.index((1, 0)), f4.index((1, 1)))) == (0, 1)


def test_additive_identity_f9():
    f9 = field(3, 2)
    xs = np.arange(9)
    assert f9.add(xs, 0).tolist() == xs.tolist()


def test_addition_latin_square_f5():
    f5 = field(5)
    table = f5.add(np.arange(5)[:, None], np.arange(5)[None, :])
    for row in table.tolist() + table.T.tolist():
        assert sorted(row) == list(range(5))


def test_inv_of_one():
    for q in SMALL_ORDERS:
        assert field_for_order(q).inv(1) == 1


def test_frobenius_fixed_points_f8():
    f8 = field(2, 3)
    assert f8.pow(np.arange(8), 8).tolist() == list(range(8))


def test_mul_inv_round_trip_f9():
    f9 = field(3, 2)
    with pytest.raises(ZeroDivisionError):
        f9.inv(0)
    xs = np.arange(1, 9)
    assert f9.mul(xs, f9.inv(xs)).tolist() == [1] * 8


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field_for_order(q)
    a, b = np.arange(q)[:, None, None], np.arange(q)[None, :, None]
    c = np.arange(min(q, 4))[None, None, :]
    assert (f.add(a, b) == f.add(b, a)).all()
    assert (f.mul(a, b) == f.mul(b, a)).all()
    assert (f.add(f.add(a, b), c) == f.add(a, f.add(b, c))).all()
    assert (f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))).all()
    assert (f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))).all()


def test_trace_zero():
    for q in (4, 8, 9):
        assert field_for_order(q).trace_int(0) == 0


def test_trace_of_generator_f4():
    # z^2 + z + 1 = 0, so tr(z) = z + z^2 = z + (z + 1) = 1
    f4 = GF(2, 2, modulus=(1, 1, 1))
    assert f4.trace_int(f4.index((0, 1))) == 1


def test_trace_linear_and_into_prime_field():
    for q in (4, 8, 9, 16):
        f = field_for_order(q)
        xs = np.arange(q)
        assert not np.asarray([f.coeffs_of(t)[1:] for t in f._trace]).any()
        tr = f.trace_int(xs)
        sums = f.trace_int(f.add(xs[:, None], xs[None, :]))
        assert (sums == (tr[:, None] + tr[None, :]) % f.p).all()
        assert set(tr.tolist()) == set(range(f.p))  # surjective onto F_p


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
        for a in range(q):
            assert abs(character_sum(f, a) - (1.0 if a == 0 else 0.0)) < 1e-10


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
        powers = f.pow(f.index((0, 1)), np.arange(1, f.q))
        assert len(set(powers.tolist())) == f.q - 1  # z generates the multiplicative group


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldError):
        element(field(2, 2), 1) + element(field(3), 1)


def test_vectorized_ops_match_scalar():
    f = field(3, 2)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 9, size=50)
    b = rng.integers(0, 9, size=50)
    add = f.add(a, b)
    mul = f.mul(a, b)
    for i in range(50):
        ea, eb = element(f, int(a[i])), element(f, int(b[i]))
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
    assert {0: "zero"}.get(element(f, 0)) == "zero"
    assert {element(f, 1): "one"}.get(1) == "one"
    for e in (element(f, i) for i in range(q)):
        for c in range(-2 * q, 2 * q):
            assert (e == c) == (c == e) == (c < f.p and e.i == c >= 0)
            if e == c:
                assert hash(e) == hash(c)
        assert hash(e) == hash(element(f, e.i))


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
