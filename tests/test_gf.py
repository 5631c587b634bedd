import random
import time

import numpy as np
import pytest

from conftest import power_by_squaring
from ibiskit.gf import (
    GFError, field_of_order, find_special_alpha, make_field, trace_bit,
)


def test_make_field_gf2():
    F = make_field(2, 1)
    assert F.q == 2
    assert F.generator_code == 1


def test_make_field_gf4_modulus():
    # x^2 + x + 1 is the only irreducible quadratic over GF(2)
    F = make_field(2, 2)
    assert F.modulus == (1, 1, 1)


def test_make_field_gf9_generator_order():
    F = make_field(3, 2)
    g = F.generator_code
    seen = set()
    x = 1
    for _ in range(8):
        x = int(F.mul(x, g))
        seen.add(x)
    assert len(seen) == 8 and 1 in seen


def test_make_field_errors():
    with pytest.raises(GFError):
        make_field(4, 1)
    with pytest.raises(GFError):
        make_field(2, 0)
    with pytest.raises(GFError):
        make_field(2, 21)


def test_arith_gf4():
    F = make_field(2, 2)
    a = 2  # the class of x
    assert F.mul(a, a) == 3  # x^2 = x + 1 mod x^2+x+1


def test_arith_gf2_add():
    F = make_field(2, 1)
    assert F.add(1, 1) == 0


def test_arith_div_identity_gf9():
    F = make_field(3, 2)
    x = np.arange(1, F.q)
    assert (F.div(x, x) == 1).all()


def test_arith_errors():
    F = make_field(2, 2)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        F.inv(np.arange(F.q))


def test_frobenius_gf4():
    F = make_field(2, 2)
    a = 2
    assert F.frob(a, 1) == F.mul(a, a)
    assert F.frob(a, 1) == 3


def test_frobenius_identity_cases():
    for (p, f) in [(2, 3), (3, 2), (5, 1)]:
        F = make_field(p, f)
        x = np.arange(F.q)
        assert (F.frob(x, 0) == x).all()
        assert (F.frob(x, f) == x).all()
        assert (F.frob(x, 1) == power_by_squaring(F, x, p)).all()


def test_frobenius_involution_gf9():
    F = make_field(3, 2)
    x = np.arange(F.q)
    assert (F.frob(F.frob(x, 1), 1) == x).all()


def absolute_trace(F, x):
    """x + x^p + ... + x^(p^(f-1)) by square-and-multiply (no Frobenius
    or exp/log table)."""
    acc = 0
    for i in range(F.f):
        acc = int(F.add(acc, power_by_squaring(F, x, F.p**i)))
    return acc


def test_trace_gf4_to_gf2():
    F = make_field(2, 2)
    assert trace_bit(F, 2) == 1  # a + a^2 = 1 for the class a of x
    assert trace_bit(F, 0) == 0


def test_trace_kernel_size_even_q():
    for f in (1, 2, 3, 4):
        F = make_field(2, f)
        ker = [x for x in range(F.q) if trace_bit(F, x) == 0]
        assert len(ker) == F.q // 2


def test_trace_additive_and_surjective():
    for (p, f) in [(2, 4), (3, 2), (2, 6)]:
        F = make_field(p, f)
        assert {trace_bit(F, x) for x in range(F.q)} == set(range(p))
        rng = random.Random(11)
        for _ in range(50):
            x, y = rng.randrange(F.q), rng.randrange(F.q)
            assert trace_bit(F, int(F.add(x, y))) == \
                (trace_bit(F, x) + trace_bit(F, y)) % p


def sqrt_char2(F, x):
    """The square root in characteristic 2: the inverse Frobenius."""
    return F.frob(x, F.f - 1)


def test_sqrt_char2_gf4():
    F = make_field(2, 2)
    a = 2
    r = sqrt_char2(F, a)
    assert r == F.add(a, 1)
    assert F.mul(r, r) == a


def test_sqrt_char2_fixed_points():
    F = make_field(2, 3)
    assert sqrt_char2(F, 0) == 0
    assert sqrt_char2(F, 1) == 1


def test_sqrt_char2_additive_gf8():
    F = make_field(2, 3)
    x, y = np.divmod(np.arange(F.q * F.q), F.q)
    assert (F.add(sqrt_char2(F, x), sqrt_char2(F, y))
            == sqrt_char2(F, F.add(x, y))).all()


def test_sqrt_char2_inverts_frobenius():
    for f in (1, 2, 3, 4, 5, 6):
        F = make_field(2, f)
        x = np.arange(F.q)
        assert (sqrt_char2(F, F.mul(x, x)) == x).all()


def test_multiplicative_order_exhaustive():
    # every prime power up to 64
    qs = [q for q in range(2, 65)
          if any(q == p**k for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
                                     37, 41, 43, 47, 53, 59, 61)
                 for k in range(1, 7))]
    for q in qs:
        F = field_of_order(q)
        assert (power_by_squaring(F, np.arange(1, q), q - 1) == 1).all()
        # and the generator's order is exactly q - 1
        g = F.generator_code
        assert all(power_by_squaring(F, g, (q - 1) // r) != 1
                   for r in range(2, q) if (q - 1) % r == 0)


def test_trace_additive_exhaustive_small():
    for (p, f) in [(2, 4), (3, 2), (2, 6), (5, 2)]:
        F = make_field(p, f)
        tr = np.array([trace_bit(F, x) for x in range(F.q)])
        x, y = np.divmod(np.arange(F.q * F.q), F.q)
        assert (tr[F.add(x, y)] == (tr[x] + tr[y]) % p).all()


def test_find_special_alpha_q2():
    # both solutions of a + a^2 + 1 = 0 in GF(4) lie on full orbits
    E = make_field(2, 2)
    sols = [x for x in range(E.q) if E.add(E.add(x, E.frob(x, 1)), 1) == 0]
    assert len(sols) == 2
    assert find_special_alpha(2) in sols


def test_find_special_alpha_q4():
    E = make_field(2, 4)
    sols = [x for x in range(E.q) if E.add(E.add(x, E.frob(x, 2)), 1) == 0]
    assert len(sols) == 4
    a = find_special_alpha(4)
    orbit = {a}
    c = a
    for _ in range(3):
        c = int(E.frob(c, 1))
        orbit.add(c)
    assert len(orbit) == 4


def test_find_special_alpha_q3_solution_count():
    E = make_field(3, 2)
    sols = [x for x in range(E.q) if E.add(E.add(x, E.frob(x, 1)), 1) == 0]
    assert len(sols) == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_find_special_alpha_contract(q):
    F = field_of_order(q)
    E = make_field(F.p, 2 * F.f)
    a = find_special_alpha(q)
    assert type(a) is int and 0 <= a < E.q
    assert E.add(E.add(a, E.frob(a, F.f)), 1) == 0
    orbit = set()
    c = a
    for _ in range(2 * F.f):
        orbit.add(c)
        c = int(E.frob(c, 1))
    assert len(orbit) == 2 * F.f


def test_serialization_descriptor():
    F = make_field(2, 3)
    assert F.modulus == (1, 1, 0, 1)


def test_trace_bit_matches_trace():
    for (p, f) in [(2, 4), (3, 3), (5, 2)]:
        F = make_field(p, f)
        for x in range(F.q):
            assert trace_bit(F, x) == absolute_trace(F, x)


def test_vectorized_ops_match_elementwise():
    for q in (8, 9, 25):
        F = field_of_order(q)
        rng = random.Random(5)
        a = np.array([rng.randrange(q) for _ in range(40)])
        b = np.array([rng.randrange(1, q) for _ in range(40)])
        for i in range(40):
            x, y = int(a[i]), int(b[i])
            assert int(F.add(a, b)[i]) == F.add(x, y)
            assert int(F.mul(a, b)[i]) == F.mul(x, y)
            assert int(F.sub(a, b)[i]) == F.sub(x, y)
            assert int(F.div(a, b)[i]) == F.div(x, y)
            assert F.add(F.sub(x, y), y) == x
            assert F.mul(F.div(x, y), y) == x


# -- the arithmetic tables against an independent polynomial oracle -----------

# every field size up to 81, the largest the rest of the suite builds
TIER1_QS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
            37, 41, 43, 47, 49, 53, 59, 61, 64, 67, 71, 73, 79, 81]


def _poly(F, code):
    """A code as a sympy galoistools polynomial: coefficients, leading first."""
    digits = []
    for _ in range(F.f):
        digits.append(code % F.p)
        code //= F.p
    return list(reversed(digits))


def _oracle_mul(F, a, b):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_mul, gf_rem
    m = list(reversed(F.modulus))
    r = gf_rem(gf_mul(_poly(F, a), _poly(F, b), F.p, ZZ), m, F.p, ZZ)
    code = 0
    for c in r:
        code = code * F.p + int(c)
    return code


@pytest.mark.parametrize("q", TIER1_QS)
def test_mul_matches_polynomial_oracle_all_pairs(q):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p
    F = field_of_order(q)
    assert gf_irreducible_p(list(reversed(F.modulus)), F.p, ZZ)
    a, b = np.divmod(np.arange(q * q), q)
    expect = [_oracle_mul(F, int(x), int(y)) for x, y in zip(a, b)]
    assert F.mul(a, b).tolist() == expect


@pytest.mark.parametrize("p,f", [(3, 6), (31, 2), (2, 10)])
def test_mul_matches_polynomial_oracle_sampled(p, f):
    pytest.importorskip("sympy")
    F = make_field(p, f)
    rng = np.random.default_rng(p * 100 + f)
    a = rng.integers(0, F.q, 3000)
    b = rng.integers(0, F.q, 3000)
    expect = [_oracle_mul(F, int(x), int(y)) for x, y in zip(a, b)]
    assert F.mul(a, b).tolist() == expect


@pytest.mark.parametrize("q", TIER1_QS + [729, 961, 1024])
def test_field_axioms_on_tables(q):
    F = field_of_order(q)
    a = np.arange(q)
    assert not F.add(a, F.neg(a)).any()
    assert (F.mul(a[1:], F.inv(a[1:])) == 1).all()
    assert (F.sub(F.add(a, q - 1), q - 1) == a).all()
    if q <= 81:
        x, y, z = (t.ravel() for t in np.meshgrid(a, a, a, indexing="ij"))
    else:
        rng = np.random.default_rng(q)
        x, y, z = (rng.integers(0, q, 20000) for _ in range(3))
    assert (F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))).all()


@pytest.mark.parametrize("q", [q for q in TIER1_QS if q <= 64])
def test_power_matches_square_and_multiply(q):
    F = field_of_order(q)
    units = np.arange(1, q)
    es = np.arange(-2 * (q - 1), 2 * (q - 1) + 1)
    # a^-e is inv(a)^e
    expect = np.stack([power_by_squaring(F, units, e) if e >= 0
                       else power_by_squaring(F, F.inv(units), -e) for e in es], axis=1)
    assert (F.power(units[:, None], es) == expect).all()
    assert all((F.power(units, e) == expect[:, i]).all() for i, e in enumerate(es))
    zero = F.power(0, es[es >= 0])
    assert zero[0] == 1 and not zero[1:].any()
    for a in (0, np.arange(q)):
        with pytest.raises(ZeroDivisionError):
            F.power(a, -1)


def test_size_cap_is_the_table_cap():
    assert make_field(2, 10).q == 1024
    with pytest.raises(GFError, match="exceeds cap 1024"):
        make_field(2, 11)


@pytest.mark.parametrize("q", [10**9 + 7, 1000003**2])
def test_field_of_order_refuses_a_large_q_without_a_prime_search(q):
    # neither has a prime divisor up to the cap; the search up to q took
    # seconds for 1000003 and would take hours for 10^9 + 7
    t0 = time.perf_counter()
    with pytest.raises(GFError, match=f"^field size {q} exceeds cap 1024$"):
        field_of_order(q)
    assert time.perf_counter() - t0 < 0.1


# -- the field representation, pinned ------------------------------------------

@pytest.mark.parametrize("q", TIER1_QS)
def test_modulus_and_generator_are_the_least(q):
    pytest.importorskip("sympy")
    from sympy import factorint
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p
    F = field_of_order(q)
    # monic candidates x^f + (the polynomial of code low), least low first
    low = next(low for low in range(q)
               if gf_irreducible_p([1] + _poly(F, low), F.p, ZZ))
    assert F.modulus == tuple(reversed([1] + _poly(F, low)))
    assert all(type(c) is int for c in F.modulus)
    primitive = [g for g in range(1, q)
                 if all(power_by_squaring(F, g, (q - 1) // r) != 1
                        for r in factorint(q - 1))]
    assert type(F.generator_code) is int and F.generator_code == primitive[0]


def _prime_powers(cap):
    primes = [p for p in range(2, cap + 1) if all(p % d for d in range(2, p))]
    return sorted((p**f, p, f) for p in primes for f in range(1, 11) if p**f <= cap)


# sha256 over every field with q <= 1024, in the order of q, of its modulus,
# generator and its add, mul, neg and inv tables as int64 bytes, computed
# when the fields were still built by polynomial arithmetic over GF(p)
ALL_FIELDS_SHA256 = "f843d4db9c1d16da7eeeee2c92334864343f0c1d0d4104a6ddc80e328d1f2ead"


@pytest.mark.slow
def test_every_field_representation_is_pinned():
    import hashlib
    from ibiskit.gf import FiniteField
    fields = _prime_powers(1024)
    assert len(fields) == 198
    h = hashlib.sha256()
    for _, p, f in fields:
        F = FiniteField(p, f)           # uncached, so each is freed in turn
        h.update(repr((F.modulus, F.generator_code)).encode())
        for table in (F._add, F._mul, F._neg, F._inv):
            h.update(np.ascontiguousarray(table, dtype=np.int64).tobytes())
    assert h.hexdigest() == ALL_FIELDS_SHA256
