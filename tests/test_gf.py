import random

import pytest

from ibiskit.gf import (
    GFError, field_of_order, find_special_alpha, frobenius, make_field,
    sqrt_char2, trace, trace_bit,
)


def test_make_field_gf2():
    F = make_field(2, 1)
    assert F.q == 2
    assert F.gen().code == 1


def test_make_field_gf4_modulus():
    # x^2 + x + 1 is the only irreducible quadratic over GF(2)
    F = make_field(2, 2)
    assert F.modulus == (1, 1, 1)


def test_make_field_gf9_generator_order():
    F = make_field(3, 2)
    g = F.gen()
    seen = set()
    x = F.one()
    for _ in range(8):
        x = x * g
        seen.add(x.code)
    assert len(seen) == 8 and F.one().code in seen


def test_make_field_errors():
    with pytest.raises(GFError):
        make_field(4, 1)
    with pytest.raises(GFError):
        make_field(2, 0)
    with pytest.raises(GFError):
        make_field(2, 21)


def test_arith_gf4():
    F = make_field(2, 2)
    a = F.element(2)  # the class of x
    assert (a * a).code == 3  # x^2 = x + 1 mod x^2+x+1


def test_arith_gf2_add():
    F = make_field(2, 1)
    one = F.one()
    assert (one + one).code == 0


def test_arith_div_identity_gf9():
    F = make_field(3, 2)
    for x in F.elements():
        if x:
            assert (x / x) == F.one()


def test_arith_errors():
    F, K = make_field(2, 2), make_field(3, 1)
    with pytest.raises(GFError):
        F.one() + K.one()
    with pytest.raises(ZeroDivisionError):
        F.one() / F.zero()


def test_frobenius_gf4():
    F = make_field(2, 2)
    a = F.element(2)
    assert frobenius(a, 1) == a * a
    assert frobenius(a, 1).code == 3


def test_frobenius_identity_cases():
    for (p, f) in [(2, 3), (3, 2), (5, 1)]:
        F = make_field(p, f)
        for x in F.elements():
            assert frobenius(x, 0) == x
            assert frobenius(x, f) == x


def test_frobenius_involution_gf9():
    F = make_field(3, 2)
    for x in F.elements():
        assert frobenius(frobenius(x, 1), 1) == x


def test_trace_gf4_to_gf2():
    F = make_field(2, 2)
    a = F.element(2)
    assert trace(a, 1) == F.one()  # a + a^2 = 1
    assert trace(F.zero(), 1) == F.zero()


def test_trace_kernel_size_even_q():
    for f in (1, 2, 3, 4):
        F = make_field(2, f)
        ker = [x for x in F.elements() if trace(x, 1) == F.zero()]
        assert len(ker) == F.q // 2


def test_trace_additive_and_surjective():
    for (p, f, k) in [(2, 4, 1), (2, 4, 2), (3, 2, 1), (2, 6, 3)]:
        F = make_field(p, f)
        sub_img = {trace(x, k).code for x in F.elements()}
        assert len(sub_img) == p**k  # surjective onto the subfield
        rng = random.Random(11)
        els = F.elements()
        for _ in range(50):
            x, y = rng.choice(els), rng.choice(els)
            assert trace(x + y, k) == trace(x, k) + trace(y, k)


def test_trace_non_divisor_error():
    F = make_field(2, 4)
    with pytest.raises(GFError):
        trace(F.one(), 3)


def test_sqrt_char2_gf4():
    F = make_field(2, 2)
    a = F.element(2)
    r = sqrt_char2(a)
    assert r == a + F.one()
    assert r * r == a


def test_sqrt_char2_fixed_points():
    F = make_field(2, 3)
    assert sqrt_char2(F.zero()) == F.zero()
    assert sqrt_char2(F.one()) == F.one()


def test_sqrt_char2_additive_gf8():
    F = make_field(2, 3)
    for x in F.elements():
        for y in F.elements():
            assert sqrt_char2(x) + sqrt_char2(y) == sqrt_char2(x + y)


def test_sqrt_char2_inverts_frobenius():
    for f in (1, 2, 3, 4, 5, 6):
        F = make_field(2, f)
        for x in F.elements():
            assert sqrt_char2(x * x) == x


def test_sqrt_char2_odd_char_error():
    F = make_field(3, 1)
    with pytest.raises(GFError):
        sqrt_char2(F.one())


def test_multiplicative_order_exhaustive():
    # every prime power up to 64
    qs = [q for q in range(2, 65)
          if any(q == p**k for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
                                     37, 41, 43, 47, 53, 59, 61)
                 for k in range(1, 7))]
    for q in qs:
        F = field_of_order(q)
        for x in F.elements():
            if x:
                assert x ** (q - 1) == F.one()


def test_trace_additive_exhaustive_small():
    for (p, f, k) in [(2, 4, 1), (2, 4, 2), (3, 2, 1), (2, 6, 2)]:
        F = make_field(p, f)
        els = F.elements()
        for x in els:
            for y in els:
                assert trace(x + y, k) == trace(x, k) + trace(y, k)


def test_find_special_alpha_q2():
    # both solutions of a + a^2 + 1 = 0 in GF(4) lie on full orbits
    E = make_field(2, 2)
    sols = [x for x in E.elements() if x + frobenius(x, 1) + E.one() == E.zero()]
    assert len(sols) == 2
    a = find_special_alpha(2)
    assert a.code in {s.code for s in sols}


def test_find_special_alpha_q4():
    E = make_field(2, 4)
    sols = [x for x in E.elements() if x + frobenius(x, 2) + E.one() == E.zero()]
    assert len(sols) == 4
    a = find_special_alpha(4)
    orbit = {a.code}
    c = a
    for _ in range(3):
        c = frobenius(c, 1)
        orbit.add(c.code)
    assert len(orbit) == 4


def test_find_special_alpha_q3_solution_count():
    E = make_field(3, 2)
    sols = [x for x in E.elements() if x + frobenius(x, 1) + E.one() == E.zero()]
    assert len(sols) == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_find_special_alpha_contract(q):
    F = field_of_order(q)
    E = make_field(F.p, 2 * F.f)
    a = find_special_alpha(q)
    assert a.field == E
    assert a + frobenius(a, F.f) + E.one() == E.zero()
    orbit = set()
    c = a
    for _ in range(2 * F.f):
        orbit.add(c.code)
        c = frobenius(c, 1)
    assert len(orbit) == 2 * F.f


def test_serialization_descriptor():
    F = make_field(2, 3)
    assert F.describe() == {"p": 2, "f": 3, "modulus": [1, 1, 0, 1]}


def test_trace_bit_matches_trace():
    F = make_field(2, 4)
    for x in F.elements():
        assert trace_bit(F, x.code) == trace(x, 1).code


def test_vectorized_ops_match_elementwise():
    import numpy as np
    for q in (8, 9, 25):
        F = field_of_order(q)
        rng = random.Random(5)
        a = np.array([rng.randrange(q) for _ in range(40)])
        b = np.array([rng.randrange(1, q) for _ in range(40)])
        for i in range(40):
            x, y = F.element(a[i]), F.element(b[i])
            assert int(F.add(a, b)[i]) == (x + y).code
            assert int(F.mul(a, b)[i]) == (x * y).code
            assert int(F.sub(a, b)[i]) == (x - y).code
            assert int(F.div(a, b)[i]) == (x / y).code


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
    import numpy as np
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
    import numpy as np
    F = make_field(p, f)
    rng = np.random.default_rng(p * 100 + f)
    a = rng.integers(0, F.q, 3000)
    b = rng.integers(0, F.q, 3000)
    expect = [_oracle_mul(F, int(x), int(y)) for x, y in zip(a, b)]
    assert F.mul(a, b).tolist() == expect


@pytest.mark.parametrize("q", TIER1_QS + [729, 961, 1024])
def test_field_axioms_on_tables(q):
    import numpy as np
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


def test_size_cap_is_the_table_cap():
    assert make_field(2, 10).q == 1024
    with pytest.raises(GFError, match="exceeds cap 1024"):
        make_field(2, 11)
