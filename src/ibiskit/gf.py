"""Exact arithmetic in GF(p^f).

An element is an integer code in [0, q), and there is no element
object: the polynomial residue c_0 + c_1 x + ... + c_{f-1} x^{f-1} is
packed base-p as code = c_0 + c_1 p + ... + c_{f-1} p^{f-1}.  The same
encoding is the wire format for serialization.  Every operation takes
codes or numpy arrays of them, so one call does a whole array.

The modulus is the monic irreducible polynomial of degree f over GF(p)
with the least integer encoding (irreducibility certified by trial
division), so field construction is reproducible across runs.  Every
field has one representation: q x q addition and multiplication tables
and length-q negation and inversion vectors on codes, so each
arithmetic operation is one lookup.  The addition table comes from the
base-p digits of the codes; the multiplication table from the powers of
a generator whose order q - 1 is certified.  SIZE_CAP bounds q so that
each table stays within 8 MiB.
"""

from __future__ import annotations

import functools

import numpy as np

SIZE_CAP = 2**10


class GFError(ValueError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over GF(p), coefficient tuples c_0..c_deg --------

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, over GF(p)."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            for i in range(dm + 1):
                a[len(a) - 1 - dm + i] = (a[len(a) - 1 - dm + i] - lead * m[i]) % p
        a.pop()
    return _poly_trim(a)


def _poly_mulmod(a, b, m, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, m, p)


def _monic_polys(deg, p):
    for low in range(p**deg):
        c, rest = [], low
        for _ in range(deg):
            c.append(rest % p)
            rest //= p
        yield tuple(c) + (1,)


def _is_irreducible(m, p):
    """Trial division against every monic polynomial of degree <= f/2."""
    f = len(m) - 1
    if f == 1:
        return True
    for deg in range(1, f // 2 + 1):
        for d in _monic_polys(deg, p):
            if not _poly_mod(m, d, p):
                return False
    return True


class FiniteField:
    """GF(p^f) with a fixed modulus and multiplicative generator.

    Immutable after construction; safe to share between workers.
    """

    def __init__(self, p, f):
        if not _is_prime(p):
            raise GFError(f"p={p} is not prime")
        if f < 1:
            raise GFError(f"f={f} must be >= 1")
        if p**f > SIZE_CAP:
            raise GFError(f"field size {p}^{f} exceeds cap {SIZE_CAP}")
        self.p = p
        self.f = f
        self.q = p**f

        self.modulus = self._least_irreducible()
        self.generator_code = self._find_generator()
        self._build_tables()
        self._frob_tables = None     # built on first use of frob
        self._embeddings = {}

    # -- construction ----------------------------------------------------

    def _least_irreducible(self):
        for m in _monic_polys(self.f, self.p):
            if _is_irreducible(m, self.p):
                return m
        raise GFError("no irreducible modulus found")  # unreachable

    def _code_to_poly(self, code):
        c, rest = [], int(code)
        for _ in range(self.f):
            c.append(rest % self.p)
            rest //= self.p
        return _poly_trim(c)

    def _poly_to_code(self, poly):
        code = 0
        for c in reversed(poly):
            code = code * self.p + c
        return code

    def _mul_code(self, a, b):
        return self._poly_to_code(
            _poly_mulmod(self._code_to_poly(a), self._code_to_poly(b), self.modulus, self.p))

    def _find_generator(self):
        q = self.q
        rs = _prime_factors(q - 1)
        for g in range(1, q):
            if all(self._pow_code(g, (q - 1) // r) != 1 for r in rs):
                return g
        raise GFError("no generator found")  # unreachable

    def _build_tables(self):
        p, q = self.p, self.q
        codes = np.arange(q, dtype=np.int64)
        self._add = np.zeros((q, q), dtype=np.int64)
        self._neg = np.zeros(q, dtype=np.int64)
        rest, place = codes, 1
        for _ in range(self.f):
            digit = rest % p
            self._add += place * ((digit[:, None] + digit[None, :]) % p)
            self._neg += place * (-digit % p)
            rest, place = rest // p, place * p

        # exp[k] = g^k for k in [0, q - 1); reaching 1 again only after
        # q - 1 steps certifies the generator's order
        exp = np.zeros(q - 1, dtype=np.int64)
        x = 1
        for k in range(q - 1):
            exp[k] = x
            x = self._mul_code(x, self.generator_code)
        assert x == 1, "generator order certification failed"
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._mul = np.zeros((q, q), dtype=np.int64)
        self._mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
        self._inv = np.zeros(q, dtype=np.int64)
        self._inv[exp] = exp[-np.arange(q - 1) % (q - 1)]

    def _pow_code(self, a, e):
        r, b = 1, a
        while e:
            if e & 1:
                r = self._mul_code(r, b)
            b = self._mul_code(b, b)
            e >>= 1
        return r

    # -- vectorized arithmetic on integer-code arrays ---------------------

    def add(self, a, b):
        return self._add[a, b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a, self._neg[b]]

    def mul(self, a, b):
        return self._mul[a, b]

    def inv(self, a):
        out = self._inv[a]
        if not np.all(out):
            raise ZeroDivisionError("division by zero in GF")
        return out

    def div(self, a, b):
        return self._mul[a, self.inv(b)]

    def power(self, a, e):
        a = np.asarray(a)
        r = np.ones_like(a)
        b = a.copy()
        e = int(e)
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def frob(self, a, k=1):
        """x -> x^(p^k), vectorized; k is reduced mod f.  In
        characteristic 2, frob(x, f - 1) is the square root of x."""
        k %= self.f
        if self._frob_tables is None:
            tabs = []
            base = np.arange(self.q)
            t = base
            for _ in range(self.f):
                tabs.append(t)
                t = self.power(t, self.p)
            self._frob_tables = tabs
        return self._frob_tables[k][np.asarray(a)]

    def from_subfield_root(self, sub):
        """Embedding GF(p^k) -> self via the least root of sub's modulus.

        Returns the array mapping sub codes to codes in this field; cached.
        """
        key = (sub.p, sub.f)
        if key in self._embeddings:
            return self._embeddings[key]
        if sub.p != self.p or self.f % sub.f != 0:
            raise GFError("not a subfield")
        for r in range(self.q):
            # evaluate sub.modulus at r inside self
            acc = 0
            for c in reversed(sub.modulus):
                acc = int(self.add(self.mul(acc, r), c % self.p))
            if acc == 0:
                root = r
                break
        else:
            raise GFError("no root of subfield modulus found")  # unreachable
        emb = np.zeros(sub.q, dtype=np.int64)
        for code in range(sub.q):
            acc = 0
            for c in reversed(sub._code_to_poly(code)):
                acc = int(self.add(self.mul(acc, root), c))
            emb[code] = acc
        self._embeddings[key] = emb
        return emb

    def describe(self):
        return {"p": self.p, "f": self.f, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.p}^{self.f})" if self.f > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.f) == (other.p, other.f)


@functools.lru_cache(maxsize=None)
def make_field(p, f):
    """Construct GF(p^f) with the deterministic modulus and generator."""
    return FiniteField(p, f)


def field_of_order(q):
    """GF(q) for a prime power q."""
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            f = 0
            n = q
            while n > 1:
                if n % p:
                    raise GFError(f"{q} is not a prime power")
                n //= p
                f += 1
            return make_field(p, f)
    raise GFError(f"{q} is not a prime power")


def trace_bit(field, code):
    """Absolute trace GF(p^f) -> GF(p) of a code, or of every code of an
    array: the sum of its f Frobenius images."""
    acc = 0
    for i in range(field.f):
        acc = field.add(acc, field.frob(code, i))
    return acc


def find_special_alpha(q):
    """An alpha in GF(q^2) with alpha + alpha^q + 1 = 0 whose Galois orbit
    under Aut(GF(q^2)) has full size 2f, q = p^f.

    The solution set of the trace equation has exactly q elements; a full
    orbit always exists among them.  Returns the least such alpha's code.
    """
    F = field_of_order(q)
    p, f = F.p, F.f
    E = make_field(p, 2 * f)
    sols = []
    for code in range(E.q):
        if int(E.add(E.add(code, E.frob(code, f)), 1)) == 0:
            sols.append(code)
    assert len(sols) == q, "trace-equation solution count must be q"
    for code in sols:
        orbit = {code}
        c = code
        for _ in range(2 * f - 1):
            c = int(E.frob(c, 1))
            orbit.add(c)
        if len(orbit) == 2 * f:
            return code
    raise GFError(f"no full-orbit solution for q={q}")  # not reachable per theory
