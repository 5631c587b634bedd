"""Exact arithmetic in GF(p^f).

An element is an integer code in [0, q), and there is no element
object: the polynomial residue c_0 + c_1 x + ... + c_{f-1} x^{f-1} is
packed base-p as code = c_0 + c_1 p + ... + c_{f-1} p^{f-1}.  The same
encoding is the wire format for serialization.  Every operation takes
codes or numpy arrays of them, so one call does a whole array.

Every field has one representation: q x q addition and multiplication
tables, length-q negation and inversion vectors, and the exp/log tables
of the generator on codes, so each arithmetic operation is one lookup.
A field is built from its own base-p digit tables, with no polynomial
arithmetic beside them:

- addition, negation and the multiples by a scalar of GF(p) act digit by
  digit on the codes;
- the modulus m is the monic irreducible polynomial of degree f with the
  least integer encoding.  Modulo a candidate m, "times x" shifts the
  digits up and folds the top digit back in as a multiple of x^f, and
  a b = sum_i a_i (x^i b) is a sum of such maps.  A candidate is
  accepted when no monic code of degree 1..f/2 is a zero divisor, since
  a proper factor of m of that degree would be one;
- the generator is the least code g whose "times g" map returns 1 to
  itself only after q - 1 steps.  That walk is the exp table, and the
  multiplication table, the inverses, every power a^e and the Frobenius
  tables x -> x^(p^k) come from it and its log.

So field construction is reproducible across runs.  SIZE_CAP bounds q
so that each table stays within 8 MiB.
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
        self._build_tables()

    def _build_tables(self):
        p, f, q = self.p, self.f, self.q
        codes = np.arange(q, dtype=np.int64)
        digits = codes[:, None] // p ** np.arange(f) % p   # digits[c, i] = c_i
        # add, neg and scale[s, c] = s c for s in GF(p) act digit by digit:
        # starting from their tables on one digit, a code below p^(k+1) is
        # its top digit times p^k plus a code below p^k
        r = np.arange(p, dtype=np.int64)
        add, neg, scale = (r[:, None] + r) % p, -r % p, r[:, None] * r % p
        for k in range(1, f):
            n = p**k
            add = (add[:p, None, :p, None] * n + add[:, None, :]).reshape(p * n, p * n)
            neg = (neg[:p, None] * n + neg).ravel()
            scale = (scale[:, :p, None] * n + scale[:, None, :]).reshape(p, p * n)
        self._add, self._neg = add, neg

        def times(a, powers):
            """The rows b -> a b for the codes a, from powers[i] = (b -> x^i b)."""
            a = np.asarray(a)[..., None]
            out = scale[digits[a, 0], powers[0]]
            for i in range(1, len(powers)):
                out = add[out, scale[digits[a, i], powers[i]]]
            return out

        top, shifted = codes // (q // p), codes % (q // p) * p

        def powers_of_x(low, n):
            """[b -> x^i b for i < n] modulo m = x^f + low, where x^f = -low."""
            times_x = add[shifted, scale[top, neg[low]]]
            powers = [codes]
            for _ in range(n - 1):
                powers.append(times_x[powers[-1]])
            return powers

        # the monic codes of degree 0..f/2 (the code 1 is no zero divisor)
        monic = np.concatenate([np.arange(p**k, 2 * p**k) for k in range(f // 2 + 1)])
        low = next(low for low in range(q)
                   if times(monic, powers_of_x(low, f // 2 + 1))[:, 1:].all())
        self.modulus = tuple(int(c) for c in digits[low]) + (1,)
        powers = powers_of_x(low, f)

        # exp[k] = g^k for k in [0, q - 1), by doubling along the times-g
        # map; reaching 1 again only after q - 1 steps certifies the order
        # of g, and so that the modulus is irreducible
        for g in range(1, q):
            exp, step = np.ones(1, dtype=np.int64), times(g, powers)
            while len(exp) < q - 1:
                exp = np.concatenate([exp, step[exp]])
                step = step[step]
            exp = exp[: q - 1]
            if not (exp[1:] == 1).any():
                break
        else:
            raise GFError("no generator found")  # unreachable
        self.generator_code = g
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp, self._log = exp, log
        self._mul = np.zeros((q, q), dtype=np.int64)
        self._mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
        self._inv = np.zeros(q, dtype=np.int64)
        self._inv[exp] = exp[-np.arange(q - 1) % (q - 1)]

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
        """a^e for codes a and integer exponents e, broadcast together: one
        lookup exp[log(a) e mod (q - 1)].  0^0 = 1, and 0^e = 0 for e > 0."""
        a, e = np.asarray(a), np.asarray(e)
        zero = a == 0
        if np.any(zero & (e < 0)):
            raise ZeroDivisionError("division by zero in GF")
        out = self._exp[self._log[a] * (e % (self.q - 1)) % (self.q - 1)]
        return np.where(zero, e == 0, out)

    @functools.cached_property
    def _frob(self):
        """_frob[k] = (x -> x^(p^k)) for k < f, built on first use."""
        return self.power(np.arange(self.q), self.p ** np.arange(self.f)[:, None])

    def frob(self, a, k=1):
        """x -> x^(p^k), vectorized; k is reduced mod f.  In
        characteristic 2, frob(x, f - 1) is the square root of x."""
        return self._frob[k % self.f][np.asarray(a)]

    def __repr__(self):
        return f"GF({self.p}^{self.f})" if self.f > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.f) == (other.p, other.f)


@functools.lru_cache(maxsize=None)
def make_field(p, f):
    """Construct GF(p^f) with the deterministic modulus and generator."""
    return FiniteField(p, f)


def field_of_order(q):
    """GF(q) for a prime power q.  Its prime is q's least divisor above 1,
    looked for only up to SIZE_CAP: a larger q with none there is refused."""
    p = next((p for p in range(2, min(q, SIZE_CAP) + 1) if q % p == 0), None)
    if p is None:
        raise GFError(f"field size {q} exceeds cap {SIZE_CAP}" if q > SIZE_CAP
                      else f"{q} is not a prime power")
    f, n = 0, q
    while n % p == 0:
        n //= p
        f += 1
    if n > 1:
        raise GFError(f"{q} is not a prime power")
    return make_field(p, f)


def trace_bit(field, code):
    """Absolute trace GF(p^f) -> GF(p) of a code, or of every code of an
    array: the sum of its f Frobenius images."""
    acc = 0
    for i in range(field.f):
        acc = field.add(acc, field.frob(code, i))
    return acc
