"""Reference computations that judge the library's outputs.

Nothing here imports quadforms: every check recomputes what it needs with its
own arithmetic (sieve, Miller-Rabin, reduction to a canonical representative,
Dirichlet composition, Euler's criterion) and returns None when the output is
right, or a one-line reason when it is not.  Forms are plain (a, b, c) tuples
in the halved convention a*x^2 + 2*b*x*y + c*y^2 with D = b^2 - a*c.
"""

from __future__ import annotations

from math import isqrt, prod

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def prime_flags(limit: int) -> bytearray:
    """flags[n] == 1 iff n is prime, for 0 <= n <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return flags


def is_prime_mr(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases: a proof for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --- factoring -------------------------------------------------------------


def check_factorization(m: int, complete: bool, factors, flags: bytearray) -> str | None:
    """factor(m) must be complete, multiply back to m, and list only primes."""
    if not complete:
        return f"factor({m}) is partial"
    if prod(p**e for p, e in factors) != m:
        return f"factor({m}) multiplies back to {prod(p**e for p, e in factors)}"
    for p, e in factors:
        if e < 1 or not flags[p]:
            return f"factor({m}) lists {p}^{e}, which is not a prime power"
    return None


def check_semiprime(p: int, q: int, complete: bool, factors) -> str | None:
    """factor(p*q) must give exactly the generated primes."""
    want = ((min(p, q), 1), (max(p, q), 1))
    if not complete or tuple(tuple(f) for f in factors) != want:
        return f"factor({p * q}) gave {factors}, expected {want}"
    return None


# --- definite forms ------------------------------------------------------------


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def canon(f: tuple[int, int, int]) -> tuple[int, int, int]:
    """Canonical representative of the proper class of a definite form.

    Reduced means 2|b| <= |a| <= |c|, with b >= 0 when 2|b| = |a| or |a| = |c|,
    so two forms are properly equivalent exactly when their canons are equal.
    """
    a, b, c = f
    if b * b - a * c >= 0:
        raise ValueError(f"{f} is not definite")
    sign = -1 if a < 0 else 1
    a, b, c = sign * a, sign * b, sign * c
    while True:
        r = b % a
        if 2 * r > a:
            r -= a
        t = (r - b) // a  # x -> x + t*y carries b to r
        b, c = r, a * t * t + 2 * b * t + c
        if a <= c:
            break
        a, b, c = c, -b, a  # (x, y) -> (-y, x)
    if a == c and b < 0:
        b = -b
    return sign * a, sign * b, sign * c


def compose(f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    """Dirichlet composition of primitive forms of one determinant (not reduced).

    In the full convention (a, B, c) with discriminant B^2 - 4ac: for
    e = gcd(a1, a2, (B1 + B2)/2) = u*a1 + v*a2 + w*(B1 + B2)/2 the composite is
    A = a1*a2/e^2 and B = (u*a1*B2 + v*a2*B1 + w*(B1*B2 + disc)/2)/e.
    """
    (a1, b1, _), (a2, b2, _) = f, g
    d = b1 * b1 - f[0] * f[2]
    if d != b2 * b2 - a2 * g[2]:
        raise ValueError("determinants differ")
    disc, big1, big2 = 4 * d, 2 * b1, 2 * b2
    g1, x, y = _ext_gcd(a1, a2)
    e, s, w = _ext_gcd(g1, b1 + b2)
    u, v = s * x, s * y
    a3 = a1 * a2 // (e * e)
    big3 = (u * a1 * big2 + v * a2 * big1 + w * (big1 * big2 + disc) // 2) // e
    big3 %= 2 * abs(a3)
    return a3, big3 // 2, (big3 * big3 - disc) // (4 * a3)


def scan_reduced_negative(d: int) -> set[tuple[int, int, int]]:
    """Every form with 2|b| <= a <= c of determinant d < 0, with its negation."""
    out = set()
    for a in range(1, isqrt(-4 * d // 3) + 1):
        for b in range(-(a // 2), a // 2 + 1):
            if (b * b - d) % a == 0:
                c = (b * b - d) // a
                if c >= a:
                    out.add((a, b, c))
                    out.add((-a, -b, -c))
    return out


def odd_prime_divisors(n: int) -> list[int]:
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    out, p = [], 3
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 2
    if n > 1:
        out.append(n)
    return out


def euler_entries(f: tuple[int, int, int], primes: list[int]) -> list[tuple[int, str]]:
    """(p, 'R' or 'N') by Euler's criterion on a value of f coprime to p."""
    a, _, c = f
    out = []
    for p in primes:
        v = a if a % p else c
        out.append((p, "R" if pow(v % p, (p - 1) // 2, p) == 1 else "N"))
    return out


def _signs(tokens: tuple[str, ...]) -> tuple[int, ...]:
    """Character tokens as elements of a product of groups, written as ints."""
    out = []
    for t in tokens:
        if t[0] in "RN":
            out.append(1 if t[0] == "R" else -1)
        elif t in ("1 and 7,8", "1 and 3,8"):
            out.append(1)
        elif t in ("3 and 5,8", "5 and 7,8"):
            out.append(-1)
        elif t in ("1,4", "3,4", "1,8", "3,8", "5,8", "7,8"):
            out.append(int(t[0]))  # a unit mod 4 or 8; products compared mod 8
        else:
            raise ValueError(f"unknown character token {t!r}")
    return tuple(out)


def characters_multiply(tf, tg, th) -> bool:
    """Whether character th equals the entrywise product of tf and tg."""
    sf, sg, sh = _signs(tf), _signs(tg), _signs(th)
    if not len(sf) == len(sg) == len(sh):
        return False
    return all((x * y - z) % 8 == 0 for x, y, z in zip(sf, sg, sh))


def check_negative_class(d: int, out: dict, compose_lib) -> str | None:
    """Class structure of a determinant d < 0.

    out holds, as plain tuples: 'forms' (enumerated reduced forms),
    'chars' {form: (odd-prime entries, tokens)} for each form of content 1,
    'pairs' [(f, g, reduced composite)], and 'multiples' [(n, form)] for the
    powers of out['base'].  compose_lib(f, g) is the library's composition,
    whose group laws are checked through canon().
    """
    forms = out["forms"]
    if len(set(forms)) != len(forms) or set(forms) != scan_reduced_negative(d):
        return f"D={d}: enumerated set differs from the exhaustive scan"
    primes = odd_prime_divisors(d)
    for f, (entries, _) in out["chars"].items():
        if list(entries) != euler_entries(f, primes):
            return f"D={d}: character of {f} disagrees with Euler's criterion"
    for f, g, h in out["pairs"]:
        if h not in out["chars"] or canon(h) != canon(compose(f, g)):
            return f"D={d}: {f} o {g} gave {h}"
        if not characters_multiply(out["chars"][f][1], out["chars"][g][1], out["chars"][h][1]):
            return f"D={d}: character is not multiplicative on {f} o {g}"
    unit = (1, 0, -d)
    for f, g, h in out["pairs"][:4]:
        if canon(compose_lib(f, unit)) != canon(f):
            return f"D={d}: {unit} is not an identity for {f}"
        if canon(compose_lib(f, (f[0], -f[1], f[2]))) != unit:
            return f"D={d}: {f} times its opposite is not the identity"
        if canon(compose_lib(compose_lib(f, g), h)) != canon(compose_lib(f, compose_lib(g, h))):
            return f"D={d}: composition is not associative on {f}, {g}, {h}"
    base = out["base"]
    acc = base
    for n, form in out["multiples"]:
        if n > 1:
            acc = canon(compose(acc, base))
        if canon(form) != canon(acc):
            return f"D={d}: class_multiples gives {form} for power {n} of {base}"
    return None


# --- indefinite forms ----------------------------------------------------------


def is_reduced_indefinite(f: tuple[int, int, int], d: int) -> bool:
    """0 < b < sqrt(d) < |a| + b and |a| - b < sqrt(d), by integer comparisons."""
    a, b, _ = f
    a = abs(a)
    return 0 < b and b * b < d < (a + b) ** 2 and (a <= b or (a - b) ** 2 < d)


def next_reduced(f: tuple[int, int, int], d: int) -> tuple[int, int, int]:
    """(c, b', c') with b' = -b mod |c| taken as large as possible below sqrt(d)."""
    _, b, c = f
    s = isqrt(d)
    b1 = s - (s + b) % abs(c)
    return c, b1, (b1 * b1 - d) // c


def check_positive_class(d: int, forms, periods) -> str | None:
    """Reduced forms of a non-square d > 0 and their partition into periods."""
    for f in forms:
        if f[1] ** 2 - f[0] * f[2] != d or not is_reduced_indefinite(f, d):
            return f"D={d}: {f} is not a reduced form of determinant {d}"
    seen: set = set()
    for cycle in periods:
        if not cycle or seen.intersection(cycle) or len(set(cycle)) != len(cycle):
            return f"D={d}: periods overlap or repeat a form"
        seen.update(cycle)
        for f, g in zip(cycle, cycle[1:] + cycle[:1]):
            if next_reduced(f, d) != g:
                return f"D={d}: {g} does not follow {f} in its period"
    if seen != set(forms) or len(seen) != len(forms):
        return f"D={d}: periods do not partition the enumerated forms"
    return None
