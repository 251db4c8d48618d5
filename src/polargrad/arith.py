"""Integer helpers: primality, factorization, divisor enumeration.

Used for exact rational root extraction.
Deterministic throughout (fixed Miller-Rabin bases, fixed Pollard rho cycle).
"""

from __future__ import annotations

from math import gcd

# Deterministic Miller-Rabin bases, valid for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite n."""
    if n % 2 == 0:
        return 2
    x0 = 2
    c = 1
    while True:
        x = y = x0
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1
        x0 += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        for p in (2, 3, 5, 7, 11, 13):
            if m % p == 0:
                out[p] = out.get(p, 0) + 1
                stack.append(m // p)
                break
        else:
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, sorted ascending."""
    ds = [1]
    for p, e in sorted(factorize(n).items()):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)
