"""Write reduce_pool.json, the curve pool the reduce-census workload draws from.

Run from the repository root:  python3 perfbench/make_pool.py

Curves have a1, a3 in {0, 1}, a2 in {-1, 0, 1}, |a4| < 10^7 and |a6| < 10^10,
so discriminants have 21 to 23 digits.  A random curve of that size is
reduced in anywhere from 3 ms to 2 s, depending on how its discriminant
factors, so 20 uniformly drawn curves vary by 25% from seed to seed.  The pool
therefore keeps two classes whose factoring work is predictable, and the
workload draws a fixed number from each:

- "prime": after removing prime factors below 10^6, one prime above 10^12 is
  left, so trial division runs to 10^6 and ends with a primality test;
- "rho": the part left is the product of two primes, the smaller below 10^7,
  so Pollard rho is needed but finds its factor within a few thousand steps.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from numtheory import discriminant, is_prime, primes_below  # noqa: E402

POOL_PATH = HERE / "reduce_pool.json"
TRIAL_BOUND = 10**6
RHO_FACTOR_BOUND = 10**7
SIZES = {"prime": 400, "rho": 100}


def _product(values):
    while len(values) > 1:
        values = [math.prod(values[i : i + 2]) for i in range(0, len(values), 2)]
    return values[0]


def _rho(n, steps):
    for c in (1, 3, 5):
        x = y = 2
        for _ in range(steps):
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
            if d == n:
                break
            if d > 1:
                return d
    return None


def classify(ainvs, primorial):
    """'prime', 'rho' or None, from the prime factors of |discriminant| above 10^6."""
    n = abs(discriminant(*ainvs))
    if n == 0:
        return None
    g = math.gcd(n, primorial)
    while g > 1:
        n //= g
        g = math.gcd(n, g)
    if n <= TRIAL_BOUND**2:
        return None
    if is_prime(n):
        return "prime"
    d = _rho(n, 20_000)
    if d is None:
        return None
    small, large = sorted((d, n // d))
    if small < RHO_FACTOR_BOUND and is_prime(small) and is_prime(large):
        return "rho"
    return None


def main():
    primorial = _product(primes_below(TRIAL_BOUND))
    rng = random.Random("reduce-census pool")
    pool = {name: [] for name in SIZES}
    seen = set()
    while any(len(pool[k]) < n for k, n in SIZES.items()):
        ainvs = (
            rng.randint(0, 1),
            rng.randint(-1, 1),
            rng.randint(0, 1),
            rng.randint(-(10**7) + 1, 10**7 - 1),
            rng.randint(-(10**10) + 1, 10**10 - 1),
        )
        if ainvs in seen:
            continue
        seen.add(ainvs)
        kind = classify(ainvs, primorial)
        if kind is not None and len(pool[kind]) < SIZES[kind]:
            pool[kind].append(list(ainvs))
    POOL_PATH.write_text(json.dumps(pool, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {POOL_PATH.name}: " + ", ".join(f"{k} {len(v)}" for k, v in pool.items()))


if __name__ == "__main__":
    main()
