"""Microbenchmarks for the scalar layers that spans cannot time.

Usage: micro.py SEED

Prints one JSON object mapping metric name to the median per-operation
time over several repeats.  Operands are drawn from SEED.
"""

import gc
import json
import random
import sys
import time
from fractions import Fraction

from springer import flinalg
from springer.cyclotomic import Cyc, CycRing
from springer.ffield import make_field

REPEATS = 7
FIELDS = {"q9": (3, 2), "q25": (5, 2), "q49": (7, 2)}


def _per_op(fn, ops: int) -> float:
    """Median seconds per operation of fn(), which performs ops operations.
    The collector is off while timing, as in timeit."""
    times = []
    gc.disable()
    try:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) / ops)
    finally:
        gc.enable()
    return sorted(times)[REPEATS // 2]


def field_ops(rng: random.Random) -> dict:
    out = {}
    for label, (p, k) in FIELDS.items():
        K = make_field(p, k)
        pairs = [(rng.randrange(K.q), rng.randrange(1, K.q)) for _ in range(20000)]
        nonzero = [b for _, b in pairs]
        add, mul, inv = K.add, K.mul, K.inv
        out[f"ffield.add_ns.{label}"] = _per_op(lambda: [add(a, b) for a, b in pairs], len(pairs)) * 1e9
        out[f"ffield.mul_ns.{label}"] = _per_op(lambda: [mul(a, b) for a, b in pairs], len(pairs)) * 1e9
        out[f"ffield.inv_ns.{label}"] = _per_op(lambda: [inv(b) for b in nonzero], len(nonzero)) * 1e9
    return out


def elimination(rng: random.Random) -> dict:
    K = make_field(3, 2)
    # rank-deficient half the time, so nullspace has work to do
    mats = []
    for i in range(40):
        rows = [tuple(rng.randrange(K.q) for _ in range(8)) for _ in range(8)]
        if i % 2:
            rows[7] = rows[0]
        mats.append(tuple(rows))
    return {
        "flinalg.rref_us.8x8": _per_op(lambda: [flinalg.rref(K, m) for m in mats], len(mats)) * 1e6,
        "flinalg.nullspace_us.8x8": _per_op(lambda: [flinalg.nullspace(K, m) for m in mats], len(mats)) * 1e6,
    }


def cyclotomic(rng: random.Random) -> dict:
    # Q(zeta_8) is the ring the spin-table extensions work in
    R = CycRing(8)
    elems = [Cyc(R, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(R.degree)]) for _ in range(400)]
    pairs = list(zip(elems, elems[1:] + elems[:1]))
    return {"cyclotomic.mul_ns": _per_op(lambda: [a * b for a, b in pairs], len(pairs)) * 1e9}


def main() -> None:
    rng = random.Random(int(sys.argv[1]))
    print(json.dumps(field_ops(rng) | elimination(rng) | cyclotomic(rng)))


if __name__ == "__main__":
    main()
