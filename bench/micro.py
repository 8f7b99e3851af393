"""Fixed-size layer micro-benchmarks, in microseconds per operation.

F_271[y] products, division and gcd at the degrees ``build_w`` meets, one
F_{19^3} multiply and inverse as in the genus-28 point scan, and one Hesse
addition on E(F_271).  Operands come from the workload seed; each figure is
the median of several timed batches.
"""

import random
import statistics
from time import perf_counter

from zomo import field, hesse, polys

BATCHES = 5
BATCH_S = 0.05


def _per_op_us(op, operands):
    """Median over batches of the time per call, each batch cycling through
    ``operands`` until it has run for BATCH_S."""
    samples = []
    for _ in range(BATCHES):
        n = 0
        t0 = perf_counter()
        while True:
            for args in operands:
                op(*args)
            n += len(operands)
            dt = perf_counter() - t0
            if dt >= BATCH_S:
                break
        samples.append(dt / n * 1e6)
    return statistics.median(samples)


def _poly(rng, F, deg):
    return tuple(rng.randrange(F.q) for _ in range(deg)) + (
        rng.randrange(1, F.q),)


def run(seed):
    rng = random.Random(seed)
    F = field.PrimeField(271)
    out = {}
    for deg in (50, 250):
        pairs = [(F, _poly(rng, F, deg), _poly(rng, F, deg))
                 for _ in range(3)]
        out["polys.pmul_d%d_us" % deg] = _per_op_us(polys.pmul, pairs)
    divs = [(F, _poly(rng, F, 500), _poly(rng, F, 250)) for _ in range(3)]
    out["polys.pdivmod_d250_us"] = _per_op_us(polys.pdivmod, divs)
    gcds = [(F, _poly(rng, F, 250), _poly(rng, F, 250)) for _ in range(3)]
    out["polys.pgcd_d250_us"] = _per_op_us(polys.pgcd, gcds)

    K = field.ExtField(field.PrimeField(19), 3)
    elems = [tuple(rng.randrange(19) for _ in range(3)) for _ in range(64)]
    elems = [e for e in elems if e != K.zero]
    out["field.fq3_mul_us"] = _per_op_us(
        K.mul, list(zip(elems, reversed(elems))))
    out["field.fq3_inv_us"] = _per_op_us(K.inv, [(e,) for e in elems])

    E = hesse.EllipticGroup(F)
    pts = [rng.choice(E.points) for _ in range(64)]
    out["hesse.add_us"] = _per_op_us(E.add, list(zip(pts, reversed(pts))))
    return {name: (value, "us") for name, value in out.items()}
