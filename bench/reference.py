"""Independent high-precision references for the eval workloads.

Everything here is written from the series definition

    sum_k prod_l Gamma(a_l + k A_l) / prod_j Gamma(b_j + k B_j) * z^k / k!

in mpmath at DPS digits, or taken from mpmath's own ``hyper`` and
``besseli``; nothing is imported from ``foxwright``.  Run as a command to
print the references of one workload and seed:

    python3 bench/reference.py --workload eval-short --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys

import mpmath as mp

import workloads as wl

DPS = 50
# a term this small relative to the partial sum, three times running and
# shrinking, ends a sum: the rest is far below the 40 digits asked for
_STOP = mp.mpf(10) ** -(DPS - 4)


def _terms(upper, lower, z):
    """Yield (k, t_k) of the series at z; z^k/k! by recurrence."""
    ups = [(mp.mpf(a), mp.mpf(w)) for a, w in upper]
    lows = [(mp.mpf(b), mp.mpf(w)) for b, w in lower]
    z = mp.mpf(z)
    power = mp.mpf(1)
    k = 0
    while True:
        t = power
        for a, w in ups:
            t *= mp.gamma(a + k * w)
        for b, w in lows:
            t *= mp.rgamma(b + k * w)
        yield k, t
        k += 1
        power = power * z / k


class _Stop:
    """Three consecutive shrinking terms below _STOP of the partial sum."""

    def __init__(self) -> None:
        self.prev = None
        self.streak = 0

    def done(self, t, total) -> bool:
        shrinking = self.prev is None or abs(t) < abs(self.prev)
        self.prev = t
        if shrinking and abs(t) <= _STOP * abs(total):
            self.streak += 1
        else:
            self.streak = 0
        return self.streak >= 3


def series_sum(upper, lower, z):
    """The Fox-Wright series at z by direct summation."""
    with mp.workdps(DPS):
        total = mp.mpf(0)
        stop = _Stop()
        for _, t in _terms(upper, lower, z):
            total += t
            if stop.done(t, total):
                return +total


def long_refs(upper, lower, z, n):
    """(value, d/dz, d/d(beta_1), tail from k = n + 1) in one pass.

    d/dz sum t_k = sum k t_k / z, and d/d(beta_1) multiplies term k by
    -psi(beta_1 + k B_1), since 1/Gamma(b) has derivative -psi(b)/Gamma(b).
    """
    with mp.workdps(DPS):
        b1, w1 = mp.mpf(lower[0][0]), mp.mpf(lower[0][1])
        zm = mp.mpf(z)
        value = deriv = dbeta = tail = mp.mpf(0)
        stop = _Stop()
        for k, t in _terms(upper, lower, z):
            value += t
            deriv += k * t
            dbeta -= mp.digamma(b1 + k * w1) * t
            if k > n:
                tail += t
            if stop.done(t, value):
                return +value, deriv / zm, +dbeta, +tail


def short_ref(inp):
    """Reference value of one eval-short input (see workloads.short_inputs)."""
    kind = inp[0]
    with mp.workdps(DPS):
        if kind == "evaluate":
            return series_sum(inp[1], inp[2], inp[3])
        if kind == "pFq":
            return mp.hyper(list(inp[1]), list(inp[2]), inp[3])
        if kind == "mittag_leffler":
            return series_sum(((1.0, 1.0),),
                              tuple((beta, w) for w, beta in inp[1]), inp[2])
        if kind == "wright":
            _, w, beta, z, normalized = inp
            val = series_sum((), ((beta, w),), z)
            return val * mp.gamma(beta) if normalized else val
        _, nu, z = inp
        nu = mp.mpf(nu)
        x = abs(mp.mpf(z))
        return mp.gamma(nu + 1) * (x / 2) ** (-nu) * mp.besseli(nu, x)


def references(workload: str, seed: int) -> list:
    """Every reference of one workload and seed, in operation order."""
    if workload == "eval-short":
        return [short_ref(inp) for inp in wl.short_inputs(seed)]
    if workload == "eval-long":
        return [r for inp in wl.long_inputs(seed) for r in long_refs(*inp)]
    raise ValueError(f"no references for workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("eval-short", "eval-long"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    refs = references(args.workload, args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "digits": 40,
                      "references": [mp.nstr(r, 40) for r in refs]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
