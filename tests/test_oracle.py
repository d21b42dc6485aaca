"""An independent high-precision oracle for E_k E_l - E_{k+l}.

The q-series E_k = 1 + (-2k / B_k) sum_{n >= 1} sigma_{k-1}(n) q^n is
summed in mpmath with exact integer sigma and an explicit geometric bound
on the tail it drops, so no float evaluator, lattice or bound of the
package enters.  mpmath's rounding is not bounded; every point carries 30
digits beyond the cancellation its value needs instead.
"""

import math
from functools import lru_cache

import mpmath
import pytest

from eisenzeros.zeros import zero_brackets


@lru_cache(maxsize=None)
def sigma(j: int, n_max: int) -> tuple[int, ...]:
    """sigma_j(n) for n = 0..n_max (sigma_j(0) = 0), exactly."""
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        p = d ** j
        for n in range(d, n_max + 1, d):
            sig[n] += p
    return tuple(sig)


def eisenstein(k: int, q: mpmath.mpc, tol: mpmath.mpf,
               ) -> tuple[mpmath.mpc, mpmath.mpf]:
    """E_k at nome q, and a bound on |E_k - value| that is below tol.

    sigma_{k-1}(n) <= zeta(k-1) n^(k-1) <= 2 n^(k-1), and past n the terms
    2 |g| n^(k-1) |q|^n shrink at least by rho = (1 + 1/n)^(k-1) |q|, so
    once rho < 1 the tail after them is at most 2 |g| n^(k-1) |q|^n
    rho / (1 - rho).
    """
    g = -2 * k / mpmath.bernoulli(k)
    aq = abs(q)
    n_max = 64
    while True:
        sig = sigma(k - 1, n_max)
        total, qn = mpmath.mpc(0), mpmath.mpc(1)
        for n in range(1, n_max + 1):
            qn *= q
            total += sig[n] * qn
            rho = (1 + mpmath.mpf(1) / n) ** (k - 1) * aq
            if rho < 0.5:
                tail = 2 * abs(g) * mpmath.mpf(n) ** (k - 1) * aq ** n
                tail *= rho / (1 - rho)
                if tail < tol:
                    return 1 + g * total, tail
        n_max *= 2


def delta(k: int, l: int, z: mpmath.mpc, tol: mpmath.mpf,
          ) -> tuple[mpmath.mpc, mpmath.mpf]:
    """E_k E_l - E_{k+l} at z, and a bound on its truncation error."""
    q = mpmath.exp(2j * mpmath.pi * z)
    (ek, tk), (el, tl), (ekl, tkl) = (eisenstein(w, q, tol)
                                      for w in (k, l, k + l))
    return ek * el - ekl, abs(ek) * tl + abs(el) * tk + tk * tl + tkl


def restriction_sign(kind: str, k: int, l: int, x: float) -> int:
    """The sign of the arc value e^(i (k+l) theta / 2) Delta(e^(i theta))
    at theta = x, or of the side value Delta(1/2 + i x), which the
    package's restrictions share.  Fails unless the real value clears its
    truncation bound, and the imaginary part, zero in exact arithmetic,
    stays inside it."""
    mod_z = 1.0 if kind == "arc" else math.hypot(0.5, x)
    # the side value is about |z|^(-k-l) of the E_j it cancels from
    dps = 30 + math.ceil((k + l) * math.log10(mod_z))
    with mpmath.workdps(dps):
        tol = mpmath.mpf(10) ** (-dps + 10)
        x = mpmath.mpf(x)
        if kind == "arc":
            z = mpmath.expj(x)
            value, bound = delta(k, l, z, tol)
            value *= mpmath.expj((k + l) * x / 2)
        else:
            z = mpmath.mpc(0.5, x)
            value, bound = delta(k, l, z, tol)
        bound += mpmath.mpf(10) ** (-dps + 5)   # room for mpmath's rounding
        assert abs(value.real) > bound, (kind, k, l, x, value, bound)
        assert abs(value.imag) <= bound, (kind, k, l, x, value, bound)
        return 1 if value.real > 0 else -1


# the triangle pairs whose brackets tests/test_cli.py pins
@pytest.mark.parametrize("k, l", [(56, 20), (98, 72), (98, 94), (100, 66)])
def test_bracket_ends_carry_their_signs(k, l):
    for br in zero_brackets((k, l)):
        assert restriction_sign(br.kind, k, l, br.lo) == br.sign_lo
        assert restriction_sign(br.kind, k, l, br.hi) == br.sign_hi
