"""Exact references for the transform of a power target, at 40 digits:

    f(psi) = offset + int_0^inf exp(q(u*s) + c*u) du,   s = psi**((1-b)/b).

Both references take the regime variable psi, as a float or an mpmath number,
and form s in mpmath, so they carry no rounding of the psi -> s map.  A test
that holds an s passes its psi, formed under mp.workdps(40).  Each works
under mp.workdps(40), leaves mpmath's global precision alone, and rounds
log f once to a float.
"""

import mpmath as mp

DPS = 40
# log_f_quad ends its interval where G is this many nats below its peak.
DROP_NATS = 110


def _s(b, psi):
    return mp.mpf(psi) ** ((1 - b) / b)


def log_f_closed(a, b, c, offset, psi):
    """log f for q = a*x**b at b = 1/2, 2 or -1: the README canonicals with
    free a, c and offset (Bingham-Goldie-Teugels, Regular Variation, 4.12):

        b = 1/2:  k = a*sqrt(s), g = -c,
                  f = offset + 1/g + (k/(2g)) sqrt(pi/g) e^(k^2/(4g)) erfc(-k/(2 sqrt g))
        b = 2:    r = -a*s^2,
                  f = offset + (1/2) sqrt(pi/r) e^(c^2/(4r)) erfc(-c/(2 sqrt r))
        b = -1:   f = offset + 2 sqrt(|a|/(s|c|)) K_1(2 sqrt(|a||c|/s))
    """
    with mp.workdps(DPS):
        a, c, offset, s = mp.mpf(a), mp.mpf(c), mp.mpf(offset), _s(mp.mpf(b), psi)
        if b == 0.5:
            k, g = a * mp.sqrt(s), -c
            body = (k / (2 * g)) * mp.sqrt(mp.pi / g) * mp.exp(k * k / (4 * g))
            f = 1 / g + body * mp.erfc(-k / (2 * mp.sqrt(g)))
        elif b == 2.0:
            r = -a * s * s
            f = mp.sqrt(mp.pi / r) / 2 * mp.exp(c * c / (4 * r)) * mp.erfc(-c / (2 * mp.sqrt(r)))
        elif b == -1.0:
            beta, g = -a / s, -c
            f = 2 * mp.sqrt(beta / g) * mp.besselk(1, 2 * mp.sqrt(beta * g))
        else:
            raise ValueError(f"no closed form for b={b!r}")
        return float(mp.log(offset + f))


def log_f_quad(log_q, a, b, c, offset, psi):
    """log f for q = log_q (a function of an mpmath x) by mpmath's quadrature
    of exp(G(w)) over w = log u, G(w) = q(s*e^w) + c*e^w + w.

    The interval is centred on G's own peak, found by findroot on G' from the
    peak w* of the pure power a*x**b.  It ends where G is DROP_NATS below that
    peak, stepped out in Laplace widths 1/sqrt(-G''), and is split at the peak.
    """
    with mp.workdps(DPS):
        a, b, c, offset = mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(offset)
        s = _s(b, psi)

        def G(w):
            u = mp.exp(w)
            return log_q(s * u) + c * u + w

        u_star = (-c / (a * b)) ** (1 / (b - 1)) * s ** (-b / (b - 1))
        peak = mp.findroot(lambda w: mp.diff(G, w), mp.log(u_star))
        top, width = G(peak), 1 / mp.sqrt(-mp.diff(G, peak, 2))
        lo = hi = peak
        while G(lo) - top > -DROP_NATS:
            lo -= width
        while G(hi) - top > -DROP_NATS:
            hi += width
        integral = mp.quad(lambda w: mp.exp(G(w) - top), [lo, peak, hi])
        return float(mp.log(offset + mp.exp(top) * integral))
