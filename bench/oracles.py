"""Output oracles that share no code with the package under test.

Each oracle recomputes a property of one output from the plant's raw
coefficients with plain numpy, and returns None when the output holds
or a one-line reason when it does not:

- sweep rows: the grid is complete, each response matches G, each
  finite kbar puts G + 1/kbar exactly on the window edge, feasibility
  matches the closed-form window test, and the rows come out sorted;
- cycles: y is the steady-state response ifft(G(e^{j2pi k/T}) fft(u)),
  every (y_k, -u_k) lies on the graph of phi, the graph is monotone
  with chord slopes inside the requested class, and passes the origin;
- nyquist: the reported gain is compared with the smallest
  destabilising gain found from the exact real-axis crossings of G, and
  a miss is counted only when a closed-loop eigenvalue check confirms
  instability below the reported gain.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

RESPONSE_TOL = 1e-9
EDGE_TOL = 1e-9
TIE_TOL = 1e-12
CYCLE_TOL = 1e-7
SLOPE_SLACK = 1e-9
GAIN_REL_TOL = 1e-4


def response(plant: dict, z) -> np.ndarray:
    """G(z) from descending coefficients, by ascending-power evaluation."""
    num = np.asarray(plant["num"], dtype=float)[::-1]
    den = np.asarray(plant["den"], dtype=float)[::-1]
    return P.polyval(z, num) / P.polyval(z, den)


def feedthrough(plant: dict) -> float:
    num, den = plant["num"], plant["den"]
    return num[0] / den[0] if len(num) == len(den) else 0.0


def coprime_grid(beta_max: int) -> list[tuple[int, int]]:
    return [(a, b) for b in range(2, beta_max + 1) for a in range(1, b)
            if math.gcd(a, b) == 1]


def half_width(alpha: int, beta: int, odd: bool) -> float:
    T = 2 * beta if alpha % 2 else beta
    return math.pi / (2 * beta) if odd else math.pi / T


def window_margin(g: complex, h: float) -> float:
    """R*tan(h) + |I|: <= 0 exactly when some slope class opens the
    window around -1 (reached as k -> inf); < 0 gives a finite kbar."""
    return g.real * math.tan(h) + abs(g.imag)


def closed_form_kbar(g: complex, h: float) -> float | None:
    """Smallest k with G + 1/k inside the window; inf when only the
    monotone class opens it, None when no class does."""
    m = window_margin(g, h)
    if m < 0:
        return -math.tan(h) / m
    if g.real < 0 and m == 0:
        return math.inf
    return None


# ---------------------------------------------------------------------------
# Sweep rows: (alpha, beta, re, im, kbar) with kbar a float, inf or None.
# ---------------------------------------------------------------------------

def grid_response(plant: dict, pairs) -> np.ndarray:
    """G(e^{j*alpha*pi/beta}) for every (alpha, beta) pair at once."""
    a = np.array([p[0] for p in pairs], dtype=float)
    b = np.array([p[1] for p in pairs], dtype=float)
    return response(plant, np.exp(1j * np.pi * a / b))


def feasible_somewhere(plant: dict, beta_max: int, odd: bool) -> bool:
    """Whether any grid frequency admits a destabilising slope class."""
    pairs = coprime_grid(beta_max)
    return any(closed_form_kbar(complex(g), half_width(a, b, odd)) is not None
               for (a, b), g in zip(pairs, grid_response(plant, pairs)))


def check_sweep(plant: dict, beta_max: int, odd: bool, rows) -> str | None:
    pairs = [(r[0], r[1]) for r in rows]
    if sorted(pairs) != sorted(coprime_grid(beta_max)) \
            or len(set(pairs)) != len(pairs):
        return "grid is not every coprime pair exactly once"
    seen_infeasible = False
    last = -math.inf
    for (alpha, beta, re, im, kbar), g in zip(rows,
                                              grid_response(plant, pairs)):
        g = complex(g)
        scale = max(1.0, abs(g))
        if abs(complex(re, im) - g) > RESPONSE_TOL * scale:
            return f"response at ({alpha}, {beta}) differs from G"
        h = half_width(alpha, beta, odd)
        m = window_margin(g, h)
        if abs(m) > 1e-12 * scale and (kbar is not None) != (m < 0):
            return f"feasibility at ({alpha}, {beta}) contradicts the window"
        if kbar is None:
            seen_infeasible = True
            continue
        if seen_infeasible:
            return "a feasible row follows an infeasible one"
        if kbar < last - TIE_TOL:
            return f"rows not sorted by kbar at ({alpha}, {beta})"
        last = kbar
        if math.isfinite(kbar):
            if not kbar > 0:
                return f"kbar {kbar!r} at ({alpha}, {beta}) is not positive"
            s = g + 1.0 / kbar
            edge = abs(abs(s.imag) + math.tan(h) * s.real)
            if edge > EDGE_TOL * (abs(g) + 1.0 / kbar) or s.real > 0:
                return (f"G + 1/kbar at ({alpha}, {beta}) is off the "
                        f"window edge by {edge:.3g}")
    infeasible = [(b, a) for a, b, _, _, k in rows if k is None]
    if infeasible != sorted(infeasible):
        return "infeasible rows not in (beta, alpha) order"
    return None


# ---------------------------------------------------------------------------
# Cycles.  phi is a list of (y, v_lo, v_hi) breakpoints.
# ---------------------------------------------------------------------------

def _graph(breakpoints) -> np.ndarray:
    """Vertices of the monotone staircase: risers at breakpoints, chords
    between them, constant continuation outside the span."""
    verts = []
    for y, lo, hi in breakpoints:
        verts.append((y, lo))
        verts.append((y, hi))
    pts = np.array(verts, dtype=float)
    far = 1.0 + 2.0 * float(np.max(np.abs(pts[:, 0])))
    return np.vstack([(-far, pts[0, 1]), pts, (far, pts[-1, 1])])


def graph_distance(breakpoints, ys, vs) -> np.ndarray:
    """Euclidean distance from each point (y, v) to the graph of phi."""
    verts = _graph(breakpoints)
    a, b = verts[:-1], verts[1:]
    ys = np.asarray(ys, dtype=float)
    vs = np.asarray(vs, dtype=float)
    best = np.full(ys.shape, np.inf)
    # Segments are ordered by y, so only those near y's slot can be closest
    # along y; risers are vertical and sit exactly at one slot.
    slot = np.searchsorted(verts[:, 0], ys)
    for off in range(-3, 3):
        j = np.clip(slot + off, 0, len(a) - 1)
        d = b[j] - a[j]
        length2 = np.einsum("ij,ij->i", d, d)
        rel = np.stack([ys, vs], axis=1) - a[j]
        t = np.where(length2 > 0,
                     np.einsum("ij,ij->i", rel, d) / np.where(length2 > 0,
                                                             length2, 1.0),
                     0.0)
        t = np.clip(t, 0.0, 1.0)
        gap = rel - t[:, None] * d
        best = np.minimum(best, np.hypot(gap[:, 0], gap[:, 1]))
    return best


def steady_state(plant: dict, u: np.ndarray) -> np.ndarray:
    """One period of the T-periodic response of a rational plant."""
    T = u.size
    z = np.exp(2j * np.pi * np.arange(T) / T)
    return np.real(np.fft.ifft(response(plant, z) * np.fft.fft(u)))


def anchor_steady_state(anchor: dict, u: np.ndarray) -> np.ndarray | None:
    """Response of an anchor plant to a carrier-plus-constant input, or
    None when u has content at a frequency the anchor does not pin."""
    T = u.size
    U = np.fft.fft(u)
    k0 = round(anchor["anchor"]["omega"] * T / (2 * math.pi))
    value = complex(anchor["anchor"]["re"], anchor["anchor"]["im"])
    gains = np.zeros(T, dtype=complex)
    gains[k0] = value
    gains[T - k0] = value.conjugate()
    gains[0] = anchor["dc"] if anchor.get("dc") is not None else 0.0
    pinned = np.zeros(T, dtype=bool)
    pinned[[0, k0, T - k0]] = True
    if np.max(np.abs(U[~pinned]), initial=0.0) > CYCLE_TOL * T:
        return None
    if anchor.get("dc") is None and abs(U[0]) > CYCLE_TOL * T:
        return None
    return np.real(np.fft.ifft(gains * U))


def check_cycle(plant: dict, breakpoints, u, y, slope: float) -> str | None:
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.size != y.size or u.size == 0:
        return "u and y differ in length"
    bps = np.asarray(breakpoints, dtype=float)
    scale = max(1.0, float(np.max(np.abs(y))), float(np.max(np.abs(u))))
    linear = (anchor_steady_state(plant, u) if "anchor" in plant
              else steady_state(plant, u))
    if linear is None:
        return "input has content where the anchor pins no response"
    gap = float(np.max(np.abs(y - linear)))
    if gap > CYCLE_TOL * scale:
        return f"y is not the steady-state response of u (gap {gap:.3g})"
    if not float(np.max(np.abs(y))) > 1e-6:
        return "cycle is trivial"
    vscale = max(1.0, float(np.max(np.abs(bps[:, 1:]))))
    if np.any(np.diff(bps[:, 0]) <= 0):
        return "breakpoints not strictly increasing in y"
    if np.any(bps[:, 1] > bps[:, 2] + 1e-12 * vscale) \
            or np.any(bps[:-1, 2] > bps[1:, 1] + 1e-12 * vscale):
        return "phi decreases"
    if math.isfinite(slope):
        if np.any(bps[:, 2] - bps[:, 1] > 1e-12 * vscale):
            return "finite slope class but phi is multivalued"
        chords = (bps[1:, 1] - bps[:-1, 2]) / np.diff(bps[:, 0])
        peak = float(np.max(chords)) if chords.size else 0.0
        if peak > slope * (1 + SLOPE_SLACK):
            return f"chord slope {peak:.9g} exceeds {slope:.9g}"
    miss = float(np.max(graph_distance(bps, y, -u)))
    if miss > CYCLE_TOL * scale:
        return f"-u_k lies {miss:.3g} off phi(y_k)"
    if float(graph_distance(bps, [0.0], [0.0])[0]) > CYCLE_TOL * scale:
        return "phi misses the origin"
    return None


# ---------------------------------------------------------------------------
# Linear margin.
# ---------------------------------------------------------------------------

def crossing_gains(plant: dict) -> list[float]:
    """Positive gains k at which 1 + k G has a root on the unit circle.

    Im G(e^{jw}) = 0 exactly where Im[N(z) D(1/z)] = 0 on the circle;
    with N(z) D(1/z) = sum_m c_m z^m that is sum_{m>0} (c_m - c_{-m})
    sin(m w) = sin(w) sum_{m>0} (c_m - c_{-m}) U_{m-1}(cos w).  The
    roots in cos w, plus w = 0 and w = pi, are every real crossing; the
    negative ones give k = -1/G.  -1/D is added when D < 0, where a
    closed-loop pole escapes through infinity.
    """
    num = np.asarray(plant["num"], dtype=float)[::-1]
    den = np.asarray(plant["den"], dtype=float)[::-1]
    n = den.size - 1
    # N(z) * z^n D(1/z) in ascending powers; index m + n holds c_m.
    c = P.polymul(num, den[::-1])
    c = np.concatenate([c, np.zeros(2 * n + 1 - c.size)])
    cheb_u = [np.array([1.0]), np.array([0.0, 2.0])]
    while len(cheb_u) < n + 1:
        cheb_u.append(P.polysub(P.polymulx(2 * cheb_u[-1]), cheb_u[-2]))
    poly = np.zeros(1)
    for m in range(1, n + 1):
        poly = P.polyadd(poly, (c[n + m] - c[n - m]) * cheb_u[m - 1])
    poly = np.trim_zeros(poly, "b")
    xs = [1.0, -1.0]
    if poly.size > 1:
        xs += [float(r.real) for r in P.polyroots(poly)
               if abs(r.imag) < 1e-9 and -1.0 <= r.real <= 1.0]
    gains = []
    for x in xs:
        w = math.acos(x)
        g = complex(response(plant, complex(math.cos(w), math.sin(w))))
        if g.real < 0 and abs(g.imag) <= 1e-9 * max(1.0, abs(g)):
            gains.append(-1.0 / g.real)
    d = feedthrough(plant)
    if d < 0:
        gains.append(-1.0 / d)
    return sorted(gains)


def closed_loop_radius(plant: dict, k: float) -> float:
    """Largest closed-loop pole magnitude of den + k*num (inf when the
    leading coefficient vanishes)."""
    num = np.asarray(plant["num"], dtype=float)
    den = np.asarray(plant["den"], dtype=float)
    num = np.concatenate([np.zeros(den.size - num.size), num])
    char = den + k * num
    if abs(char[0]) < 1e-12 * max(1.0, np.max(np.abs(char))):
        return math.inf
    roots = np.roots(char)
    return float(np.max(np.abs(roots))) if roots.size else 0.0


def check_nyquist(plant: dict, k_reported: float) -> str | None:
    """Reject a reported margin only when the loop is provably unstable
    at a smaller gain."""
    below = [k for k in crossing_gains(plant)
             if k < k_reported * (1 - GAIN_REL_TOL)]
    for k in below:
        for probe in (k * (1 + 1e-6), k * (1 + 1e-3),
                      0.5 * (k + k_reported)):
            if (probe < k_reported
                    and closed_loop_radius(plant, probe) > 1 + 1e-9):
                return (f"loop unstable at k = {probe:.6g}, below the "
                        f"reported k_N = {k_reported:.6g}")
    return None
