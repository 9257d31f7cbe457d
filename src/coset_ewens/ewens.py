"""The probability layer: the exact double-coset measure on partitions,
its identity with the Ewens distribution at bias 1/2, seeded sampling,
and the density of elements with small intersection order.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import rng
from .cosets import predicted_intersection_order
from .errors import ResourceLimitError, _finite
from .partitions import Partition

#: work budget of good_probability_exact: m^2, a bound on the (part size,
#: weight) pairs its loop scans, plus the DP's steps.  The most at m <= 60 is
#: 4.15 M (c just below the top class, about 2 s); (2000, 2) is 4 M + 8.7 k
EXACT_TAIL_WORK = 5_000_000
#: sampling refused above this m: at the cap a Monte Carlo run or one
#: sample_partition draw peaks at ~182 MiB (the gap table, which stays
#: cached, and one build buffer)
SAMPLE_MAX_M = 10**7

#: two-sided 95% normal quantile, used by the Wilson score radius
Z_95 = 1.959963984540054

# Monte Carlo stream layout: sample s lives in chunk s // _CHUNK, and round
# t of chunk c reads stream indices c*2^40 + t*2^12 + lane.  These constants
# fix which draws each sample gets, and so the payload bytes; a chunk also
# bounds the per-lane state held in memory at once.
_CHUNK = 4096
_ROUND_SHIFT = 12
_CHUNK_SHIFT = 40


def esf_density(lam: Partition, theta) -> Fraction:
    """Exact Ewens density at bias ``theta``:
    m!/(theta (theta+1)...(theta+m-1)) * prod (theta/i)^{r_i} / r_i!.

    With theta = p/q this is one Fraction of two integer products:
    m! q^m prod p^{r_i} over prod_{j<m} (p + jq) * prod (qi)^{r_i} r_i!.
    """
    if isinstance(theta, float):  # an int or Fraction is exact at any size
        _finite(theta, "theta")
    th, m = Fraction(theta), lam.m
    if th <= 0:
        raise ValueError("theta must be > 0")
    if m < 1:
        raise ValueError("lam must have weight >= 1")
    p, q = th.numerator, th.denominator
    num = math.factorial(m) * q**m
    den = math.prod(range(p, p + m * q, q))
    for part, r in lam.counts:
        num *= p**r
        den *= (q * part) ** r * math.factorial(r)
    return Fraction(num, den)


def coset_probability(lam: Partition, m: int) -> Fraction:
    """|HxH| / (2m)! as an exact rational; identical to esf_density(lam, 1/2)."""
    if lam.m != m:
        raise ValueError(f"partition has weight {lam.m}, expected {m}")
    numer = 2 ** (2 * m) * math.factorial(m) ** 2
    return Fraction(numer, math.factorial(2 * m) * predicted_intersection_order(lam))


# --- threshold comparison f <= m^c -------------------------------------

_EXACT_POW_BIT_LIMIT = 2_000_000


def f_leq_threshold(f: int, m: int, c) -> bool:
    """Decide f <= m^c without the predicate ever flipping due to rounding.

    When c is (or converts exactly to) a rational p/q with small q, the
    comparison is done on integers as f^q <= m^p.  Otherwise a float
    log comparison decides, escalating to 50-digit decimal logarithms
    inside a 1e-9 guard band.
    """
    if f < 1 or m < 1:
        raise ValueError("f and m must be positive")
    cf = Fraction(c)
    if cf <= 0:
        return f <= 1
    p, q = cf.numerator, cf.denominator
    if q <= 64 and q * f.bit_length() <= _EXACT_POW_BIT_LIMIT \
            and p * m.bit_length() <= _EXACT_POW_BIT_LIMIT:
        return f**q <= m**p
    lf = math.log(f)
    lt = float(cf) * math.log(m)
    if abs(lf - lt) > 1e-9 * max(1.0, abs(lt)):
        return lf < lt
    with localcontext() as ctx:
        ctx.prec = 50
        dlf = Decimal(f).ln()
        dlt = (Decimal(p) / Decimal(q)) * Decimal(m).ln()
        return dlf <= dlt


def _least_f_bound(k: int, r: int, t: int) -> int:
    """A lower bound on the least f of r in parts <= k: 1 at r = 0, t + 1
    (a dead state) at k = 0 < r, else g h with j = ceil(r/k) = qk + s,
    g = 2^j k^(j-1) (r - (j-1)k) and h = q!^(k-s) (q+1)!^s.

    f is prod 2a over the parts a times prod r_i! over the multiplicities.
    - g bounds the first.  A least one with the fewest parts has no two
      parts with a + b <= k, as merging them would not raise it (2(a+b)
      <= 4ab), and no two parts a <= b < k, as then a >= 2 and (a-1, b+1)
      lowers it ((a-1)(b+1) < ab: log is concave).  So it is (k, ..., k,
      r - (j-1)k), j parts.
    - h bounds the second.  p >= j parts take at most k sizes; the least
      product grows with p, and at p = j it has each r_i at q or q + 1
      (log r! is convex).
    """
    if r == 0:
        return 1
    if k == 0:
        return t + 1
    j = -(-r // k)
    q, s = divmod(j, k)
    g = 2**j * k ** (j - 1) * (r - (j - 1) * k)
    return g * math.factorial(q) ** (k - s) * math.factorial(q + 1) ** s


def good_probability_exact(m: int, c) -> Fraction:
    """P(f <= m^c) under the double-coset measure, as an exact rational.

    P(lam) = K_m / f(lam) with K_m = 4^m m!^2 / (2m)! = (2^m m!)^2 / (2m)!, so the tail is
    K_m * sum N_m(f)/f over f <= T, where T is the largest integer with
    T <= m^c and N_m(f) counts the partitions of m with that f.  f is a
    product over part sizes i of (2i)^r r! (r the multiplicity), every
    factor at least 2, so a knapsack over (weight, f) counts N_m(f)
    without visiting the partitions of m.  It is a branch-and-bound
    (Martello & Toth, *Knapsack Problems*, 1990, ch. 2): part sizes are
    taken in descending order, and a state (w, f) is kept only while
    f * LB(i-1, m-w) <= T, LB a lower bound on the least f that parts
    below i can add (:func:`_least_f_bound`).

    Raises ResourceLimitError once the work, m^2 for the (part size, weight)
    pairs plus one step per state read and per multiplicity added to it,
    passes ``EXACT_TAIL_WORK``; the m^2 is counted before anything is built.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _finite(c, "c")
    work = m * m
    if work > EXACT_TAIL_WORK:
        raise ResourceLimitError(
            f"good_probability_exact: m^2 = {work} for (part size, weight) pairs exceeds "
            f"the work budget {EXACT_TAIL_WORK}"
        )
    top = 2**m * math.factorial(m)  # f of the class 1^m, the largest
    if f_leq_threshold(top, m, c):
        return Fraction(1)
    # t = T by bisection (f_leq_threshold is monotone in f), each
    # comparison decided exactly: t passes (0 by convention), hi fails,
    # as m^ceil(c) + 1 > m^c does
    t, hi = 0, min(top, m ** max(math.ceil(c), 0) + 1)
    while hi - t > 1:
        mid = (t + hi) // 2
        if f_leq_threshold(mid, m, c):
            t = mid
        else:
            hi = mid
    if t < 2 * m:  # 2m = f of the class {m}, the smallest
        return Fraction(0)
    # counts[w][f]: partitions of w into the part sizes done so far, by f
    counts: list[dict[int, int]] = [{} for _ in range(m + 1)]
    counts[0][1] = 1
    for i in range(m, 0, -1):
        # a state (w, f) is dead once f * LB(i, m-w) > t: parts up to i
        # cannot finish it.  It is dropped when next read as a source
        # (w <= m - i); until then it only waits, and LB only grows as i
        # falls, so the counts are those of dropping it after part i + 1
        below: list[int | None] = [None] * (m + 1)  # below[r]: LB(i - 1, r), filled as read
        # descending w: each target w + i*r has already been a source for
        # this i, so no state takes part size i twice
        for w in range(m - i, -1, -1):
            if not counts[w]:
                continue
            cut = _least_f_bound(i, m - w, t)
            counts[w] = by_f = {f: n for f, n in counts[w].items() if f * cut <= t}
            for f, n in by_f.items():
                g, v, r = f, w + i, 1
                while v <= m:
                    g *= 2 * i * r  # (2i)^r r! over (2i)^(r-1) (r-1)!
                    if g > t:
                        break
                    if (b := below[m - v]) is None:
                        b = below[m - v] = _least_f_bound(i - 1, m - v, t)
                    # not a break: g * b is not monotone in r
                    if g * b <= t:
                        counts[v][g] = counts[v].get(g, 0) + n
                    v += i
                    r += 1
                work += r
            if work > EXACT_TAIL_WORK:
                raise ResourceLimitError(
                    f"good_probability_exact({m}, {c}) exceeds the work "
                    f"budget {EXACT_TAIL_WORK}"
                )
    # every f divides 2^m m! (the quotient is 2^(m - parts) times the size
    # of a conjugacy class of S_m), so K_m sum n/f = top sum n (top // f) / (2m)!
    return Fraction(top * sum(n * (top // f) for f, n in counts[m].items()), math.factorial(2 * m))


# --- sampling -----------------------------------------------------------

@lru_cache(maxsize=2)
def _gap_prefix(m: int, theta: float) -> np.ndarray:
    """Prefix sums G[j] = sum_{l=2..j+1} log((theta+l-1)/(l-1)), j=0..m-1,
    and the sentinel G[m] = +inf; read-only, since it is cached.

    With marks at positions 1..m drawn independently (position l marked
    with probability theta/(theta+l-1), position 1 always marked), the
    gap from a mark at i to the next mark satisfies
    log P(no mark in (i, j]) = G[i-1] - G[j-1].  Built in the table's own
    buffer plus one more of m floats; G[0] is -0.0.
    """
    G = np.empty(m + 1)
    body = G[1:m]
    l = np.arange(2, m + 1, dtype=np.float64)
    np.subtract(np.add(l, theta, out=body), 1.0, out=body)  # (theta + l) - 1.0
    np.divide(np.subtract(l, 1.0, out=l), body, out=body)
    np.negative(np.cumsum(np.log(body, out=body), out=body), out=body)
    G[0], G[m] = -0.0, np.inf
    G.flags.writeable = False
    return G


def _next_index(G: np.ndarray, q: np.ndarray, theta: float) -> np.ndarray:
    """``np.searchsorted(G[:m], q, side="right")`` for the gap table G of
    :func:`_gap_prefix` (m = G.size - 1) and levels q >= 0, +inf included:
    the first j with G[j] > q, or m if there is none.

    G[j] = log Gamma(j+1+theta) - log Gamma(1+theta) - log Gamma(j+1) is
    about theta log(j + (1+theta)/2) - log Gamma(1+theta), so
    exp((q + log Gamma(1+theta))/theta) + (1-theta)/2 guesses j; stepping
    up while G[j] <= q, then down while G[j-1] > q, makes it exact.  Every
    q >= G[m-1] has the answer m, so q is capped just above G[m-1]: exp
    stays finite and q = +inf cannot step past the sentinel G[m] = +inf.
    G[0] <= q keeps j >= 1.
    """
    q = np.minimum(q, G[-2] + theta)
    g = q + math.lgamma(1.0 + theta)
    g /= theta
    np.exp(g, out=g)
    g += (1.0 - theta) / 2
    j = np.clip(g, 1, G.size - 1, out=g).astype(np.int64)
    while (step := G[j] <= q).any():
        j += step
    while (step := G[j - 1] > q).any():
        j -= step
    return j


def _sample_parts_chunk(m: int, theta: float, seed: int, chunk_index: int,
                        count: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(lanes, sizes)`` arrays of the parts of one chunk of samples.

    The Feller coupling (Arratia, Barbour & Tavare 2003, section 1.1):
    element n of 0..m-1 is marked independently with probability
    theta/(theta+n), element 0 always, and the spacings from each mark to
    the next, the last one running to m, have the Ewens(theta) law.
    Inverse-CDF gap sampling skips from one mark to the next, one gap per
    unfinished lane and round.  The tests check the law against the exact
    Ewens law by total variation."""
    G = _gap_prefix(m, theta)
    base = chunk_index << _CHUNK_SHIFT
    active = np.arange(count, dtype=np.int64)
    last = np.zeros(count, dtype=np.int64)  # i - 1 for the last mark i of each lane
    lanes, sizes = [], []
    rnd = 0
    # u = 0 gives the level +inf: no further mark, the lane ends at m
    with np.errstate(divide="ignore"):
        while active.size:
            u = rng.uniform01_array(seed, base + (rnd << _ROUND_SHIFT) + active)
            # the next mark is j + 1 for the first j with G[j] > G[i-1] - log u
            nxt = _next_index(G, np.subtract(G[last], np.log(u, out=u), out=u), theta)
            lanes.append(active)
            sizes.append(nxt - last)
            keep = nxt < m
            active, last = active[keep], nxt[keep]
            rnd += 1
    return np.concatenate(lanes), np.concatenate(sizes)


def sample_partition(m: int, theta: float, seed: int) -> Partition:
    """One draw from the Ewens distribution: sample 0 of the Monte Carlo
    stream for ``seed``, lane 0 of :func:`_sample_parts_chunk`.  The gap
    table it builds stays cached for the next draw at the same m and theta.

    Bit-identical for a fixed seed across runs and platforms.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > SAMPLE_MAX_M:
        raise ResourceLimitError(f"sample_partition limited to m <= {SAMPLE_MAX_M}")
    theta = _finite(theta, "theta")
    if theta <= 0:
        raise ValueError(f"theta must be > 0, got {theta}")
    rng.check_seed(seed)
    _, sizes = _sample_parts_chunk(m, theta, seed, 0, 1)
    size, r = np.unique(sizes, return_counts=True)
    return Partition.trusted(tuple(zip(size.tolist(), r.tolist())), m)


@dataclass(frozen=True)
class SampleReport:
    """Monte Carlo estimate of P(f <= m^c) with provenance."""

    m: int
    c: float
    samples: int
    hits: int
    frequency: float
    wilson_radius_95: float
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def wilson_radius(hits: int, samples: int) -> float:
    """Half-width of the 95% Wilson score interval."""
    p, z = hits / samples, Z_95
    denom = 1.0 + z * z / samples
    return z * math.sqrt(p * (1.0 - p) / samples + z * z / (4.0 * samples * samples)) / denom


def _chunk_hits(m: int, c: float, seed: int, chunk_index: int, count: int,
                band: dict[tuple[tuple[int, int], ...], bool]) -> int:
    """Samples of one chunk with f <= m^c: log f is summed per lane, and a
    lane within 1e-9 of c log m is decided exactly, once per class across
    chunks (``band`` maps ((size, multiplicity), ...) to the decision)."""
    lanes, sizes = _sample_parts_chunk(m, 0.5, seed, chunk_index, count)
    # one key per distinct (lane, size), the lane above the size's bits, in
    # lane order, with multiplicity r
    bits = m.bit_length()
    keys, r = np.unique((lanes << bits) | sizes, return_counts=True)
    lanes, sizes = keys >> bits, keys & ((1 << bits) - 1)
    log_fact = np.array([math.lgamma(k + 1) for k in range(int(r.max()) + 1)])
    lf = np.bincount(lanes, weights=r * np.log(2.0 * sizes) + log_fact[r],
                     minlength=count)
    target = c * math.log(m)
    near = np.abs(lf - target) < 1e-9
    hits = int(np.count_nonzero(~near & (lf < target)))
    if not near.any():
        return hits
    # keys are sorted by lane, then size: a band lane's (size, r) pairs,
    # zero-padded, are one table row, and the distinct rows are the classes
    # (np.unique on each row viewed as one bytes value: with axis=0 it
    # sorts a structured dtype field by field, several times slower)
    in_band = near[lanes]
    band_lanes = lanes[in_band]
    first = np.diff(band_lanes, prepend=-1) != 0  # a band lane's first pair
    row = np.cumsum(first) - 1
    col = 2 * (np.arange(band_lanes.size) - np.flatnonzero(first)[row])
    table = np.zeros((int(row[-1]) + 1, int(col.max()) + 2), dtype=np.int64)
    table[row, col], table[row, col + 1] = sizes[in_band], r[in_band]
    classes, n = np.unique(table.view(f"V{table.itemsize * table.shape[1]}"),
                           return_counts=True)
    for flat, k in zip(classes.view(np.int64).reshape(n.size, -1).tolist(), n.tolist()):
        key = tuple((size, mult) for size, mult in zip(flat[::2], flat[1::2]) if size)
        if key not in band:
            band[key] = f_leq_threshold(
                predicted_intersection_order(Partition.trusted(key, m)), m, c)
        hits += k * band[key]
    return hits


def good_probability_mc(m: int, c: float, samples: int, seed: int) -> SampleReport:
    """Monte Carlo frequency of f(lam) <= m^c under Ewens(1/2) sampling.

    The sample stream is split into fixed-size chunks with counter-derived
    sub-streams, so the report is a pure function of its arguments.  The
    f-threshold test runs in log space; a sample inside the 1e-9 guard band
    is decided by the exact big-integer test, once per partition class.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > SAMPLE_MAX_M:
        raise ResourceLimitError(f"good_probability_mc limited to m <= {SAMPLE_MAX_M}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _finite(c, "c")
    rng.check_seed(seed)  # before the chunks allocate anything
    band: dict[tuple[tuple[int, int], ...], bool] = {}
    hits = sum(_chunk_hits(m, c, seed, i, min(_CHUNK, samples - i * _CHUNK), band)
               for i in range((samples + _CHUNK - 1) // _CHUNK))
    return SampleReport(
        m=m,
        c=float(c),
        samples=samples,
        hits=hits,
        frequency=hits / samples,
        wilson_radius_95=wilson_radius(hits, samples),
        seed=seed,
    )
