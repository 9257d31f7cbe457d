"""The four benchmark workloads: fixed job lists built from a seed, and
an output check for every job.

A job's ``run`` is timed; its check is not.  ``observe`` reduces an
output to the JSON value recorded in ``expected.json`` (by
``record_expected.py``).  A check compares that value with the record
and then tests properties that hold for any seed; it returns ``None``
when the output is right, otherwise a short description.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import coset_ewens
from coset_ewens import cli


@dataclass
class CliOutput:
    code: int
    text: str

    @property
    def envelope(self) -> dict:
        return json.loads(self.text)

    @property
    def payload(self) -> dict:
        return self.envelope["payload"]

    @property
    def payload_text(self) -> str:
        """The payload's bytes as emitted; ``elapsed_ms`` is the last key."""
        _, sep, rest = self.text.partition('"payload": ')
        return rest.rpartition(', "elapsed_ms": ')[0] if sep else ""


def run_cli(argv: list[str]) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliOutput(code, buf.getvalue())


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    key: str | None = None        # entry of expected.json
    observe: Callable[[Any], Any] | None = None
    rel: float | None = None      # relative tolerance of the comparison; None: exact
    compare: bool = True          # False: the record is only a reference for ``extra``
    extra: Callable[[Any, Any], str | None] | None = None  # (output, record) -> problem
    headline: bool = False        # counted in the workload's headline time
    samples: int = 0              # Monte Carlo samples drawn

    def check(self, out, expected) -> str | None:
        if self.key is not None and self.compare:
            got = self.observe(out)
            same = got == expected if self.rel is None else _close(got, expected, self.rel)
            if not same:
                return f"got {str(got)[:80]}, recorded {str(expected)[:80]}"
        return self.extra(out, expected) if self.extra else None


def _cli(argv: list[str]) -> Callable[[], CliOutput]:
    return lambda: run_cli(argv)


def _close(a, b, rel: float) -> bool:
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rel) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)
    return a == b


def payload_digest(out: CliOutput) -> str:
    return hashlib.sha256(out.payload_text.encode()).hexdigest()


# --- independent group-side oracles ----------------------------------------

def class_partition(images, m: int) -> str:
    """Class partition of HgH in text form, from a union-find over the
    block-matching graph (source blocks 0..m-1, image blocks m..2m-1)."""
    parent = list(range(2 * m))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, v in enumerate(images):
        a, b = find(v // 2), find(m + i // 2)
        if a != b:
            parent[a] = b
    edges: dict[int, int] = {}
    for i in range(2 * m):
        root = find(i // 2)
        edges[root] = edges.get(root, 0) + 1
    mult: dict[int, int] = {}
    for e in edges.values():
        mult[e // 2] = mult.get(e // 2, 0) + 1
    return " ".join(f"{p}^{r}" for p, r in sorted(mult.items()))


def _in_H(images) -> bool:
    return all(images[2 * k] // 2 == images[2 * k + 1] // 2 for k in range(len(images) // 2))


def _certificate_holds(g, m):
    def check(red, expected):
        left, right, x = red.left.images, red.right.images, red.result.images
        if tuple(left[g[right[i]]] for i in range(2 * m)) != x:
            return "left*g*right != result"
        if any(x[i] != i for i in range(0, 2 * m, 2)):
            return "an odd symbol is moved"
        if not (_in_H(left) and _in_H(right)):
            return "a multiplier is not in H"
        if class_partition(x, m) != class_partition(g, m):
            return "class partition changed"
        return None
    return check


def _classified(g, m):
    def check(out, expected):
        got, want = out.payload["lambda"], class_partition(g, m)
        return None if got == want else f"lambda {got}, expected {want}"
    return check


# --- workloads --------------------------------------------------------------

SIZES = {
    "full": {
        "exact_m": 50, "table_m": 35, "wd_half_m": 45, "wd_two_m": 40, "jensen_m": 40,
        "mc": [(1000, "3", 400000), (100000, "2", 200000), (16, "1.25", 400000),
               (8, "1.3333333333333333", 20000)],
        "tails_m": 1000, "series_big": 20000, "series_exact": 200,
        "asym": ("1.2", "200,2000,20000"),
        "verify": (4, 5), "reduce": (16, 200), "classify_big": (2, 1000),
    },
    "tiny": {
        "exact_m": 12, "table_m": 10, "wd_half_m": 14, "wd_two_m": 12, "jensen_m": 12,
        "mc": [(1000, "3", 4000), (100000, "2", 2000), (16, "1.25", 4000),
               (8, "1.3333333333333333", 2000)],
        "tails_m": 100, "series_big": 500, "series_exact": 40,
        "asym": ("2", "20,200"),
        "verify": (2, 3), "reduce": (4, 20), "classify_big": (1, 1000),
    },
}

#: m at which the Monte Carlo frequency is checked against the exact tail
MC_EXACT_M = {16, 8}


def _table_total(out, expected):
    return None if out.payload["total"] == "1/1" else "table total is not 1/1"


def exact_enum(seed: int, size: dict) -> list[Job]:
    em, tm, jm = size["exact_m"], size["table_m"], size["jensen_m"]
    jobs = [Job(f"good_probability_exact({em}, {c})",
                lambda c=c: coset_ewens.good_probability_exact(em, c),
                key=f"gpe_{c}", observe=str, headline=True)
            for c in (2, 3)]
    jobs.append(Job(f"cli table {tm}", _cli(["table", str(tm)]), key="table_digest",
                    observe=payload_digest, extra=_table_total))
    jobs.append(Job(f"cli double-cosets {tm}", _cli(["double-cosets", str(tm)]),
                    key="double-cosets_digest", observe=payload_digest))
    jobs.append(Job(f"W_direct(0.5, {size['wd_half_m']})",
                    lambda: coset_ewens.W_direct(0.5, size["wd_half_m"]),
                    key="W_direct_half", observe=float, rel=1e-12))
    jobs.append(Job(f"W_direct(2, {size['wd_two_m']})",
                    lambda: coset_ewens.W_direct(2, size["wd_two_m"]),
                    key="W_direct_two", observe=str))
    jobs.append(Job(f"jensen_check(0.5, 1.5, 0.5, {jm})",
                    lambda: coset_ewens.jensen_check(0.5, 1.5, 0.5, jm),
                    key="jensen", observe=lambda r: [r.ok, r.lhs_log, r.rhs_log], rel=1e-12))
    return jobs


def _sample_ok(m, c, samples, seed):
    def check(out, expected):
        p = out.payload
        if (p["m"], p["c"], p["samples"], p["seed"]) != (m, float(c), samples, seed):
            return f"payload echoes wrong parameters: {p}"
        if not 0 <= p["hits"] <= p["samples"]:
            return f"hits {p['hits']} outside 0..{p['samples']}"
        if p["frequency"] != p["hits"] / p["samples"]:
            return "frequency != hits / samples"
        # the exact tail where enumeration reaches, else a recorded estimate
        ref, ref_radius = ((float(Fraction(expected)), 0.0) if m in MC_EXACT_M
                           else expected)
        radius = math.hypot(p["wilson_radius_95"], ref_radius)
        if abs(p["frequency"] - ref) > 5 * radius:
            return f"frequency {p['frequency']} not within 5 radii of {ref}"
        return None
    return check


def _estimate(out):
    return [out.payload["frequency"], out.payload["wilson_radius_95"]]


def mc_sample(seed: int, size: dict) -> list[Job]:
    r = random.Random(seed)
    jobs = []
    for m, c, samples in size["mc"]:
        s = r.getrandbits(63)
        jobs.append(Job(f"cli sample {m} {c} {samples}",
                        _cli(["sample", str(m), c, str(samples), "--seed", str(s)]),
                        key=f"sample_{m}", observe=_estimate, compare=False,
                        extra=_sample_ok(m, c, samples, s), headline=True, samples=samples))
    return jobs


def _tails(out):
    p = out.payload
    return {"left": p["left"]["bound"], "alpha": p["left"]["alpha_argmin"],
            "grid": p["left"]["grid"], "right": p["right"]["bound"],
            "beta": p["right"]["beta"]}


def _all_positive(out, expected):
    co = out.payload["coefficients"]
    return None if all(v > 0 and math.isfinite(v) for v in co) else "a coefficient is not positive"


def _exact_digest(out):
    return hashlib.sha256(json.dumps(out.payload["coefficients"]).encode()).hexdigest()


def _closed_form(out, expected):
    """W(1, m) = (2m)! / (4^m m!^2) for every m."""
    for m, text in enumerate(out.payload["coefficients"]):
        want = Fraction(math.factorial(2 * m), 4**m * math.factorial(m) ** 2)
        if Fraction(text) != want:
            return f"W(1, {m}) = {text}, closed form {want}"
    return None


def _asymptotics(out):
    p = out.payload
    return {"product_at_one": p["product_at_one"], "limit": p["limit"],
            "rows": [[r["m"], r["scaled"]] for r in p["rows"]]}


def _shrinking(out, expected):
    dev = [r["relative_deviation"] for r in out.payload["rows"]]
    return None if dev == sorted(dev, reverse=True) else f"deviations do not shrink: {dev}"


def series_bounds(seed: int, size: dict) -> list[Job]:
    tm, big, ex = size["tails_m"], size["series_big"], size["series_exact"]
    beta, m_list = size["asym"]
    picks = sorted(set(range(21)) | set(range(0, big + 1, max(1, big // 20))))

    def picked(out):
        co = out.payload["coefficients"]
        return {"len": len(co), "picked": [co[i] for i in picks]}

    return [
        Job(f"cli tails {tm} 2", _cli(["tails", str(tm), "2"]), key="tails",
            observe=_tails, rel=1e-9, headline=True),
        Job(f"cli series 1.5 {big}", _cli(["series", "1.5", str(big)]), key="series_float",
            observe=picked, rel=1e-9, extra=_all_positive),
        Job(f"cli series 1 {ex}", _cli(["series", "1", str(ex)]), key="series_exact",
            observe=_exact_digest, extra=_closed_form),
        Job(f"cli asymptotics {beta} --m-list {m_list}",
            _cli(["asymptotics", beta, "--m-list", m_list]), key="asymptotics",
            observe=_asymptotics, rel=1e-9, extra=_shrinking),
    ]


def _all_ok(out, expected):
    return None if out.payload["all_ok"] else "all_ok is false"


def _random_perm(r: random.Random, n: int) -> tuple[int, ...]:
    images = list(range(n))
    r.shuffle(images)
    return tuple(images)


def _one_line(images) -> str:
    return "[" + ",".join(str(v + 1) for v in images) + "]"


def group_certify(seed: int, size: dict) -> list[Job]:
    r = random.Random(seed)
    jobs = [Job(f"cli verify {vm}", _cli(["verify", str(vm)]), key=f"verify_{vm}",
                observe=payload_digest, extra=_all_ok)
            for vm in size["verify"]]
    count, m = size["reduce"]
    perms = [(_random_perm(r, 2 * m), m) for _ in range(count)]
    big_count, big_m = size["classify_big"]
    perms_big = [(_random_perm(r, 2 * big_m), big_m) for _ in range(big_count)]
    for g, gm in perms:
        perm = coset_ewens.Permutation(g)
        jobs.append(Job(f"reduce_to_even_support(m={gm})",
                        lambda perm=perm, gm=gm: coset_ewens.reduce_to_even_support(perm, gm),
                        extra=_certificate_holds(g, gm), headline=True))
    for g, gm in perms + perms_big:
        jobs.append(Job(f"cli classify (m={gm})", _cli(["classify", _one_line(g), str(gm)]),
                        extra=_classified(g, gm)))
    return jobs


BUILDERS = {
    "exact_enum": exact_enum,
    "mc_sample": mc_sample,
    "series_bounds": series_bounds,
    "group_certify": group_certify,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, size: str) -> list[Job]:
    return BUILDERS[workload](seed, SIZES[size])
