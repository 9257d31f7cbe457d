"""Command-line surface: classification, verification sweeps, probability
tables, sampling experiments, and series/tail computations.

One JSON envelope per invocation on stdout (or --out); --csv switches
table-shaped payloads to CSV.  Exit codes: 0 ok, 2 usage error, 3
verification failure, 4 resource-cap rejection, 5 a result out of float64
range.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from . import rng, series as series_mod
from .cosets import (
    INTERSECTION_MAX_M,
    ORBIT_SWEEP_MAX_M,
    _class_rows,
    canonical_rep,
    coset_class,
    double_coset_size,
    _intersection_rows,
    _orders,
    enumerate_double_cosets,
    partition_of,
    predicted_intersection_order,
    wreath_model,
)
from .errors import NumericRangeError, ResourceLimitError, _integer
from .ewens import good_probability_mc
from .partitions import enumerate_partitions
from .perm import cycle_string, parse_permutation

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY_FAILED = 3
EXIT_RESOURCE = 4
EXIT_NUMERIC_RANGE = 5

# table and double-cosets stream their rows at a flat 32 MiB max RSS, so time sets the cap:
# double-cosets takes 4 s at m = 59, 7 s at 62, 9 s at 65, 19 s at 70 (2-core Xeon, Py 3.11)
CLASS_TABLE_MAX_M = 70
# rows per write as they stream: the 14 883 rows of double-cosets 35 are written
# in 22 ms at one write a row, 10 ms as one string and 9 ms at 512 a write
ROW_BATCH = 512
# the exact coset size's digits make classify about quadratic in m
CLASSIFY_MAX_M = 20_000


class VerificationFailure(Exception):
    pass


def _digits(n: int) -> str:
    """The decimal digits of n.  str(int) stops at the interpreter's 4300-digit limit,
    str(Decimal) does not: coset_size has ~5700 digits at m = 1000."""
    return str(Decimal(n))


def _finite_float(text: str) -> float:
    """argparse type for float arguments: nan and +-inf are usage errors."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


# --- command payloads ----------------------------------------------------

def cmd_classify(args) -> dict:
    m = _integer(args.m, "m", 1, CLASSIFY_MAX_M, "classify")
    g = parse_permutation(args.perm, 2 * m)
    cls = coset_class(partition_of(g, m), m)
    return {"lambda": str(cls.lam), "predicted_order": _digits(cls.predicted_order),
            "coset_size": _digits(cls.coset_size), "canonical": cls.canonical,
            "m": m, "input_cycles": cycle_string(g)}


def cmd_verify(args) -> dict:
    if (m := _integer(args.m, "m", 1)) > INTERSECTION_MAX_M:
        raise ValueError(f"verify is limited to m <= {INTERSECTION_MAX_M}")
    lams = enumerate_partitions(m)
    sizes = [double_coset_size(lam, m) for lam in lams]
    classes = []
    all_ok = True
    for lam in lams:
        rep = canonical_rep(lam, m)
        rows = _intersection_rows(rep, m)
        predicted = predicted_intersection_order(lam)
        order_ok = len(rows) == predicted
        model_order, model_hist = wreath_model(lam)
        fingerprint_ok = model_order == len(rows) and model_hist == _orders(rows)
        all_ok = all_ok and order_ok and fingerprint_ok
        classes.append({
            "lambda": str(lam),
            "predicted_order": str(predicted),
            "brute_force_order": str(len(rows)),
            "order_ok": order_ok,
            "fingerprint_ok": fingerprint_ok,
        })
    payload: dict = {"m": m, "classes": classes}
    if m <= ORBIT_SWEEP_MAX_M:
        orbits = enumerate_double_cosets(m)
        orbit_ok = sorted(sizes) == sorted(o.size for o in orbits)
        all_ok = all_ok and orbit_ok
        payload["orbits"] = {
            "count": len(orbits),
            "expected_count": len(lams),
            "sizes_ok": orbit_ok,
        }
    mass_ok = sum(sizes) == math.factorial(2 * m)
    all_ok = all_ok and mass_ok
    payload["mass_identity_ok"] = mass_ok
    payload["all_ok"] = all_ok
    if not all_ok:
        raise VerificationFailure(json.dumps(payload, allow_nan=False))
    return payload


# the class tables print with str: at m <= 70 every integer is under 250 digits
def _class_table(m: int) -> tuple[int, Iterator[tuple[int, str, str]]]:
    m = _integer(m, "m", 0, CLASS_TABLE_MAX_M, "table and double-cosets")
    return (2**m * math.factorial(m)) ** 2, _class_rows(m)


def cmd_double_cosets(args) -> dict:
    h2, rows = _class_table(args.m)
    fields = ("lambda", "predicted_order", "coset_size", "canonical")
    classes = ((lam, str(f), str(h2 // f), cycles) for f, lam, cycles in rows)
    return {"m": args.m, "classes": _Table(fields, classes)}


def cmd_table(args) -> dict:
    h2, class_rows = _class_table(args.m)
    fact_2m = math.factorial(2 * args.m)
    a, b = Fraction(h2, fact_2m).as_integer_ratio()  # P = a/(b f), lowest over gcd(a, f)
    mass = 0  # sum of |HxH| over the rows written, so that the total is one Fraction

    def rows():
        nonlocal mass
        for f, lam, _ in class_rows:
            size = h2 // f
            mass += size
            g = math.gcd(a, f)
            num, den = a // g, b * (f // g)
            # num / den is the rounding of float(Fraction)
            yield lam, str(f), str(size), f"{num}/{den}", num / den

    fields = ("lambda", "predicted_order", "coset_size", "probability", "probability_float")
    # "total" follows "rows": the writer calls it after the last row
    return {"m": args.m, "rows": _Table(fields, rows()),
            "total": lambda: "%d/%d" % Fraction(mass, fact_2m).as_integer_ratio()}


def cmd_sample(args) -> dict:
    return good_probability_mc(args.m, args.c, args.samples, args.seed).to_json_dict()


def cmd_tails(args) -> dict:
    m, c = args.m, args.c
    if args.alpha_grid:
        alphas = [float(t) for t in args.alpha_grid.split(",")]
    else:
        alphas = list(series_mod.default_alpha_grid(args.alpha_points))
    # the right tail's one kernel column first, so that its beta is refused before the grid runs
    beta = args.beta if args.beta is not None else series_mod.default_right_beta(m, args.t)
    right = series_mod.right_tail_bound(m, c, beta)
    left = series_mod.left_tail_bound(m, c, alphas)
    return {
        "m": m,
        "c": c,
        "left": {"bound": left.bound, "alpha_argmin": left.parameter, "grid": left.grid},
        "right": {"bound": right.bound, "beta": right.parameter},
    }


def cmd_series(args) -> dict:
    ts = series_mod.W_series_coeffs(args.beta, args.max_degree)
    return {
        "beta": args.beta,
        "max_degree": ts.truncation,
        "exact": ts.exact,
        "coefficients": (["/".join(map(_digits, q.as_integer_ratio())) for q in ts.coefficients]
                         if ts.exact else ts.coefficients),
    }


def cmd_asymptotics(args) -> dict:
    m_list = [int(t) for t in args.m_list.split(",") if t.strip()]
    rows = series_mod.asymptotic_diagnostic(args.beta, m_list)
    w1 = series_mod.W_at_one(args.beta)
    return {
        "beta": args.beta,
        "product_at_one": w1.value,
        "product_error_bound": w1.error_bound,
        "limit": rows[0].limit,
        "rows": [{"m": r.m, "scaled": r.scaled, "relative_deviation": r.relative_deviation}
                 for r in rows],
    }


# --- output --------------------------------------------------------------

class _Table(NamedTuple):
    """A table of a payload: its field names, and its rows as tuples of values
    in field order, which the writer reads once, as it writes them."""
    fields: tuple[str, ...]
    rows: Iterable[tuple]


def _batches(table: _Table, template: Callable, sep: str, lead: str = "") -> Iterator[str]:
    """The rows, each filled into ``template(first row)`` by ``%``, as strings of ROW_BATCH
    rows joined by ``sep``; ``lead``, then ``sep``, goes before each as a string of its own."""
    rows = iter(table.rows)
    if (first := next(rows, None)) is None:
        return
    fill, rows = template(first).__mod__, itertools.chain((first,), rows)
    while batch := list(itertools.islice(rows, ROW_BATCH)):
        yield lead  # prepended, it would copy the batch
        yield sep.join(map(fill, batch))
        lead = sep


def _json_table(table: _Table) -> Iterator[str]:
    """``table`` as a JSON list of objects.  A float is written by repr, as json
    does; a text is not escaped, so it must need none: every text of a class
    table is digits, spaces and the characters ^()/."""
    def template(first: tuple) -> str:
        return "{" + ", ".join(json.dumps(k) + (": %r" if isinstance(v, float) else ': "%s"')
                               for k, v in zip(table.fields, first)) + "}"

    yield "["
    yield from _batches(table, template, ", ")
    yield "]"


def _json_late(value: Callable) -> Iterator[str]:
    yield json.dumps(value(), allow_nan=False)


def _json_pieces(obj) -> list:
    """``json.dumps(obj, allow_nan=False)`` as strings and iterators of strings.

    A :class:`_Table` in ``obj`` is written ROW_BATCH rows a string, and a
    callable is called, only when the writer reaches it.  Everything else is
    encoded here, so a non-finite float raises before a byte is written.
    """
    if isinstance(obj, dict):
        pieces = ["{"]
        for i, (key, value) in enumerate(obj.items()):
            pieces.append((", " if i else "") + json.dumps(key) + ": ")
            pieces += _json_pieces(value)
        return pieces + ["}"]
    if isinstance(obj, _Table):
        return [_json_table(obj)]
    if callable(obj):
        return [_json_late(obj)]
    return [json.dumps(obj, allow_nan=False)]


def _csv(table: _Table) -> Iterator[str]:
    """``table`` as CSV: a header line, then a line a row, a float as ``%.17g``."""
    yield ",".join(table.fields)
    yield from _batches(table, lambda first: ",".join("%.17g" if isinstance(v, float) else "%s"
                                                      for v in first), "\n", "\n")
    yield "\n"


def _payload_csv(command: str, p: dict) -> Iterator[str] | None:
    if command in ("table", "double-cosets"):
        return _csv(p["rows" if command == "table" else "classes"])
    if command == "sample":
        fields = ("m", "c", "samples", "frequency", "wilson_radius_95", "seed")
        return _csv(_Table(fields, [tuple(p[k] for k in fields)]))
    if command == "series":
        return _csv(_Table(("m", "coefficient"), enumerate(p["coefficients"])))
    if command == "asymptotics":
        return _csv(_Table(("m", "scaled", "limit", "relative_deviation"),
                           [(r["m"], r["scaled"], p["limit"], r["relative_deviation"])
                            for r in p["rows"]]))
    if command == "tails":
        return _csv(_Table(("alpha", "left_bound"), p["left"]["grid"]))
    return None


def _write(pieces: list, fh) -> None:
    """Write each piece, a string or an iterator of strings, to ``fh``."""
    for piece in pieces:
        if isinstance(piece, str):
            fh.write(piece)
        else:
            fh.writelines(piece)


# --- driver --------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call and shared by
    every later ``main``: do not mutate it.  A parse keeps no state in it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    common.add_argument("--out", type=str, default=None, help="write output to file")
    common.add_argument("--csv", action="store_true", help="emit tables as CSV")

    parser = argparse.ArgumentParser(prog="coset-ewens", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="classify a permutation of S_2m into its double coset")
    p.add_argument("perm", help='permutation text, e.g. "(1 3)" or "[3,4,1,2]"')
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", parents=[common],
                       help=f"brute-force verification sweep for one m (m <= {INTERSECTION_MAX_M})")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("double-cosets", parents=[common],
                       help="per-class classification table for one m")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_double_cosets)

    p = sub.add_parser("table", parents=[common],
                       help="exact class probability table for one m")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sample", parents=[common],
                       help="Monte Carlo estimate of P(f <= m^c)")
    p.add_argument("m", type=int)
    p.add_argument("c", type=_finite_float)
    p.add_argument("samples", type=int)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("tails", parents=[common],
                       help="moment bounds for the two tails at (m, c)")
    p.add_argument("m", type=int)
    p.add_argument("c", type=_finite_float)
    p.add_argument("--alpha-grid", type=str, default=None,
                   help="comma-separated alpha grid for the left bound")
    p.add_argument("--alpha-points", type=int, default=64)
    p.add_argument("--beta", type=_finite_float, default=None,
                   help="right-tail beta in (0,1); default 1 - t/(log m)^2")
    p.add_argument("--t", type=_finite_float, default=1.0)
    p.set_defaults(func=cmd_tails)

    p = sub.add_parser("series", parents=[common],
                       help="coefficients of the weighted-sum generating function")
    p.add_argument("beta", type=_finite_float)
    p.add_argument("max_degree", type=int)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("asymptotics", parents=[common],
                       help="convergence diagnostic for beta > 1")
    p.add_argument("beta", type=_finite_float)
    p.add_argument("--m-list", type=str, required=True,
                   help="comma-separated m values")
    p.set_defaults(func=cmd_asymptotics)
    for p in sub.choices.values():  # argparse would take "-1e3" for an option
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "command", "out", "csv") and v is not None}
    start = time.monotonic()

    def envelope(status: str, payload=None, error=None) -> list:
        env = {
            "command": args.command,
            "parameters": params,
            "status": status,
        }
        if payload is not None:
            env["payload"] = payload
        if error is not None:
            env["error"] = error
        env["elapsed_ms"] = lambda: int((time.monotonic() - start) * 1000)
        return _json_pieces(env) + ["\n"]

    def fail(code: str, exc: Exception) -> list:
        return envelope("error", error={"code": code, "message": str(exc)})

    # --out is opened before the work, so that a path it cannot write loses none
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        _write(fail("usage", exc), sys.stdout)
        return EXIT_USAGE
    with out as fh:
        # every cap and check raises here, before the first byte is written
        try:
            rng.check_seed(args.seed)
            payload = args.func(args)
            csv = _payload_csv(args.command, payload) if args.csv else None
            # allow_nan=False: a non-finite float in a payload becomes a usage
            # envelope instead of invalid JSON
            pieces = [csv] if csv is not None else envelope("ok", payload=payload)
            status = EXIT_OK
        except VerificationFailure as exc:
            pieces, status = fail("verification_failed", exc), EXIT_VERIFY_FAILED
        except ResourceLimitError as exc:
            pieces, status = fail("resource_cap", exc), EXIT_RESOURCE
        except NumericRangeError as exc:
            pieces, status = fail("numeric_range", exc), EXIT_NUMERIC_RANGE
        except (ValueError, OverflowError) as exc:
            pieces, status = fail("usage", exc), EXIT_USAGE

        _write(pieces, fh)
    return status


def entry() -> None:
    try:
        sys.exit(main())
    except BrokenPipeError:  # the reader left mid-table, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        sys.exit(1)


if __name__ == "__main__":
    entry()
