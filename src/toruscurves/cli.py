"""Command-line front end.

Schemes travel as JSON documents {"n": int, "entries": [...]} with entries
in column order m_12; m_13, m_23; m_14, m_24, m_34; ...  Results are JSON
on stdout; rational values serialize as "a/b" strings, never floats.  The
output is laid out byte for byte as json.dumps(doc, indent=2,
sort_keys=True) lays it out, ASCII only, followed by one newline.

Exit codes: 0 success (and realizable, for `check` and `solve`), 1 not
realizable (`check` and `solve`), 2 usage or input errors, including
integers past the interpreter's int parsing digit limit and documents
nested too deeply to parse, output that could not be written (stdout a
pipe whose reader has closed it), and a command that ran out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import prod

from . import __version__
from .conditions import (
    FailedPluecker,
    FailedToz,
    FailedTriangle,
    TozReport,
    UnresolvableZero,
    Verdict,
    decide_torus,
    toz_report,
)
from .errors import TorusCurvesError
from .farey import max_packing
from .genus import (
    AlreadyTorus,
    bounded_decomposition_search,
    decompose_3scheme,
    endemic_family,
)
from .oracle import oracle_realizable
from .render import render_svg
from .scheme import Scheme, Unresolvable, lift_system, reduce_zeros
from .solver import _orbits, construct_witness


class CliError(Exception):
    pass


def _load_scheme(path: str) -> Scheme:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, undecodable bytes, integers past the
        # interpreter's digit limit for int parsing, and nesting past the
        # recursion limit
        raise CliError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise CliError('scheme document needs fields "n" and "entries"')
    n, entries = doc["n"], doc["entries"]
    # json.load builds exact types, so this refuses bools (JSON true and
    # false) as well as floats, strings, null, lists and objects; the
    # entries are then exact ints, so Scheme checks only the shape
    if type(n) is not int or type(entries) is not list or not set(
        map(type, entries)
    ) <= {int}:
        raise CliError('"n" must be an integer and "entries" a list of integers')
    return Scheme(n, tuple(entries))


def _witness_doc(system):
    return ["empty" if v.is_empty else [v.p, v.q] for v in system]


_INDEX_REASONS = {
    FailedTriangle: ("triangle", "pairwise gcds differ on this triple"),
    FailedPluecker: ("pluecker", "m_ij*m_kl - m_ik*m_jl + m_il*m_jk != 0"),
    UnresolvableZero: ("zero",
                       "zero entry admits no duplicate or empty resolution"),
}


def _reason_doc(reason):
    if isinstance(reason, FailedToz):
        return {
            "kind": "toz",
            "prime": reason.prime,
            "detail": f"toz total {reason.total} reaches the prime",
        }
    # an unknown reason type fails here with KeyError
    kind, detail = _INDEX_REASONS[type(reason)]
    return {"kind": kind, "indices": list(reason), "detail": detail}


def _toz_doc(report: TozReport):
    return {
        "g_123": report.base_gcd,
        "per_prime": [
            {
                "prime": e.prime,
                "nu": e.nu,
                "valuations": {f"{i},{j}": v for (i, j), v in e.valuations},
                "contributions": [str(c) for c in e.contributions],
                "total": str(e.total),
            }
            for e in report.per_prime
        ],
        "checked_primes": [
            {"prime": p, "total": str(t)} for p, t in report.checked_primes
        ],
    }


def _verdict_doc(v: Verdict):
    doc = {
        "status": "torus" if v.realizable else "not_torus",
        "reasons": [_reason_doc(r) for r in v.reasons],
    }
    if v.witness is not None:
        doc["witness"] = _witness_doc(v.witness)
        doc["used_empty"] = v.used_empty
    if v.kappa is not None:
        doc["kappa"] = v.kappa
    if v.constraints is not None and not v.constraints.unconstrained:
        per_prime = v.constraints.per_prime
        doc["orbits"] = {
            "modulus": prod(pc.modulus for pc in per_prime),
            "count": prod(pc.count for pc in per_prime),
            "per_prime": [
                {
                    "prime": pc.prime,
                    "modulus": pc.modulus,
                    "count": pc.count,
                    "ball": _class_doc(pc.ball),
                    "excluded": [_class_doc(e) for e in pc.excluded],
                }
                for pc in per_prime
            ],
        }
    return doc


def _class_doc(cls):
    return None if cls is None else {
        "residue": cls.residue, "modulus": cls.modulus
    }


def _encode(value, nl: str, append) -> None:
    # append the JSON text of value in pieces; nl is a newline plus the
    # indentation of the line value starts on.  Types are matched exactly.
    kind = type(value)
    if kind is str:
        append(encode_basestring_ascii(value))
    elif kind is int:
        append(int.__repr__(value))
    elif kind is list:
        if not value:
            append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            append(sep)
            _encode(item, inner, append)
            sep = "," + inner
        append(nl + "]")
    elif kind is dict:
        if not value:
            append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError(f"key {key!r} is not a string")
            append(sep + encode_basestring_ascii(key) + ": ")
            _encode(item, inner, append)
            sep = "," + inner
        append(nl + "}")
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    else:
        raise TypeError(f"{kind.__name__} is not a JSON output type")


def _emit(doc) -> None:
    # Write doc exactly as json.dumps(doc, indent=2, sort_keys=True) would,
    # byte for byte and ASCII only, plus one newline.  doc holds only None,
    # bool, int, str, list and dict with str keys, matched by exact type;
    # any other type, a subclass included, raises TypeError.  The whole
    # text is built before the one write, so a failure never leaves partial
    # JSON on stdout.  Output integers (witness coordinates, kappa) may pass
    # the interpreter's int-to-str digit limit even when every input entry
    # is within it, so the limit is lifted only for this call; input
    # parsing keeps it.
    out = []
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _encode(doc, "\n", out.append)
    finally:
        sys.set_int_max_str_digits(limit)
    out.append("\n")
    sys.stdout.write("".join(out))


def _scheme_doc(s: Scheme):
    return {"n": s.n, "entries": list(s.entries)}


def _cmd_check(args) -> int:
    verdict = decide_torus(_load_scheme(args.file))
    _emit(_verdict_doc(verdict))
    return 0 if verdict.realizable else 1


def _cmd_solve(args) -> int:
    if args.orbits is not None and args.orbits < 1:
        raise CliError(f"--orbits LIMIT must be >= 1, got {args.orbits}")
    s = _load_scheme(args.file)
    verdict = decide_torus(s)
    if not verdict.realizable:
        _emit(_verdict_doc(verdict))
        return 1
    red = verdict.reduction.reduced
    doc = _verdict_doc(verdict)

    def lifted(w):
        # witnesses of the reduced scheme, on the original indexing
        return _witness_doc(lift_system(verdict.reduction, w.system))

    if args.kappa is not None:
        if red.n < 3:
            raise CliError("--kappa applies to schemes with >= 3 curves left"
                           " after zero reduction")
        w = construct_witness(red, args.kappa)
        doc["requested"] = {"kappa": args.kappa, "witness": lifted(w)}
    if args.orbits is not None:
        # the decision's kappa classes, not a second residue scan
        reps = islice(_orbits(red, verdict.constraints), args.orbits)
        doc["orbit_witnesses"] = [
            {"kappa": w.kappa, "witness": lifted(w)} for w in reps
        ]
    _emit(doc)
    return 0


def _cmd_toz(args) -> int:
    s = _load_scheme(args.file)
    red = reduce_zeros(s)
    if isinstance(red, Unresolvable):
        raise CliError(
            f"zero entry m_{red.i}{red.j} cannot be reduced; toz is undefined"
        )
    if red.reduced.n < 3 and red.steps:
        # toz_report's own message would count only the curves left
        raise CliError("toz needs at least 3 curves; zero reduction left "
                       f"{red.reduced.n} of {s.n}")
    _emit(_toz_doc(toz_report(red.reduced)))
    return 0


def _cmd_oracle(args) -> int:
    s = _load_scheme(args.file)
    result = oracle_realizable(s)
    _emit(
        {
            "realizable": result.realizable,
            "orbit_count": result.orbit_count,
            "witnesses": [
                {"r2": w.kappa, "witness": _witness_doc(w.system)}
                for w in result.witnesses
            ],
        }
    )
    return 0


def _cmd_decompose(args) -> int:
    s = _load_scheme(args.file)
    out = decompose_3scheme(s)
    if isinstance(out, AlreadyTorus):
        _emit({"already_torus": True, "verdict": _verdict_doc(out.verdict)})
    else:
        _emit(
            {
                "already_torus": False,
                "left": _scheme_doc(out.left),
                "right": _scheme_doc(out.right),
            }
        )
    return 0


def _cmd_endemic(args) -> int:
    s = endemic_family(args.p, args.q)
    doc = {
        "scheme": _scheme_doc(s),
        "verdict": _verdict_doc(decide_torus(s)),
    }
    if args.search_bound is not None:
        hit = bounded_decomposition_search(s, args.search_bound)
        if hit is None:
            doc["search"] = {"bound": args.search_bound, "found": False}
        else:
            doc["search"] = {
                "bound": args.search_bound,
                "found": True,
                "left": _scheme_doc(hit.left),
                "right": _scheme_doc(hit.right),
            }
    _emit(doc)
    return 0


def _cmd_farey(args) -> int:
    result = max_packing(args.d)
    _emit(
        {
            "d": result.d,
            "size": result.size,
            "witness": [list(v) for v in result.witness],
        }
    )
    return 0


def _cmd_render(args) -> int:
    s = _load_scheme(args.file)
    verdict = decide_torus(s)
    if not verdict.realizable:
        raise CliError("scheme is not torus-realizable; nothing to render")
    try:
        render_svg(verdict.witness, args.out)
    except OSError as exc:
        raise CliError(str(exc)) from exc
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toruscurves",
        description="Decide and construct curve systems on the torus with "
        "prescribed pairwise algebraic intersection numbers.",
        epilog='Scheme JSON: {"n": N, "entries": [m_12, m_13, m_23, m_14, '
        "m_24, m_34, ...]} (column order).",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide torus realizability")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("solve", help="witnesses and kappa classes")
    p.add_argument("file")
    p.add_argument("--kappa", type=int, default=None,
                   help="also construct the witness for this parameter value")
    p.add_argument("--orbits", type=int, default=None, metavar="LIMIT",
                   help="list up to LIMIT orbit representatives")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("toz", help="valuation invariant report")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_toz)

    p = sub.add_parser("oracle", help="brute-force witness scan")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("decompose", help="genus-2 split of a 3-scheme")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("endemic", help="generate an endemic 4-scheme")
    p.add_argument("--p", type=int, required=True, help="odd prime, p != q")
    p.add_argument("--q", type=int, required=True, help="odd prime, q != p")
    p.add_argument("--search-bound", type=int, default=None, metavar="B",
                   help="also search torus+torus splits with entries in [-B, B]")
    p.set_defaults(fn=_cmd_endemic)

    p = sub.add_parser("farey", help="maximal packing with bounded crossings")
    p.add_argument("--d", type=int, required=True,
                   help="pairwise geometric intersection bound")
    p.set_defaults(fn=_cmd_farey)

    p = sub.add_parser("render", help="SVG of the canonical witness")
    p.add_argument("file")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(fn=_cmd_render)

    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    # built on the first run, not at import; parse_args leaves it unchanged
    return _build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (CliError, TorusCurvesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # e.g. a search whose bit masks, within the bound limit, still do
        # not fit in the memory left to the process
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed the pipe: send what is left to devnull so the
        # flush at exit cannot fail again, and report an output error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
