"""Generate the golden CLI corpus that tests/test_golden.py compares against.

For each scheme the corpus records the exit code and the exact stdout of

    check FILE
    solve FILE --orbits 5
    solve FILE --kappa K     (one allowed K and, where one exists, one
                              forbidden K, both read off the check output)
    toz FILE
    decompose FILE
    oracle FILE

The schemes are random vector schemes (always realizable) and random
nonzero schemes for n = 3..8, vector schemes with g_123 > 1, schemes
with zero entries, the worked fixtures of the README and the acceptance
suite, and (2,3,5)*g for g in {6, 30, 210} (1 to 4 primes in the kappa
CRT).

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_corpus.py

The output, cli_corpus.json.gz, is deterministic, gzip header included, on
every supported Python version.  Regenerate it only for a deliberate
change of the CLI output, and say so in CHANGES.md.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import random_nonzero_scheme, random_vector_scheme  # noqa: E402
from toruscurves.cli import run  # noqa: E402

CORPUS = HERE / "cli_corpus.json.gz"

FIXTURES = [
    (2, [5]),
    (3, [2, 2, 4]),
    (3, [6, 10, 14]),
    (3, [4, 6, 10]),
    (3, [0, 1, 0]),
    (3, [1890, 1890, 41580]),
    (4, [1, 1, 1, 2, 1, -1]),
    (4, [3, 3, 3, 6, 3, -3]),
    (4, [9, 9, 9, 6, 3, -3]),
    (4, [5, 15, 15, 15, 15, 3]),
    (6, [3, 3, 6, 1, 4, 2, -1, 2, 4, 2, 1, 1, -1, -1, -1]),
    (6, [9, 9, 18, 3, 12, 6, -3, 6, 12, 6, 3, 3, -3, -3, -3]),
    (6, [15, 15, 30, 5, 20, 10, -5, 10, 20, 10, 5, 5, -5, -5, -5]),
    (6, [15, 20, 25, 5, 10, 5, -15, 15, 5, 5, -10, -5, 10, 5, -5]),
    (6, [9, 12, 15, 3, 6, 3, -9, 9, 3, 3, -6, -3, 6, 3, -3]),
] + [(3, [2 * g, 3 * g, 5 * g]) for g in (6, 30, 210)]


def schemes():
    rng = random.Random(20250823)
    out = [(n, list(e)) for n, e in FIXTURES]
    for n in range(3, 9):
        for _ in range(20):
            out.append(_doc(random_vector_scheme(rng, n)))
        for _ in range(8):
            out.append(_doc(random_nonzero_scheme(rng, n, hi=6)))
    for _ in range(20):
        out.append(_doc(random_nonzero_scheme(rng, 3, hi=12)))
    for n in range(3, 9):
        # g_123 > 1, so kappa is constrained by at least one prime
        kept = 0
        while kept < 8:
            n_, entries = _doc(random_vector_scheme(rng, n, qmax=8))
            if 0 not in entries and gcd(*entries[:3]) > 1:
                out.append((n_, entries))
                kept += 1
    for n in range(3, 9):
        # small coordinates repeat vectors up to sign, so entries vanish
        for _ in range(4):
            out.append(_doc(random_vector_scheme(rng, n, qmax=2)))
        for _ in range(2):
            n_, entries = _doc(random_vector_scheme(rng, n))
            entries[rng.randrange(len(entries))] = 0
            out.append((n_, entries))
    return out


def _doc(s):
    return s.n, list(s.entries)


def run_cli(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def kappa_args(check_stdout):
    """One allowed and, if any, one forbidden kappa for `solve --kappa`."""
    doc = json.loads(check_stdout)
    orbits = doc.get("orbits")
    if doc["status"] != "torus" or orbits is None:
        return [-3]
    modulus = orbits["modulus"]

    def inside(k, cls):
        return k % cls["modulus"] == cls["residue"]

    def admitted(k, pp):
        # in the prime's class and in none of the classes it excludes
        return inside(k, pp["ball"]) and not any(
            inside(k, e) for e in pp["excluded"]
        )

    # the allowed classes mod g_123: every residue allowed mod each p^nu
    allowed = [k for k in range(modulus)
               if all(admitted(k, pp) for pp in orbits["per_prime"])]
    picks = [allowed[len(allowed) // 2] - modulus]
    taken = set(allowed)
    forbidden = next((k for k in range(modulus) if k not in taken), None)
    if forbidden is not None:
        picks.append(forbidden)
    return picks


def record(n, entries, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "entries": entries}, fh)
    code, check_out = run_cli(["check", path])
    runs = [{"args": ["check"], "code": code, "stdout": check_out}]
    argsets = [["solve", "--orbits", "5"]]
    argsets += [["solve", "--kappa", str(k)] for k in kappa_args(check_out)]
    argsets += [["toz"], ["decompose"], ["oracle"]]
    for args in argsets:
        code, out = run_cli([args[0], path] + args[1:])
        runs.append({"args": args, "code": code, "stdout": out})
    return {"n": n, "entries": entries, "runs": runs}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scheme.json")
        corpus = [record(n, entries, path) for n, entries in schemes()]
    data = json.dumps(corpus, separators=(",", ":")).encode()
    # GzipFile writes the header's OS byte as 255 on every Python version,
    # where gzip.compress writes 3 on some; mtime=0 and no file name keep
    # the rest of the header fixed too
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0, filename="") as fh:
        fh.write(data)
    CORPUS.write_bytes(buf.getvalue())
    runs = sum(len(c["runs"]) for c in corpus)
    print(f"{len(corpus)} schemes, {runs} runs, {len(data)} bytes raw, "
          f"{CORPUS.stat().st_size} bytes written to {CORPUS.name}")


if __name__ == "__main__":
    main()
