"""The CLI reproduces the golden corpus byte for byte.

tests/golden/cli_corpus.json.gz holds the exit code and stdout of `check`,
`solve --orbits 5`, `solve --kappa K`, `toz`, `decompose` and `oracle` on
a few hundred schemes; tests/golden/make_corpus.py documents how it was
generated.  Refactors of the decision and witness code must leave every
one of these unchanged.
tests/golden/farey_stdout.json holds the stdout of `farey --d D` for
D = 1..40 (tests/golden/make_farey.py), which the packing search must
keep.
"""

import difflib
import gzip
import json
from pathlib import Path

from golden.make_corpus import CORPUS, run_cli
from golden.make_farey import DS, FAREY, farey_stdout


def test_golden_cli_corpus(tmp_path):
    corpus = json.loads(gzip.decompress(Path(CORPUS).read_bytes()))
    assert len(corpus) >= 250
    path = str(tmp_path / "scheme.json")
    mismatches = []
    for case in corpus:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": case["n"], "entries": case["entries"]}, fh)
        for want in case["runs"]:
            args = want["args"]
            code, out = run_cli([args[0], path] + args[1:])
            if (code, out) != (want["code"], want["stdout"]):
                diff = "".join(difflib.unified_diff(
                    want["stdout"].splitlines(True), out.splitlines(True),
                    "golden", "now", n=1,
                ))
                mismatches.append(
                    f"{args} on n={case['n']} {case['entries']}: exit "
                    f"{code} (golden {want['code']})\n{diff[:2000]}"
                )
    assert not mismatches, f"{len(mismatches)} runs differ:\n" + "\n".join(
        mismatches[:5]
    )


def test_golden_farey_stdout():
    golden = json.loads(FAREY.read_text(encoding="utf-8"))
    assert list(golden) == [str(d) for d in DS]
    differ = [d for d in DS if farey_stdout(d) != golden[str(d)]]
    assert not differ, f"farey --d D stdout differs at D = {differ}"
