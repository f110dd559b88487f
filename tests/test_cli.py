import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toruscurves import curve, new_scheme, verify_system
from toruscurves.cli import _emit, _reason_doc, run


def write_scheme(tmp_path, name, n, entries, extra=None):
    doc = {"n": n, "entries": entries}
    if extra:
        doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_check_not_realizable(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 3, [6, 10, 14])
    code, doc = run_json(capsys, ["check", path])
    assert code == 1
    assert doc["status"] == "not_torus"
    (reason,) = doc["reasons"]
    assert reason["kind"] == "toz" and reason["prime"] == 2
    assert reason["detail"] == "toz total 2 reaches the prime"
    assert doc["orbits"]["count"] == 0 and "toz" not in doc


def test_check_realizable(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 3, [2, 2, 4])
    code, doc = run_json(capsys, ["check", path])
    assert code == 0
    assert doc["status"] == "torus"
    assert doc["witness"] == [[1, 0], [1, 2], [-1, 2]]
    assert doc["orbits"] == {
        "modulus": 2,
        "count": 1,
        "per_prime": [{
            "prime": 2,
            "modulus": 2,
            "count": 1,
            "ball": {"residue": 1, "modulus": 2},
            "excluded": [],
        }],
    }
    assert "toz" not in doc

    # three primes: the orbits are the kappa classes mod g_123 = 60, one
    # per choice of per-prime classes, and the canonical kappa is one of them
    path = write_scheme(tmp_path, "m60.json", 3, [120, 180, 300])
    code, doc = run_json(capsys, ["check", path])
    assert code == 0
    orbits = doc["orbits"]
    assert orbits["modulus"] == 60
    assert [pp["modulus"] for pp in orbits["per_prime"]] == [4, 3, 5]
    count = 1
    for pp in orbits["per_prime"]:
        count *= pp["count"]
    assert orbits["count"] == count

    def admitted(k, pp):
        def inside(c):
            return k % c["modulus"] == c["residue"]

        return inside(pp["ball"]) and not any(map(inside, pp["excluded"]))

    kappa = doc["kappa"]
    assert 0 <= kappa < 60 and all(
        admitted(kappa, pp) for pp in orbits["per_prime"]
    )
    for pp in orbits["per_prime"]:
        m = pp["modulus"]
        assert pp["count"] == sum(admitted(k, pp) for k in range(m))
    code, doc = run_json(capsys, ["solve", path, "--orbits", "100"])
    assert code == 0 and len(doc["orbit_witnesses"]) == count


def test_check_used_empty(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 3, [0, 1, 0])
    code, doc = run_json(capsys, ["check", path])
    assert code == 0
    assert doc["used_empty"] is True
    assert doc["witness"][1] == "empty"


def test_metadata_roundtrip_ignored(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 2, [5], extra={"metadata": {"k": "v"}})
    code, doc = run_json(capsys, ["check", path])
    assert code == 0


def test_unknown_reason_type_fails_loudly():
    # the golden corpus pins the document of every reason type; a tuple of
    # the same fields is none of them, and no -O run can skip the lookup
    for fields in ((2, 5, 7), (2, 3)):
        with pytest.raises(KeyError):
            _reason_doc(fields)


def test_toz_command(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 4, [9, 9, 9, 6, 3, -3])
    code, doc = run_json(capsys, ["toz", path])
    assert code == 0
    assert doc["g_123"] == 9
    assert doc["checked_primes"] == [
        {"prime": 2, "total": "0"},
        {"prime": 3, "total": "7/3"},
    ]
    (entry,) = doc["per_prime"]
    assert entry["contributions"] == ["1", "1", "1/3"]


def test_solve_orbits_stop_at_the_limit(tmp_path, capsys):
    # phi(10^12) pair classes; the 3-scheme reduces to the 2-scheme, its
    # third curve a duplicate of the first
    big = 10**12
    for n, entries in ((2, [big]), (3, [big, 0, -big])):
        path = write_scheme(tmp_path, f"pair{n}.json", n, entries)
        code, doc = run_json(capsys, ["solve", path, "--orbits", "2"])
        assert code == 0
        reps = doc["orbit_witnesses"]
        assert [w["kappa"] for w in reps] == [1, 3]
        s = new_scheme(n, entries)
        for w in reps:
            assert verify_system(s, tuple(curve(*v) for v in w["witness"]))


def test_kappa_classes_past_the_old_cap(tmp_path, capsys):
    # g_123 = 2^89 - 1 (prime, 27 digits) and 101^4: the orbits print in
    # closed form, so the document stays small and the count is exact
    def system(doc_witness):
        return tuple(curve(*v) for v in doc_witness)

    g = 2**89 - 1
    entries = [2 * g, 3 * g, 5 * g]
    path = write_scheme(tmp_path, "mersenne.json", 3, entries)
    code, doc = run_json(capsys, ["check", path])
    assert code == 0 and doc["status"] == "torus"
    assert verify_system(new_scheme(3, entries), system(doc["witness"]))
    assert doc["orbits"]["count"] == g - 2
    (pp,) = doc["orbits"]["per_prime"]
    assert pp["count"] == g - 2 and len(pp["excluded"]) == 2

    g = 101**4
    entries = [2 * g, 3 * g, 5 * g]
    path = write_scheme(tmp_path, "pp.json", 3, entries)
    code, doc = run_json(capsys, ["solve", path, "--orbits", "3"])
    assert code == 0
    reps = doc["orbit_witnesses"]
    assert len(reps) == 3 and len({w["kappa"] for w in reps}) == 3
    for w in reps:
        assert verify_system(new_scheme(3, entries), system(w["witness"]))

    # 7^4: 1715 admitted residues, formerly a 27 KB list
    path = write_scheme(tmp_path, "seven.json", 3, [2 * 7**4, 3 * 7**4, 5 * 7**4])
    assert run(["check", path]) == 0
    assert len(capsys.readouterr().out) < 1024


def test_solve_command(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 3, [2, 2, 4])
    code, doc = run_json(capsys, ["solve", path, "--orbits", "5", "--kappa", "3"])
    assert code == 0
    assert doc["requested"]["witness"] == [[1, 0], [3, 2], [1, 2]]
    assert len(doc["orbit_witnesses"]) == 1

    code = run(["solve", path, "--kappa", "2"])
    assert code == 2  # forbidden kappa

    # not realizable: the verdict is printed and the exit code is 1, as
    # for check
    path = write_scheme(tmp_path, "no.json", 3, [6, 10, 14])
    code, doc = run_json(capsys, ["solve", path, "--orbits", "2"])
    assert code == 1 and doc["status"] == "not_torus"

    # a zero entry: witnesses of the reduced scheme are lifted back to all
    # five curves (1,0), (0,1), (1,1), (1,0), (2,1)
    entries = [1, 1, -1, 0, -1, -1, 1, -2, -1, 1]
    path = write_scheme(tmp_path, "zero.json", 5, entries)
    code, doc = run_json(capsys, ["solve", path, "--orbits", "5", "--kappa", "3"])
    assert code == 0
    s = new_scheme(5, entries)
    systems = [doc["witness"], doc["requested"]["witness"]]
    systems += [w["witness"] for w in doc["orbit_witnesses"]]
    for system in systems:
        assert verify_system(s, tuple(curve(*v) for v in system))


def test_oracle_command(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 3, [2, 2, 4])
    code, doc = run_json(capsys, ["oracle", path])
    assert code == 0
    assert doc["realizable"] is True and doc["orbit_count"] == 1

    big = write_scheme(tmp_path, "big.json", 2, [10**7])
    assert run(["oracle", big]) == 2


def test_decompose_command(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 3, [6, 10, 14])
    code, doc = run_json(capsys, ["decompose", path])
    assert code == 0
    assert not doc["already_torus"]
    left, right = doc["left"]["entries"], doc["right"]["entries"]
    assert [l + r for l, r in zip(left, right)] == [6, 10, 14]


def test_endemic_command(capsys):
    code, doc = run_json(capsys, ["endemic", "--p", "3", "--q", "5"])
    assert code == 0
    assert doc["scheme"]["entries"] == [5, 15, 15, 15, 15, 3]
    assert doc["verdict"]["status"] == "not_torus"

    code, doc = run_json(
        capsys, ["endemic", "--p", "3", "--q", "5", "--search-bound", "4"]
    )
    assert code == 0
    assert doc["search"] == {"bound": 4, "found": False}


def test_farey_command(capsys):
    code, doc = run_json(capsys, ["farey", "--d", "1"])
    assert code == 0
    assert doc["size"] == 3
    assert sorted(map(tuple, doc["witness"])) == [(0, 1), (1, 0), (1, 1)]
    # the packing search has no options: --jobs is a usage error
    assert run(["farey", "--d", "3", "--jobs", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --jobs 2" in err


# the process tests run with and without -O, which strips assert
# statements; pytest cannot itself run under -O, as it would strip its own
with_and_without_O = pytest.mark.parametrize(
    "flags", [[], ["-O"]], ids=["plain", "-O"])


@with_and_without_O
def test_module_entry_point(tmp_path, flags):
    # python -m toruscurves and python -m toruscurves.cli keep the exit
    # codes of the installed script
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    cases = [
        (write_scheme(tmp_path, "yes.json", 3, [2, 2, 4]), 0, "torus"),
        (write_scheme(tmp_path, "no.json", 3, [6, 10, 14]), 1, "not_torus"),
        (str(garbled), 2, None),
    ]
    for module in ("toruscurves", "toruscurves.cli"):
        for path, code, status in cases:
            proc = subprocess.run(
                [sys.executable, *flags, "-m", module, "check", path],
                env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == code, (module, path, proc.stderr)
            if status is None:
                assert proc.stdout == "" and proc.stderr.startswith("error: ")
            else:
                doc = json.loads(proc.stdout)
                assert doc["status"] == status
                # json.dumps(doc, indent=2, sort_keys=True) byte for byte,
                # plus one newline
                assert proc.stdout == json.dumps(
                    doc, indent=2, sort_keys=True) + "\n", (module, path)
        # stdout a pipe whose reader closed it before the child started:
        # the output cannot be written, so exit 2 with one error line
        for path, _, status in cases:
            if status is None:
                continue
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, *flags, "-m", module, "check", path],
                    env=env, stdout=write_end, stderr=subprocess.PIPE,
                    text=True, timeout=60)
            finally:
                os.close(write_end)
            assert proc.returncode == 2, (module, path, proc.stderr)
            assert proc.stderr.startswith("error: ")
            assert proc.stderr.count("\n") == 1, proc.stderr


@with_and_without_O
def test_readme_commands_as_processes(tmp_path, flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    path = write_scheme(tmp_path, "m.json", 3, [6, 10, 14])

    def tc(*argv):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "toruscurves", *argv],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (argv, proc.stderr)
        return json.loads(proc.stdout)

    doc = tc("decompose", path)
    assert (doc["left"]["entries"], doc["right"]["entries"]) == (
        [5, 9, 14], [1, 1, 0])
    assert tc("farey", "--d", "7")["size"] == 10
    # d = 25 builds its graph from lattice strips, explicit raises included
    assert tc("farey", "--d", "25")["size"] == 30
    # the bound-30 search exhausts
    doc = tc("endemic", "--p", "3", "--q", "5", "--search-bound", "30")
    assert doc["search"]["found"] is False


def test_repeated_runs_reuse_one_parser(tmp_path, capsys, monkeypatch):
    from toruscurves import cli

    build, built = cli._build_parser, []

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counted)
    cli._parser.cache_clear()
    path = write_scheme(tmp_path, "m.json", 3, [2, 2, 4])
    seq = [["check", path], ["--version"], ["--help"], ["solve"],
           ["farey", "--d", "1"]]
    passes, builds = [], []
    for _ in range(2):
        results = []
        for argv in seq:
            code = run(argv)
            out, err = capsys.readouterr()
            results.append((code, out, err))
        passes.append(results)
        builds.append(len(built))
    assert passes[0] == passes[1]
    assert [r[0] for r in passes[0]] == [0, 0, 0, 2, 0]
    assert passes[0][3][2].count("error:") == 1
    # one parser, built in the first pass; the second pass built none
    assert builds == [1, 1]
    cli._parser.cache_clear()


def test_render_command(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 3, [2, 2, 4])
    out = tmp_path / "pic.svg"
    assert run(["render", path, "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")

    bad = write_scheme(tmp_path, "bad.json", 3, [6, 10, 14])
    assert run(["render", bad, "--out", str(tmp_path / "x.svg")]) == 2


def test_render_refuses_a_picture_past_the_segment_limit(tmp_path):
    # the witness is (1,0), (1,10^12): drawing it would take 10^12 segments,
    # so render must refuse before building any and write no file
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    path = write_scheme(tmp_path, "big.json", 2, [10**12])
    out = tmp_path / "pic.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "toruscurves", "render", path, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == "" and not out.exists()


def test_out_of_memory_exits_2(capsys, monkeypatch):
    from toruscurves import cli

    def exhausted(s, bound):
        raise MemoryError

    monkeypatch.setattr(cli, "bounded_decomposition_search", exhausted)
    assert run(["endemic", "--p", "3", "--q", "5", "--search-bound", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory\n"


@with_and_without_O
def test_out_of_memory_exits_2_as_a_process(flags):
    # the bound-10^11 search would need a mask of 2*10^11 + 1 bits (25 GB);
    # under a 1 GiB address space (the child's alone) a mask built before
    # the bound is refused would print "error: out of memory" instead, and
    # without a limit the bound must still be refused at once
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    for preexec_fn, timeout in ((limit, 60), (None, 10)):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "toruscurves", "endemic", "--p",
             "3", "--q", "5", "--search-bound", str(10**11)],
            env=env, capture_output=True, text=True, timeout=timeout,
            preexec_fn=preexec_fn)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            f"error: bound must be <= {2**20}, got {10**11}\n"), proc.stderr
        assert proc.stdout == ""


def test_input_errors(tmp_path):
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert run(["check", str(garbled)]) == 2

    missing = tmp_path / "missing.json"
    assert run(["check", str(missing)]) == 2

    wrong = write_scheme(tmp_path, "wrong.json", 3, [1, 2])
    assert run(["check", wrong]) == 2

    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps({"n": 2, "entries": [1.5]}))
    assert run(["check", str(floats)]) == 2

    # past the interpreter's digit limit for parsing an int
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 2, "entries": [1' + "0" * 5000 + "]}")
    assert run(["check", str(huge)]) == 2

    # nesting past the recursion limit of the JSON parser
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    assert run(["check", str(nested)]) == 2

    assert run(["nosuchcommand"]) == 2

    # an orbit limit below 1 is bad input, on realizable schemes or not
    for n, entries in ((2, [5]), (3, [2, 2, 4]), (3, [6, 10, 14])):
        path = write_scheme(tmp_path, "orbits.json", n, entries)
        for limit in ("0", "-1", "-3"):
            assert run(["solve", path, "--orbits", limit]) == 2


def test_json_roundtrip(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 4, [1, 1, 1, 2, 1, -1])
    code, doc = run_json(capsys, ["check", path])
    assert code == 0
    again = tmp_path / "again.json"
    again.write_text(json.dumps({"n": 4, "entries": [1, 1, 1, 2, 1, -1]}))
    code2, doc2 = run_json(capsys, ["check", str(again)])
    assert doc == doc2


def test_check_huge_witness(tmp_path, capsys):
    # A vector 3-scheme whose entries (1807, 1807 and 3613 digits) parse
    # within the int digit limit, while its normalized witness has
    # coordinates of more than 5000 digits.
    rng = random.Random(5)

    def primitive(digits):
        while True:
            x = rng.randrange(10 ** (digits - 2), 10 ** (digits - 1))
            y = rng.randrange(10 ** (digits - 1), 10**digits)
            if gcd(x, y) == 1:
                return x, y

    (x2, y2), (x3, y3) = primitive(1807), primitive(1807)
    entries = [y2, y3, x2 * y3 - x3 * y2]
    path = write_scheme(tmp_path, "huge.json", 3, entries)
    assert run(["check", path]) == 0
    out = capsys.readouterr().out
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(out)
        assert max(len(str(abs(c))) for v in doc["witness"] for c in v) > 5000
    finally:
        sys.set_int_max_str_digits(limit)
    assert sys.get_int_max_str_digits() == limit
    system = tuple(curve(p, q) for p, q in doc["witness"])
    assert verify_system(new_scheme(3, entries), system)


# text with non-ASCII, control, quote and backslash characters, a lone
# surrogate included
_TEXT = st.text(
    st.one_of(st.characters(),
              st.sampled_from('"\\\x00\x1f\x7f\ud800\U0001f600')),
    max_size=6,
)
_DOCS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(10**6000), 10**6000),
              st.integers(-3, 3), _TEXT),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=12,
)


# every command's stdout goes through _emit, so this is the CLI's layout
# contract
@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_emit_matches_json_dumps(doc):
    limit = sys.get_int_max_str_digits()
    out = io.StringIO()
    with redirect_stdout(out):
        _emit(doc)
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.getvalue() == want


@pytest.mark.parametrize("bad", [1.5, (1, 2), {1, 2}, b"x", {1: 2}])
def test_emit_refuses_other_types(bad, capsys):
    limit = sys.get_int_max_str_digits()
    # nested after a valid item, so a partial document would show
    for doc in (bad, {"a": [10**5000, {"b": bad}]}):
        with pytest.raises(TypeError):
            _emit(doc)
        assert sys.get_int_max_str_digits() == limit
        assert capsys.readouterr().out == ""


# JSON values that are not integers: bools, floats (NaN and the
# infinities included), strings, null, nested lists and objects
_NOT_INT = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.lists(st.lists(st.integers(-3, 3), max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)
_INTS = st.lists(st.integers(-20, 20), max_size=12)


@st.composite
def _entry_junk(draw):
    """A valid n with one entry replaced by a non-integer."""
    n = draw(st.integers(2, 5))
    entries = draw(st.lists(st.integers(-20, 20), min_size=n * (n - 1) // 2,
                            max_size=n * (n - 1) // 2))
    entries[draw(st.integers(0, len(entries) - 1))] = draw(_NOT_INT)
    return {"n": n, "entries": entries}


@st.composite
def _wrong_count(draw):
    n = draw(st.integers(1, 6))
    entries = draw(_INTS.filter(lambda e: len(e) != n * (n - 1) // 2))
    return {"n": n, "entries": entries}


_BAD_DOCS = st.one_of(
    # wrong top-level type
    st.integers(),
    _NOT_INT,
    # a missing key
    st.fixed_dictionaries({"n": st.integers(1, 4)}),
    st.fixed_dictionaries({"entries": _INTS}),
    st.fixed_dictionaries({}, optional={"m": st.integers(), "entries ": _INTS}),
    # n or entries of the wrong type
    st.fixed_dictionaries({"n": _NOT_INT, "entries": _INTS}),
    st.fixed_dictionaries({"n": st.integers(1, 4),
                           "entries": _NOT_INT.filter(lambda v: not isinstance(v, list))}),
    _entry_junk(),
    _wrong_count(),
    # n <= 0, whatever the entries
    st.fixed_dictionaries({"n": st.integers(-10, 0), "entries": _INTS}),
)


@settings(max_examples=300, deadline=None)
@given(doc=_BAD_DOCS,
       argv=st.sampled_from([["check"], ["solve"], ["solve", "--orbits", "2"],
                             ["toz"], ["oracle"], ["decompose"], ["render"]]))
def test_invalid_scheme_documents(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # NaN and Infinity are written as such
        extra = ["--out", os.path.join(tmp, "pic.svg")] if argv == ["render"] else []
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run([argv[0], path] + argv[1:] + extra)
        assert not os.path.exists(os.path.join(tmp, "pic.svg"))
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_library_errors_exit_2(tmp_path, capsys):
    # package errors raised inside a command reach the user as one
    # "error: ..." line on stderr, exit code 2 and nothing on stdout
    two = write_scheme(tmp_path, "two.json", 2, [3])
    four = write_scheme(tmp_path, "four.json", 4, [1] * 6)
    empty = write_scheme(tmp_path, "zero.json", 0, [])
    big = write_scheme(tmp_path, "big.json", 2, [10**7 + 1])
    small = write_scheme(tmp_path, "small.json", 3, [2, 2, 4])
    cases = [
        (["toz", two], "toz needs at least 3 curves"),
        (["decompose", four], "need a 3-scheme, got n=4"),
        (["check", empty], "need n >= 1, got n=0"),
        (["endemic", "--p", "4", "--q", "3"], "4 is not an odd prime"),
        (["oracle", big], "|m_12| = 10000001 exceeds the oracle scan cap"),
        (["solve", small, "--kappa", "2"],
         "kappa=2 gives r_2 sharing a factor with m_12"),
        (["farey", "--d", "0"], "need d >= 1, got 0"),
    ]
    for argv, message in cases:
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n", argv
