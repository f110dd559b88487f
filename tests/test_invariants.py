import ast
import copy
import dataclasses
import importlib
import os
import pickle
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import toruscurves
from toruscurves.conditions import PrimeTozEntry
from toruscurves.solver import PrimeConstraint


# Every name the package exports, modules aside.  A new export, or a
# removed one, must edit this set.
EXPORTS = {
    "AlreadyTorus", "CliqueResult", "ConstraintViolation", "CurveClass",
    "Decomposition", "DomainError", "EMPTY_CURVE", "Factorization",
    "FailedPluecker", "FailedToz", "FailedTriangle", "InvalidModuli",
    "InvalidPermutation", "InvalidShape", "KappaConstraintSet",
    "NormalizedWitness", "OracleResult", "PreconditionViolated",
    "ReductionLog", "ReductionStep", "ResidueClass", "Scheme",
    "TorusCurvesError", "TozReport", "Unresolvable", "UnresolvableZero",
    "Verdict", "XYWitness", "bounded_decomposition_search",
    "candidate_vertices", "check_circledast", "check_pluecker_full",
    "check_triangle", "construct_witness", "coprime_shift", "crt", "curve",
    "decide_torus", "decompose_3scheme", "endemic_family",
    "enumerate_orbits", "factorize", "forbidden_count", "genus_upper_bound",
    "get", "is_probable_prime", "kappa_constraints", "lift_system",
    "max_clique", "max_packing", "new_scheme", "oracle_realizable",
    "permute", "pluecker_mu", "reduce_zeros", "render_svg", "scheme_sum",
    "solve_pair_orbits", "solve_xy", "toz_report", "valuation",
    "verify_system", "xgcd",
}


def test_package_exports_exactly_the_public_surface():
    exported = {name for name, value in vars(toruscurves).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == EXPORTS


def test_no_assert_statements_in_package():
    # `python -O` strips assert, so internal invariants must raise explicitly
    found = []
    for path in sorted(Path(toruscurves.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# One instance of every result record, the two reasons included, with its
# repr: Name(field=value, ...), except CurveClass's own (p,q) and Empty.
W = (toruscurves.curve(1, 0), toruscurves.curve(1, 2), toruscurves.EMPTY_CURVE)
W_REPR = "((1,0), (1,2), Empty)"
V = toruscurves.Verdict(True, (), W, True, None, kappa=1)
V_REPR = (f"Verdict(realizable=True, reasons=(), witness={W_REPR}, "
          "used_empty=True, reduction=None, kappa=1, constraints=None)")
PC = PrimeConstraint(3, 1, 3, toruscurves.ResidueClass(3, 1), (), 2)
PC_REPR = ("PrimeConstraint(prime=3, nu=1, modulus=3, "
           "ball=ResidueClass(modulus=3, residue=1), excluded=(), count=2)")
RECORDS = [
    (toruscurves.FailedTriangle(2, 5, 7), "FailedTriangle(i=2, j=5, k=7)"),
    (toruscurves.FailedPluecker(1, 3, 4, 8),
     "FailedPluecker(i=1, j=3, k=4, l=8)"),
    (toruscurves.FailedToz(2, Fraction(3)),
     "FailedToz(prime=2, total=Fraction(3, 1))"),
    (toruscurves.UnresolvableZero(2, 3), "UnresolvableZero(i=2, j=3)"),
    (PrimeTozEntry(2, 1, (((1, 2), 1),), (Fraction(1), Fraction(1, 2)),
                   Fraction(3, 2)),
     "PrimeTozEntry(prime=2, nu=1, valuations=(((1, 2), 1),), contributions="
     "(Fraction(1, 1), Fraction(1, 2)), total=Fraction(3, 2))"),
    (toruscurves.TozReport(6, (), ((2, Fraction(1, 2)),)),
     "TozReport(base_gcd=6, per_prime=(), "
     "checked_primes=((2, Fraction(1, 2)),))"),
    (V, V_REPR),
    (toruscurves.curve(1, 0), "(1,0)"),
    (toruscurves.EMPTY_CURVE, "Empty"),
    (toruscurves.ReductionStep(3, "duplicate_of", 1, -1),
     "ReductionStep(removed_index=3, reason='duplicate_of', of_index=1, "
     "sign=-1)"),
    (toruscurves.ReductionLog((toruscurves.ReductionStep(3, "empty"),),
                              toruscurves.Scheme(2, (5,)), (1, 2)),
     "ReductionLog(steps=(ReductionStep(removed_index=3, reason='empty', "
     "of_index=None, sign=None),), reduced=Scheme(n=2, [5]), "
     "survivors=(1, 2))"),
    (toruscurves.Unresolvable(1, 2, (), (1, 2)),
     "Unresolvable(i=1, j=2, steps=(), survivors=(1, 2))"),
    (toruscurves.XYWitness(1, 0, 1, 1, 1, 1),
     "XYWitness(x=1, y=0, g123=1, m12p=1, m13p=1, m23p=1)"),
    (PC, PC_REPR),
    (toruscurves.KappaConstraintSet((PC,)),
     f"KappaConstraintSet(per_prime=({PC_REPR},))"),
    (toruscurves.NormalizedWitness(1, (1,), W[:2]),
     "NormalizedWitness(kappa=1, r=(1,), system=((1,0), (1,2)))"),
    (toruscurves.Factorization(((2, 2), (3, 1))),
     "Factorization(pairs=((2, 2), (3, 1)))"),
    (toruscurves.Decomposition(toruscurves.Scheme(2, (1,)),
                               toruscurves.Scheme(2, (2,)), V, V, True),
     "Decomposition(left=Scheme(n=2, [1]), right=Scheme(n=2, [2]), "
     f"left_verdict={V_REPR}, right_verdict={V_REPR}, degenerate=True)"),
    (toruscurves.AlreadyTorus(V), f"AlreadyTorus(verdict={V_REPR})"),
    (toruscurves.CliqueResult(3, ((1, 0), (0, 1), (1, 1)), 1),
     "CliqueResult(size=3, witness=((1, 0), (0, 1), (1, 1)), d=1)"),
    (toruscurves.OracleResult(False, (), 0),
     "OracleResult(realizable=False, witnesses=(), orbit_count=0)"),
    (toruscurves.Scheme(2, (5,)), "Scheme(n=2, [5])"),
    (toruscurves.ResidueClass(3, 1), "ResidueClass(modulus=3, residue=1)"),
]


def _package_classes():
    """Every class defined in a module of the package."""
    paths = sorted(Path(toruscurves.__file__).parent.glob("*.py"))
    mods = [importlib.import_module(f"toruscurves.{p.stem}")
            for p in paths if not p.stem.startswith("__")]
    return {c for mod in mods for c in vars(mod).values()
            if isinstance(c, type) and c.__module__ == mod.__name__}


def test_records_are_named_tuples_but_scheme_and_residue_class_validate():
    classes = _package_classes()
    records = {c for c in classes if issubclass(c, tuple)}
    assert records == {type(r) for r, _ in RECORDS}
    assert all(hasattr(c, "_fields") for c in records)
    # no dataclass: the two records that validate their fields, Scheme and
    # ResidueClass, do so in __new__, which _make, _replace, copy and
    # pickle all call (tests/test_scheme.py, tests/test_intarith.py)
    assert not any(dataclasses.is_dataclass(c) for c in classes)
    assert {toruscurves.Scheme, toruscurves.ResidueClass} <= records
    # the plain tuples are equal, the records are not
    toz = toruscurves.FailedToz(2, Fraction(3))
    zero = toruscurves.UnresolvableZero(2, 3)
    assert tuple(toz) == tuple(zero) and toz != zero and zero != toz
    unit = toruscurves.curve(1, 0)
    assert unit != (1, 0) and (1, 0) != unit


@pytest.mark.parametrize("r, want", RECORDS,
                         ids=[f"{type(r).__name__}-{i}"
                              for i, (r, _) in enumerate(RECORDS)])
def test_records_are_type_strict_frozen_tuples(r, want):
    cls = type(r)
    assert repr(r) == want
    twin = copy.deepcopy(r)
    assert twin is not r and twin == r and not twin != r
    assert cls(*r) == r and cls._make(r) == r
    # equal only to its own type, whichever operand comes first, although
    # the plain tuples of the fields are equal
    assert r != tuple(r) and tuple(r) != r
    assert not r == tuple(r) and not tuple(r) == r
    for other, _ in RECORDS:
        if type(other) is not cls and len(other) == len(r):
            alias = tuple.__new__(type(other), r)
            assert r != alias and alias != r and tuple(alias) == tuple(r)
    # equal records hash equal, as their plain tuples do
    assert hash(r) == hash(twin) == hash(tuple(r))
    for name in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 9)
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is cls and back == r and repr(back) == want


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # no record is a dataclass, so importing the CLI, the package with it,
    # pulls in neither module; -S keeps site's own imports out of the count
    src = Path(toruscurves.__file__).resolve().parent.parent
    code = ("import sys, toruscurves.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_toz_report_is_hashable_with_valuations_in_column_order():
    s = toruscurves.new_scheme(3, [6, 10, 14])
    report = toruscurves.toz_report(s)
    twin = toruscurves.toz_report(s)
    assert hash(report) == hash(twin) and report == twin
    (entry,) = report.per_prime
    assert entry.prime == 2
    assert [ij for ij, _ in entry.valuations] == [(1, 2), (1, 3), (2, 3)]
    assert dict(entry.valuations) == {(1, 2): 1, (1, 3): 1, (2, 3): 1}
