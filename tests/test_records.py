"""The result types: the two immutable classes and the named-tuple records."""

import json
import pickle

import pytest

from sbk.braces import BraceFlags, SkewBrace, classify
from sbk.cauchy import cauchy_report, survey_order
from sbk.cli import main
from sbk.enumeration import all_skew_braces
from sbk.groups import FiniteGroup, cyclic_group, dihedral_group
from sbk.substructure import brace_centers, ideals, quotient
from sbk.ybe import check_solution, to_solution


def _brace():
    """A brace with distinct groups, so every record below is non-trivial."""
    return next(B for B in all_skew_braces(6).entries if B.add != B.mul)


def _records():
    B = _brace()
    report = cauchy_report(B)
    solution = to_solution(B)
    return [
        classify(B),
        report.entries[0],
        report,
        survey_order(3)[0],
        all_skew_braces(6),
        brace_centers(B),
        quotient(B, ideals(B)[0]),
        solution,
        check_solution(solution),
    ]


def test_every_record_is_a_distinct_named_tuple():
    records = _records()
    assert len({type(r) for r in records}) == 9
    for r in records:
        assert isinstance(r, tuple)
        assert r == tuple(r) == tuple(getattr(r, f) for f in r._fields)
        assert list(r._asdict()) == list(r._fields)


def test_group_equality_and_hash_ignore_the_name():
    G = cyclic_group(6)
    H = FiniteGroup(G.n, G.table, G.inv, name="another name")
    assert G == H and hash(G) == hash(H)
    assert G != dihedral_group(6)
    assert G != (G.n, G.table, G.inv, G.name)


def test_brace_equality_and_hash_ignore_lam():
    B = _brace()
    other = SkewBrace(B.n, B.add, B.mul, lam=())
    assert B == other and hash(B) == hash(other)
    assert B != SkewBrace(B.n, B.mul, B.add, B.lam)


def _first_field(obj):
    return obj._fields[0] if isinstance(obj, tuple) else "n"


@pytest.mark.parametrize("kind", ["group", "brace", "record"])
def test_fields_refuse_assignment_and_deletion(kind):
    B = _brace()
    objs = {"group": [B.add], "brace": [B], "record": _records()}[kind]
    for obj in objs:
        name = _first_field(obj)
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert getattr(obj, name) == before


def test_brace_flags_as_dict_in_field_order():
    flags = classify(_brace())
    assert list(flags.as_dict()) == list(BraceFlags._fields) == [
        "trivial",
        "almost_trivial",
        "abelian",
        "two_sided",
        "bi_skew",
    ]
    assert tuple(flags.as_dict().values()) == flags


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_results_survive_pickle():
    B = _brace()
    for G in (B.add, B.mul):
        G.gens  # computed before pickling, so the cache travels too
        back = _round_trip(G)
        assert back == G and back.name == G.name and back.gens == G.gens
    back = _round_trip(B)
    assert back == B and back.lam == B.lam
    for obj in (classify(B), cauchy_report(B), all_skew_braces(6)):
        assert _round_trip(obj) == obj


def test_catalog_count_is_its_class_count(capsys):
    catalog = all_skew_braces(6)
    assert catalog.count == len(catalog.entries) == 6
    assert main(["enumerate", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["total_classes"] == catalog.count
