"""Presentation DSL, gentle validation, catalog, radical layers."""

import re

import pytest

from gentledef.homext import hom_dim
from gentledef.presentation import (
    DSLError,
    Presentation,
    Quiver,
    catalog_presentation,
    parse_presentation,
    radical_series,
    table1_catalog,
    validate_gentle,
)
from gentledef.strings import make_string, string_module

LAMBDA0_DSL = """\
# loop a at 1, loop b at 2, crossing arrows c and d
vertices: 1 2
arrows: a: 1 -> 1 ; c: 1 -> 2 ; d: 2 -> 1 ; b: 2 -> 2
relations: a*a ; b*b ; d*c ; c*d
"""


def _lambda0():
    return catalog_presentation("qviii.1")


def test_parse_round_trip():
    p = parse_presentation(LAMBDA0_DSL)
    assert p.quiver.vertices == ("1", "2")
    assert p.quiver.arrow_names == ("a", "c", "d", "b")
    assert p.relations == (("a", "a"), ("b", "b"), ("d", "c"), ("c", "d"))
    again = parse_presentation(p.to_dsl())
    assert again.relations == p.relations
    assert again.quiver == p.quiver



def test_catalog_round_trips_through_the_dsl():
    # to_dsl writes no note, and the note takes no part in equality, so
    # a module over the parsed copy pairs with one over the catalog entry.
    entries = table1_catalog()
    assert len(entries) == 15
    for name, p in entries:
        again = parse_presentation(p.to_dsl())
        assert again == p and hash(again) == hash(p), name
    p = catalog_presentation("qii.1")
    again = parse_presentation(p.to_dsl())
    assert p.note and not again.note
    m = string_module(p, make_string(p, "c*b"))
    n = string_module(again, make_string(again, "c*b"))
    assert hom_dim(m, n) == hom_dim(m, m) == 2


@pytest.mark.parametrize("name", ["a:b", "a;b", "a#b", ":", ";a", "a#"])
def test_arrow_names_the_dsl_cannot_read_back_are_rejected(name):
    with pytest.raises(ValueError, match="cannot be written in the DSL"):
        Quiver(("1",), ((name, "1", "1"),))


@pytest.mark.parametrize("name", ["", "1 2", "x\ty", " 1", "1\n", "1;2",
                                  "1#", "1->2", "->"])
def test_vertex_names_the_dsl_cannot_read_back_are_rejected(name):
    with pytest.raises(ValueError, match="cannot be written in the DSL"):
        Quiver(("v", name), (("a", "v", name),))


def test_names_holding_another_lines_separator_round_trip():
    p = Presentation(Quiver(("1:", "2-"), (("a->", "1:", "2-"),)), ())
    assert parse_presentation(p.to_dsl()) == p

def test_parse_errors_carry_line_numbers():
    with pytest.raises(DSLError) as err:
        parse_presentation("vertices: 1 2\narrows: a: 1 ->\n")
    assert "line 2" in str(err.value)
    with pytest.raises(DSLError):
        parse_presentation("arrows: a: 1 -> 2\n")  # vertices missing
    with pytest.raises(DSLError) as err:
        parse_presentation("vertices: 1\narrows: a: 1 -> 1\nrelations: a*a*a\n")
    assert "length-2" in str(err.value)


def test_catalog_calls_return_fresh_lists_of_the_same_presentations():
    first = table1_catalog()
    first.pop()
    first.append(("extra", first[0][1]))
    second, third = table1_catalog(), table1_catalog()
    assert second is not third
    assert len(second) == 15 and "extra" not in dict(second)
    assert all(a is b for a, b in zip(second, third))
    assert all(a is b for a, b in zip(first[:-1], second))


def test_catalog_has_fifteen_gentle_entries():
    entries = table1_catalog()
    assert len(entries) == 15
    names = [n for n, _ in entries]
    assert len(set(names)) == 15
    for name, pres in entries:
        report = validate_gentle(pres)
        assert report.ok, f"{name}: {report.violations}"


def test_catalog_contains_the_worked_algebra():
    p = _lambda0()
    assert set(p.relations) == {("a", "a"), ("b", "b"), ("d", "c"), ("c", "d")}
    assert p.source("c") == "1" and p.target("c") == "2"
    assert p.source("d") == "2" and p.target("d") == "1"


def test_gentle_fails_without_separating_relations():
    bare = Presentation(_lambda0().quiver, ())
    report = validate_gentle(bare)
    assert not report.ok
    assert any("(G3)" in v for v in report.violations)


def test_non_composable_relation_is_rejected():
    q = _lambda0().quiver
    # b ends at 2, c starts at 1
    with pytest.raises(ValueError, match=re.escape(
            "relation c*b: not composable (source(c) != target(b))")):
        Presentation(q, (("c", "b"),))


def _all_paths(p, v, max_len):
    """Every nonzero path from v with 1..max_len arrows, as a tuple of
    arrow names in the order they are applied.  A path is nonzero iff
    no adjacent pair is a relation."""
    rels = p.relation_set
    out = []
    frontier = [(a,) for a in p.quiver.arrow_names if p.source(a) == v]
    while frontier and len(frontier[0]) <= max_len:
        out += frontier
        frontier = [path + (b,) for path in frontier
                    for b in p.quiver.arrow_names
                    if p.source(b) == p.target(path[-1])
                    and (b, path[-1]) not in rels]
    return out


def test_radical_layers_are_the_targets_of_all_nonzero_paths():
    for name, p in table1_catalog():
        for v in p.quiver.vertices:
            paths = _all_paths(p, v, 12)
            for depth in range(1, 13):
                rep = radical_series(p, v, depth)
                assert rep.layers[0] == [f"S{v}"]
                assert len(rep.layers) == depth + 1
                for i in range(1, depth + 1):
                    assert rep.layers[i] == sorted(
                        f"S{p.target(path[-1])}"
                        for path in paths if len(path) == i), (name, v, i)


def test_gentle_local_uniqueness_by_arrow_scan():
    for name, p in table1_catalog():
        rels = p.relation_set
        for alpha in p.quiver.arrow_names:
            succ = [b for b in p.quiver.arrow_names
                    if p.source(b) == p.target(alpha)]
            assert sum((b, alpha) not in rels for b in succ) <= 1, (name, alpha)
            assert sum((b, alpha) in rels for b in succ) <= 1, (name, alpha)


def test_radical_layers_of_the_worked_algebra():
    p = _lambda0()
    rep = radical_series(p, "1", 8)
    assert rep.layers[0] == ["S1"]
    assert rep.layers[1] == ["S1", "S2"]
    assert rep.layers[2] == ["S2", "S2"]
    arms = {arm["first_arrow"]: arm["targets"] for arm in rep.arms}
    assert arms["c"] == ["S2", "S2", "S1", "S1", "S2", "S2", "S1", "S1"]
    assert arms["a"] == ["S1", "S2", "S2", "S1", "S1", "S2", "S2", "S1"]

    rep2 = radical_series(p, "2", 8)
    arms2 = {arm["first_arrow"]: arm["targets"] for arm in rep2.arms}
    assert arms2["d"] == ["S1", "S1", "S2", "S2", "S1", "S1", "S2", "S2"]


def test_radical_layer_sizes_stay_biserial():
    for name, p in table1_catalog():
        for v in p.quiver.vertices:
            rep = radical_series(p, v, 12)
            assert all(len(layer) <= 2 for layer in rep.layers), (name, v)


def test_radical_arm_paths_extend_one_arrow_at_a_time():
    p = _lambda0()
    rep = radical_series(p, "1", 6)
    for arm in rep.arms:
        for shorter, longer in zip(arm["paths"], arm["paths"][1:]):
            assert longer.endswith(shorter)
            assert longer.count("*") == shorter.count("*") + 1


def test_radical_series_rejects_unknown_vertex():
    with pytest.raises(ValueError):
        radical_series(_lambda0(), "3", 2)


def test_arm_stops_when_the_path_dies():
    # one isolated arrow out of vertex 1 and nothing to continue with
    p = Presentation(Quiver(("1", "2"), (("b", "1", "2"),)), ())
    rep = radical_series(p, "1", 5)
    assert rep.arms == [
        {"first_arrow": "b", "targets": ["S2"], "paths": ["b"]}]
    assert rep.layers[2] == []


def test_relation_on_an_undeclared_arrow_is_rejected():
    q = _lambda0().quiver
    with pytest.raises(ValueError, match="relation b\\*x names an undeclared arrow"):
        Presentation(q, (("b", "x"),))
    with pytest.raises(DSLError, match="undeclared arrow"):
        parse_presentation("vertices: 1\narrows: b: 1 -> 1\nrelations: x*b\n")


@pytest.mark.parametrize("name", ["~a", "a*c", "simple", "simple x", "",
                                  " a", "a\nb", "a b"])
def test_arrow_names_a_word_cannot_spell_are_rejected(name):
    with pytest.raises(ValueError, match="cannot be spelled in a word"):
        Quiver(("1", "2"), ((name, "1", "2"), ("b", "2", "1")))
    # The DSL strips an arrow name and breaks it at a newline, so only
    # names it keeps whole reach the Quiver through it.
    if name.splitlines() == [name.strip()]:
        with pytest.raises(DSLError) as err:
            parse_presentation(f"vertices: 1 2\narrows: {name}: 1 -> 2\n")
        assert str(err.value) == \
            f"arrow name {name!r} cannot be spelled in a word"
    # Names that merely contain the word syntax elsewhere stay legal.
    assert Quiver(("1",), (("a~", "1", "1"), ("simplex", "1", "1"),
                           ("a->", "1", "1")))


def test_relation_set_is_built_once_and_leaves_equality_alone():
    p, fresh = parse_presentation(LAMBDA0_DSL), parse_presentation(LAMBDA0_DSL)
    h = hash(p)
    assert p.relation_set is p.relation_set
    assert p.relation_set == frozenset(p.relations)
    assert hash(p) == h == hash(fresh)
    assert p == fresh and "relation_set" not in vars(fresh)
    other = Presentation(p.quiver, p.relations[:-1])
    assert other.relation_set != p.relation_set and other != p
