"""Presentation DSL, gentle validation, catalog, composition, radical layers."""

import pytest

from gentledef.presentation import (
    DSLError,
    Path,
    Presentation,
    Quiver,
    catalog_presentation,
    compose,
    parse_presentation,
    radical_series,
    table1_catalog,
    validate_gentle,
)

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
        assert report.ok, f"{name}: {report.violations or report.errors}"


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


def test_non_composable_relation_is_an_error_not_a_violation():
    q = _lambda0().quiver
    bad = Presentation(q, (("c", "b"),))  # b ends at 2, c starts at 1
    report = validate_gentle(bad)
    assert not report.ok
    assert report.errors and not report.violations
    assert "not composable" in report.errors[0]


def test_compose_examples():
    p = _lambda0()
    ca = compose(p, Path(("c",)), Path(("a",)))
    assert ca is not None and ca.arrows == ("c", "a")
    assert compose(p, Path(("d",)), Path(("c",))) is None  # d*c in the ideal
    q = Path(("c", "a"))
    triv = Path((), at="1")
    assert compose(p, q, triv) == q
    assert compose(p, triv, Path(("a",))) == Path(("a",))
    # ill-typed: c ends at 2, a starts at 1
    assert compose(p, Path(("a",)), Path(("c",))) is None


def _all_paths(p, max_len):
    out = [Path((), at=v) for v in p.quiver.vertices]
    frontier = list(out)
    for _ in range(max_len):
        new = []
        for path in frontier:
            for name in p.quiver.arrow_names:
                if p.source(name) != p.path_target(path):
                    continue
                ext = compose(p, Path((name,)), path)
                if ext is not None:
                    new.append(ext)
        frontier = new
        out.extend(new)
    return out


def test_compose_associative_on_short_paths():
    for name, p in table1_catalog():
        paths = _all_paths(p, 4)
        for x in paths:
            for y in paths:
                xy = compose(p, x, y)
                for z in paths:
                    yz = compose(p, y, z)
                    left = compose(p, xy, z) if xy is not None else None
                    right = compose(p, x, yz) if yz is not None else None
                    assert left == right, (name, x, y, z)


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


def test_relation_set_is_built_once_and_leaves_equality_alone():
    p, fresh = parse_presentation(LAMBDA0_DSL), parse_presentation(LAMBDA0_DSL)
    h = hash(p)
    assert p.relation_set is p.relation_set
    assert p.relation_set == frozenset(p.relations)
    assert hash(p) == h == hash(fresh)
    assert p == fresh and "relation_set" not in vars(fresh)
    other = Presentation(p.quiver, p.relations[:-1])
    assert other.relation_set != p.relation_set and other != p
