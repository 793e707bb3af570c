"""Two-vertex quiver presentations with quadratic monomial relations.

Composition is right-to-left throughout: the relation word "d*c" means
"apply c, then d", and a stored relation pair (beta, alpha) forbids the
path beta-after-alpha.  The built-in catalog collects the fifteen
infinite-dimensional gentle presentations on two vertices that the rest
of the package classifies modules over.

The radical series of a projective is read off its arms, one
ideal-avoiding path per arrow out of its vertex; non-gentle input is
rejected at the first arrow on an arm with two continuations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property


class DSLError(ValueError):
    """Parse failure in the presentation DSL, with a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (name, source, target)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow ids")
        # The DSL splits vertices at whitespace, arrows at ";", ":" and
        # "->", and comments off at "#".
        for v in self.vertices:
            if v.split() != [v] or any(c in v for c in (";", "#", "->")):
                raise ValueError(f"vertex name {v!r} cannot be written "
                                 "in the DSL")
        vs = set(self.vertices)
        for name, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise ValueError(f"arrow {name}: undeclared vertex")
            if any(c in name for c in (":", ";", "#")):
                raise ValueError(f"arrow name {name!r} cannot be written "
                                 "in the DSL")
            # A word spells letters as x*y, ~x and "simple <vertex>", and
            # splits at whitespace to tell a simple from a letter.
            if (name.split() != [name] or "*" in name
                    or name.startswith("~") or name == "simple"):
                raise ValueError(
                    f"arrow name {name!r} cannot be spelled in a word")

    def source(self, arrow: str) -> str:
        return self._by_name[arrow][1]

    def target(self, arrow: str) -> str:
        return self._by_name[arrow][2]

    @cached_property
    def _by_name(self):
        return {a[0]: a for a in self.arrows}

    @cached_property
    def arrow_names(self) -> tuple[str, ...]:
        return tuple(a[0] for a in self.arrows)


@dataclass
class GentleReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Presentation:
    quiver: Quiver
    relations: tuple[tuple[str, str], ...]  # (beta, alpha): beta-after-alpha is zero
    note: str = field(default="", compare=False)  # to_dsl does not write it

    def __post_init__(self):
        seen = set()
        names = set(self.quiver.arrow_names)
        for rel in self.relations:
            if rel in seen:
                raise ValueError(f"duplicate relation {rel[0]}*{rel[1]}")
            if not names.issuperset(rel):
                raise ValueError(
                    f"relation {rel[0]}*{rel[1]} names an undeclared arrow")
            beta, alpha = rel
            if self.quiver.source(beta) != self.quiver.target(alpha):
                raise ValueError(
                    f"relation {beta}*{alpha}: not composable "
                    f"(source({beta}) != target({alpha}))")
            seen.add(rel)

    @cached_property
    def relation_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.relations)

    def source(self, arrow: str) -> str:
        return self.quiver.source(arrow)

    def target(self, arrow: str) -> str:
        return self.quiver.target(arrow)

    def to_dsl(self) -> str:
        lines = ["vertices: " + " ".join(self.quiver.vertices)]
        lines.append("arrows: " + " ; ".join(
            f"{n}: {s} -> {t}" for n, s, t in self.quiver.arrows))
        if self.relations:
            lines.append("relations: " + " ; ".join(
                f"{b}*{a}" for b, a in self.relations))
        return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented DSL.

    Format (comments start with '#'):

        vertices: 1 2
        arrows: a: 1 -> 1 ; c: 1 -> 2
        relations: a*a ; d*c

    Raises DSLError with a line number on malformed input.
    """
    vertices = None
    arrows = None
    relations = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DSLError("expected 'key: ...'", lineno)
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key == "vertices":
            if vertices is not None:
                raise DSLError("duplicate 'vertices' line", lineno)
            vertices = tuple(rest.split())
            if not vertices:
                raise DSLError("no vertices given", lineno)
        elif key == "arrows":
            if arrows is not None:
                raise DSLError("duplicate 'arrows' line", lineno)
            arrows = []
            for chunk in rest.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                try:
                    name, spec = chunk.split(":", 1)
                    src, tgt = spec.split("->")
                except ValueError:
                    raise DSLError(f"bad arrow {chunk!r}", lineno) from None
                name, src, tgt = name.strip(), src.strip(), tgt.strip()
                if not (name and src and tgt):
                    raise DSLError(f"bad arrow {chunk!r}", lineno)
                arrows.append((name, src, tgt))
            if not arrows:
                raise DSLError("no arrows given", lineno)
        elif key == "relations":
            if relations is not None:
                raise DSLError("duplicate 'relations' line", lineno)
            relations = []
            for chunk in rest.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                factors = [f.strip() for f in chunk.split("*")]
                if len(factors) != 2 or not all(factors):
                    raise DSLError(
                        f"relation {chunk!r} must be a length-2 word", lineno)
                relations.append((factors[0], factors[1]))
        else:
            raise DSLError(f"unknown key {key!r}", lineno)
    if vertices is None:
        raise DSLError("missing 'vertices' line")
    if arrows is None:
        raise DSLError("missing 'arrows' line")
    try:
        quiver = Quiver(vertices, tuple(arrows))
        return Presentation(quiver, tuple(relations or ()))
    except ValueError as exc:
        raise DSLError(str(exc)) from None


def validate_gentle(p: Presentation) -> GentleReport:
    """Check the gentle conditions (G1)-(G4).

    (G1) relations are composable length-2 monomials, which every
    `Presentation` is by construction; (G2) at most two arrows start
    and at most two end at each vertex; (G3) for each arrow, at most
    one left and one right neighbour avoiding the ideal; (G4) the same
    with "inside the ideal".
    """
    report = GentleReport(ok=True)
    for v in p.quiver.vertices:
        outs = [a for a, s, _ in p.quiver.arrows if s == v]
        ins = [a for a, _, t in p.quiver.arrows if t == v]
        if len(outs) > 2:
            report.violations.append(f"(G2) vertex {v}: {len(outs)} arrows out")
        if len(ins) > 2:
            report.violations.append(f"(G2) vertex {v}: {len(ins)} arrows in")

    rels = p.relation_set
    for alpha in p.quiver.arrow_names:
        succ = [b for b in p.quiver.arrow_names
                if p.source(b) == p.target(alpha)]
        cont = [b for b in succ if (b, alpha) not in rels]
        kill = [b for b in succ if (b, alpha) in rels]
        if len(cont) > 1:
            report.violations.append(
                f"(G3) arrow {alpha}: continuations {sorted(cont)} all avoid the ideal")
        if len(kill) > 1:
            report.violations.append(
                f"(G4) arrow {alpha}: {sorted(kill)} both annihilate after {alpha}")
        pred = [b for b in p.quiver.arrow_names
                if p.target(b) == p.source(alpha)]
        cont_p = [b for b in pred if (alpha, b) not in rels]
        kill_p = [b for b in pred if (alpha, b) in rels]
        if len(cont_p) > 1:
            report.violations.append(
                f"(G3) arrow {alpha}: predecessors {sorted(cont_p)} all avoid the ideal")
        if len(kill_p) > 1:
            report.violations.append(
                f"(G4) arrow {alpha}: {sorted(kill_p)} both annihilate before {alpha}")

    report.ok = not report.violations
    return report


@dataclass
class RadicalLayerReport:
    vertex: str
    depth: int
    layers: list[list[str]]          # sorted simple labels per radical power
    arms: list[dict]                 # {"first_arrow", "targets", "paths"}


def radical_series(p: Presentation, v: str, depth: int) -> RadicalLayerReport:
    """Layers and arms of the projective at v, truncated at `depth`.

    Each arm follows one starting arrow through its unique
    ideal-avoiding continuations until the path dies or the depth is
    reached; an arrow with two such continuations raises ValueError,
    so non-gentle input is rejected at its first ambiguous arrow.

    Layer i lists the simple at the target of every nonzero length-i
    path starting at v, read off the arms: relations are quadratic
    monomials, so appending an arrow keeps a path nonzero exactly when
    the new pair is not a relation.  Once the walk returns, every
    continuation within `depth` is unique, and the nonzero length-i
    paths from v are exactly the arms' length-i prefixes.
    """
    if v not in p.quiver.vertices:
        raise ValueError(f"unknown vertex {v!r}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rels = p.relation_set

    arms = []
    for name in p.quiver.arrow_names:
        if p.source(name) != v:
            continue
        chain = [name]
        targets = [f"S{p.target(name)}"]
        paths = ["*".join(reversed(chain))]
        while len(chain) < depth:
            last = chain[-1]
            cont = [b for b in p.quiver.arrow_names
                    if p.source(b) == p.target(last) and (b, last) not in rels]
            if not cont:
                break
            if len(cont) > 1:
                raise ValueError(
                    f"arrow {last}: ambiguous continuation, presentation not gentle")
            chain.append(cont[0])
            targets.append(f"S{p.target(cont[0])}")
            paths.append("*".join(reversed(chain)))
        arms.append({"first_arrow": name, "targets": targets, "paths": paths})
    layers = [[f"S{v}"]] + [
        sorted(arm["targets"][i] for arm in arms if i < len(arm["targets"]))
        for i in range(depth)]
    return RadicalLayerReport(vertex=v, depth=depth, layers=layers, arms=arms)


def _entry(name, vertices, arrows, relations, note=""):
    return name, Presentation(Quiver(tuple(vertices), tuple(arrows)),
                              tuple(relations), note=note)


def table1_catalog() -> list[tuple[str, Presentation]]:
    """The fifteen two-vertex infinite-dimensional gentle presentations.

    Names group presentations by quiver (qi..qviii) with a running
    index per ideal.  Entries whose printed source used clashing arrow
    labels carry a note describing the normalization adopted here.
    The presentations are built once per process; each call returns a
    new list of the same immutable `Presentation` objects.
    """
    return list(_table1_entries())


@cache
def _table1_entries() -> tuple[tuple[str, Presentation], ...]:
    V = ("1", "2")
    return (
        _entry("qi.1", V, [("a", "1", "2"), ("b", "2", "1")], []),
        _entry("qii.1", V,
               [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "1")],
               [("a", "c"), ("c", "a")],
               note="arrow labels normalized: two forward arrows a, b and "
                    "one backward arrow c, the unique gentle reading of the "
                    "printed ideal <ac, ca>"),
        _entry("qiii.1", V,
               [("a", "1", "2"), ("b", "1", "2"),
                ("c", "2", "1"), ("d", "2", "1")],
               [("c", "a"), ("d", "b"), ("a", "c"), ("b", "d")]),
        _entry("qiii.2", V,
               [("a", "1", "2"), ("b", "1", "2"),
                ("c", "2", "1"), ("d", "2", "1")],
               [("c", "a"), ("d", "b"), ("b", "c"), ("a", "d")],
               note="second ideal on the four-arrow quiver; verified "
                    "composable and gentle exactly as printed"),
        _entry("qiv.1", V, [("a", "1", "1"), ("b", "1", "2")], [("b", "a")]),
        _entry("qv.1", V, [("b", "1", "2"), ("a", "2", "2")], [("a", "b")]),
        _entry("qvi.1", V,
               [("a", "1", "1"), ("b", "1", "2"), ("c", "2", "1")],
               [("a", "a"), ("b", "c")]),
        _entry("qvi.2", V,
               [("a", "1", "1"), ("b", "1", "2"), ("c", "2", "1")],
               [("b", "a"), ("a", "c")]),
        _entry("qvi.3", V,
               [("a", "1", "1"), ("b", "1", "2"), ("c", "2", "1")],
               [("b", "a"), ("a", "c"), ("c", "b")]),
        _entry("qvii.1", V,
               [("a", "1", "1"), ("c", "1", "2"), ("b", "2", "2")],
               [("a", "a"), ("b", "c")]),
        _entry("qvii.2", V,
               [("a", "1", "1"), ("c", "1", "2"), ("b", "2", "2")],
               [("c", "a"), ("b", "b")]),
        _entry("qvii.3", V,
               [("a", "1", "1"), ("c", "1", "2"), ("b", "2", "2")],
               [("c", "a"), ("b", "c")]),
        _entry("qviii.1", V,
               [("a", "1", "1"), ("c", "1", "2"),
                ("d", "2", "1"), ("b", "2", "2")],
               [("a", "a"), ("b", "b"), ("d", "c"), ("c", "d")]),
        _entry("qviii.2", V,
               [("a", "1", "1"), ("c", "1", "2"),
                ("d", "2", "1"), ("b", "2", "2")],
               [("a", "a"), ("d", "b"), ("b", "c"), ("c", "d")]),
        _entry("qviii.3", V,
               [("a", "1", "1"), ("c", "1", "2"),
                ("d", "2", "1"), ("b", "2", "2")],
               [("c", "a"), ("d", "b"), ("b", "c"), ("a", "d")]),
    )


def catalog_presentation(name: str) -> Presentation:
    for entry_name, pres in table1_catalog():
        if entry_name == name:
            return pres
    raise ValueError(f"no catalog entry named {name!r}")


LAMBDA0 = "qviii.1"
