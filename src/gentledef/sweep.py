"""Catalog-wide classification with a disagreement ledger.

Every trivial-endomorphism string module up to a length bound, over
every algebra in the catalog, gets one row: tangent dimension by both
ext engines, the computed ring with its lift census, and the verdict
against the published classification.  Disagreements are findings, not
failures; only cross-engine mismatches count as internal errors.

Row membership, End(M[w]) = k, is decided on the word, by
`strings.word_end_is_trivial`, before any module is built; the linear
`homext.end_is_trivial` then re-derives it on each accepted row, and a
row it rejects is an internal error, not a row.  So accepted strings
have two derivations in every sweep, and rejected strings one in a
sweep and two in the tests, which compare the engines on every catalog
string up to length 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import claims
from .homext import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    brute_force_ext,
    end_is_trivial,
    ext1_dim,
)
from .lifts import CANDIDATE_RINGS
from .presentation import Presentation, table1_catalog
from .strings import enumerate_strings, string_module, word_end_is_trivial
from .udr import _classify

RING_BUCKETS = CANDIDATE_RINGS + ("undetermined",)


@dataclass
class SweepRow:
    algebra: str
    word: str
    total_dim: int
    ring: str
    tangent_dim: int
    ext_linear: int
    ext_brute: int | None
    census: list[list[int]]
    matches: list[str]
    published: str | None
    agreement: str
    error: str | None = None

    def as_dict(self) -> dict:
        return {"algebra": self.algebra, "word": self.word,
                "total_dim": self.total_dim, "ring": self.ring,
                "tangent_dim": self.tangent_dim,
                "ext_linear": self.ext_linear, "ext_brute": self.ext_brute,
                "census": self.census, "matches": self.matches,
                "published": self.published, "agreement": self.agreement,
                "error": self.error}


@dataclass
class SweepReport:
    q: int
    max_len: int
    n_max: int
    rows: list[SweepRow] = field(default_factory=list)
    internal_errors: list[str] = field(default_factory=list)

    @property
    def summary(self) -> dict:
        counts = {ring: 0 for ring in RING_BUCKETS}
        disagreements = 0
        for row in self.rows:
            counts[row.ring] += 1
            if row.agreement == "disagrees":
                disagreements += 1
        return {"rows": len(self.rows), "rings": counts,
                "disagreements": disagreements,
                "internal_errors": len(self.internal_errors)}

    @property
    def ledger(self) -> list[dict]:
        out = []
        for row in self.rows:
            if row.agreement != "disagrees":
                continue
            computed = row.ring
            if computed == "undetermined":
                computed = (f"undetermined (tangent {row.tangent_dim}, "
                            f"census {row.census})")
            out.append({"algebra": row.algebra, "word": row.word,
                        "computed": computed, "published": row.published})
        return out

    def as_dict(self) -> dict:
        return {"q": self.q, "max_len": self.max_len, "n_max": self.n_max,
                "rows": [r.as_dict() for r in self.rows],
                "summary": self.summary,
                "ledger": self.ledger,
                "internal_errors": list(self.internal_errors)}


def _sweep_one(name: str, p: Presentation, w, q: int, n_max: int,
               budget: int, report: SweepReport) -> SweepRow | None:
    if not word_end_is_trivial(p, w):
        return None
    V = string_module(p, w, q)
    # The second derivation of membership; it also leaves the Hom
    # reduction that ext1_dim(V, V) reads in V's memo.
    if not end_is_trivial(V):
        report.internal_errors.append(
            f"{name} {w.display()}: End = k engines disagree "
            f"(word k, linear not k)")
        return None
    try:
        ext_brute = brute_force_ext(V, V, budget=budget)
    except BudgetExceededError:
        ext_brute = None
    try:
        d = _classify(V, n_max, budget)
        # The descriptor's tangent dimension is ext1_dim(V, V).
        ring, ext_linear, agreement, error = (
            d.ring, d.tangent_dim, d.paper_agreement, None)
        census = d.evidence["census"]
    except BudgetExceededError as err:
        ring, ext_linear, agreement, error = (
            "undetermined", ext1_dim(V, V), "not-stated", str(err))
        census = {"census": [], "matches": []}
    row = SweepRow(
        algebra=name, word=w.display(), total_dim=V.total_dim, ring=ring,
        tangent_dim=ext_linear, ext_linear=ext_linear, ext_brute=ext_brute,
        census=census["census"], matches=census["matches"],
        published=claims.published_ring(p, w), agreement=agreement,
        error=error)
    if ext_brute is not None and ext_brute != ext_linear:
        report.internal_errors.append(
            f"{name} {w.display()}: ext engines disagree "
            f"(linear {ext_linear}, brute {ext_brute})")
    return row


def sweep_catalog(q: int = 2, max_len: int = 6, n_max: int = 3,
                  budget: int = DEFAULT_BUDGET,
                  names=None) -> SweepReport:
    """Classify every trivial-endomorphism string module in the catalog.

    Strings come from `enumerate_strings`; the word engine picks the
    rows and the linear engine re-derives End = k on each of them (see
    the module docstring).

    `names` restricts the sweep to the named catalog algebras; an empty
    sequence yields an empty report.  Rows come out sorted by algebra
    name and then by the enumeration order of the words (length, then
    letters), so a fixed configuration always produces the same report.
    """
    catalog = table1_catalog()
    if names is not None:
        wanted = list(names)
        unknown = sorted(set(wanted) - {name for name, _ in catalog})
        if unknown:
            raise ValueError("unknown catalog algebras: "
                             + ", ".join(map(repr, unknown)))
        catalog = [(name, p) for name, p in catalog if name in wanted]
    report = SweepReport(q=q, max_len=max_len, n_max=n_max)
    for name, p in catalog:
        for w in enumerate_strings(p, max_len):
            row = _sweep_one(name, p, w, q, n_max, budget, report)
            if row is not None:
                report.rows.append(row)
    return report
