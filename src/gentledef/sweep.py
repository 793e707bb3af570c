"""Catalog-wide classification with a disagreement ledger.

Every trivial-endomorphism string module up to a length bound, over
every algebra in the catalog, gets one row: tangent dimension by both
ext engines, the computed ring with its lift census, and the verdict
against the published classification.  Disagreements are findings, not
failures; only cross-engine mismatches count as internal errors.
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
from .presentation import Presentation, table1_catalog
from .strings import enumerate_strings, string_module
from .udr import _classify

RING_BUCKETS = ("k", "k[[t]]/(t^2)", "k[[t]]", "undetermined")


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
    V = string_module(p, w, q)
    if not end_is_trivial(V):
        return None
    try:
        ext_brute = brute_force_ext(V, V, budget=budget)
    except BudgetExceededError:
        ext_brute = None
    try:
        d = _classify(p, w, V, n_max, budget)
        # The descriptor's tangent dimension is ext1_dim(V, V).
        ext_linear = d.tangent_dim
        census = d.evidence["census"]
        row = SweepRow(
            algebra=name, word=w.display(), total_dim=V.total_dim,
            ring=d.ring, tangent_dim=d.tangent_dim,
            ext_linear=ext_linear, ext_brute=ext_brute,
            census=census["census"], matches=census["matches"],
            published=claims.published_ring(p, w),
            agreement=d.paper_agreement)
    except BudgetExceededError as err:
        ext_linear = ext1_dim(V, V)
        row = SweepRow(
            algebra=name, word=w.display(), total_dim=V.total_dim,
            ring="undetermined", tangent_dim=ext_linear,
            ext_linear=ext_linear, ext_brute=ext_brute,
            census=[], matches=[],
            published=claims.published_ring(p, w),
            agreement="not-stated", error=str(err))
    if ext_brute is not None and ext_brute != ext_linear:
        report.internal_errors.append(
            f"{name} {w.display()}: ext engines disagree "
            f"(linear {ext_linear}, brute {ext_brute})")
    return row


def sweep_catalog(q: int = 2, max_len: int = 6, n_max: int = 3,
                  budget: int = DEFAULT_BUDGET,
                  names=None) -> SweepReport:
    """Classify every trivial-endomorphism string module in the catalog.

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
            raise ValueError(f"unknown catalog algebras: {', '.join(unknown)}")
        catalog = [(name, p) for name, p in catalog if name in wanted]
    report = SweepReport(q=q, max_len=max_len, n_max=n_max)
    for name, p in catalog:
        for w in enumerate_strings(p, max_len):
            row = _sweep_one(name, p, w, q, n_max, budget, report)
            if row is not None:
                report.rows.append(row)
    return report
