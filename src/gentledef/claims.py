"""Published classification claims and the agreement verdict.

The reference classification names a specific ring for each of the ten
trivial-endomorphism string modules of the worked example algebra, and
asserts for every algebra in the catalog that such rings fall in the
trichotomy k, k[[t]]/(t^2), k[[t]].  Computed results are compared
against the specific table when the input matches the worked example
and against the trichotomy otherwise.  The table itself lives in
data/claims.json so the comparison stays auditable.
"""

from __future__ import annotations

import json
from importlib import resources

from .presentation import LAMBDA0, Presentation, catalog_presentation
from .strings import StringWord


def _load_claims() -> dict:
    path = resources.files("gentledef").joinpath("data/claims.json")
    return json.loads(path.read_text())


_CLAIMS = _load_claims()

CLASSIFIED_RINGS = {word: entry["ring"]
                    for word, entry in _CLAIMS["rings"].items()}

TRICHOTOMY_RINGS = tuple(_CLAIMS["trichotomy"]["rings"])

# The worked example whose table `published_ring` reads.
_WORKED_EXAMPLE = catalog_presentation(LAMBDA0)


def _same_presentation(p: Presentation, ref: Presentation) -> bool:
    return (set(p.quiver.vertices) == set(ref.quiver.vertices)
            and set(p.quiver.arrows) == set(ref.quiver.arrows)
            and p.relation_set == ref.relation_set)


def published_ring(p: Presentation, w: StringWord) -> str | None:
    """The ring the published table assigns to M[w], or None."""
    if not _same_presentation(p, _WORKED_EXAMPLE):
        return None
    return CLASSIFIED_RINGS.get(w.canonical().display())


def paper_agreement(p: Presentation, w: StringWord, ring: str,
                    tangent_dim: int,
                    census_unique: str | None = None) -> str:
    """Verdict comparing a computed ring with the published claims.

    `ring` is the computed descriptor ("undetermined" when the decision
    procedure could not certify one); `census_unique` is the single ring
    matching the lift census when that match is unique, else None.
    Off the worked example a certified ring agrees exactly when it is
    one of `TRICHOTOMY_RINGS`.
    """
    claim = published_ring(p, w)
    if claim is not None:
        if ring != "undetermined":
            return "agrees" if ring == claim else "disagrees"
        if tangent_dim >= 2:
            return "disagrees"
        if census_unique is None:
            return "not-stated"
        return "agrees" if census_unique == claim else "disagrees"
    if ring != "undetermined":
        return "agrees" if ring in TRICHOTOMY_RINGS else "disagrees"
    if tangent_dim >= 2:
        return "disagrees"
    return "not-stated"
