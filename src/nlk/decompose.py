"""Gaussian/remainder splitting and full-functional decomposition attempts.

The remainder subspace is the smallest invariant subspace containing all
images (pi(l) - eps(l)) e_i, which is their span (`invariant_closure`
says why; `tests/helpers.py` keeps the closure loop as a reference).  Its
orthocomplement carries the Gaussian part: projecting a cocycle there
yields a cocycle for the counit representation, that is, a derivation.
A functional decomposes when both projected cocycles admit generating
functionals; the leftover difference is then a purely imaginary
derivation which is absorbed into the Gaussian part.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .cocycles import Cocycle, Representation, trivial_representation
from .functionals import (
    GroupFunctional,
    SolveOutcome,
    solve_generating_functional,
)
from .linalg import HermitianForm, IndefiniteFormError
from .presentations import letter_str
from .scalars import scaled, scaled_product, scaled_residual, unscaled


def invariant_closure(representation: Representation) -> list:
    """Echelon basis of the smallest invariant subspace containing all
    (pi(l) - eps(l)) basis vectors, for every letter l of the alphabet.

    That is the span S of those vectors itself.  The alphabet is closed
    under the star, pi(l*) is the form-adjoint of pi(l) (by construction
    for inverse and starred letters, by validation for a generator the
    involution renames) and eps(l*) = conj eps(l) (a *-character), so the
    orthocomplement of S is {v : pi(l) v = eps(l) v for all l}.  That
    space is invariant, and on an invertible form so is its
    orthocomplement S.
    """
    p = representation.presentation
    one = representation._word_scaled(())
    seeds = []
    for l in p.alphabet():
        shifted = scaled_residual(representation._scaled(l), one,
                                  p.epsilon_letter(l))
        if shifted is not None:
            seeds.extend(zip(*unscaled(shifted)))
    return linalg.span_basis(seeds)


class PartSpace(NamedTuple):
    """One side of the splitting, in its own coordinates."""
    basis: tuple          # columns in the ambient space
    form: HermitianForm   # Gram matrix of the basis
    coords: tuple         # coordinate map, k x dim
    representation: Representation
    cocycle: Cocycle

    @property
    def dim(self) -> int:
        return self.form.dim


class SplitResult(NamedTuple):
    representation: Representation
    cocycle: Cocycle
    p_g: tuple
    p_r: tuple
    gaussian: PartSpace
    remainder: PartSpace

    def to_json(self):
        return {
            "dim_gaussian": self.gaussian.dim,
            "dim_remainder": self.remainder.dim,
            "P_G": linalg.matrix_to_json(self.p_g),
            "P_R": linalg.matrix_to_json(self.p_r),
            "remainder_basis": [linalg.vector_to_json(v)
                                for v in self.remainder.basis],
        }


def _part_space(representation, cocycle, basis_vectors, trivial: bool) -> PartSpace:
    p = representation.presentation
    form = representation.form
    basis = tuple(basis_vectors)
    letters = list(cocycle.values)  # the letters that carry values
    # an empty part has no coordinates: its images and values are empty
    images, values = dict.fromkeys(p.generators, ()), [()] * len(letters)
    if basis:
        # Gram matrix B*GB of the basis; the coordinate map of the orthogonal
        # projection onto span(B) is (B*GB)^-1 B*G, from the part form's inverse
        b = linalg.from_columns(basis)
        bh_g = linalg.mmul(linalg.conj_transpose(b), form.gram)
        part_form = HermitianForm(linalg.mmul(bh_g, b))
        # the coordinate map stays scaled for the products below, each of
        # which takes its gcds once, when it is unscaled
        scaled_coords = scaled_product(part_form.scaled_gram_inv, scaled(bh_g))
        coords = unscaled(scaled_coords)
        values = linalg.columns(unscaled(scaled_product(scaled_coords, scaled(
            linalg.from_columns(list(cocycle.values.values()),
                                rows_hint=form.dim)))))
        if not trivial:
            scaled_b = scaled(b)
            images = {g: unscaled(scaled_product(scaled_coords, scaled_product(
                scaled(representation.images[g]), scaled_b)))
                for g in p.generators}
    else:
        part_form, coords = HermitianForm(()), ()
    part_rep = (trivial_representation(p, part_form) if trivial
                else Representation(p, part_form, images))
    part_cocycle = Cocycle(part_rep, {letter_str(p.kind, l): v
                                      for l, v in zip(letters, values)})
    return PartSpace(basis=basis, form=part_form, coords=coords,
                     representation=part_rep, cocycle=part_cocycle)


def split(cocycle: Cocycle) -> SplitResult:
    """Split a cocycle into its Gaussian and remainder parts.

    Requires a positive definite form.  Both parts are returned in their own
    coordinates together with the ambient projections; the Gaussian part's
    cocycle is built for the counit representation, which certifies that the
    projected values form a derivation.
    """
    representation = cocycle.representation
    form = representation.form
    if not form.definite:
        raise IndefiniteFormError("splitting needs a positive definite form")
    n = form.dim
    h_r = invariant_closure(representation)
    h_g = form.orthocomplement(h_r)
    gaussian = _part_space(representation, cocycle, h_g, trivial=True)
    remainder = _part_space(representation, cocycle, h_r, trivial=False)
    # the orthogonal projection onto H_R is B_R times its coordinate map
    p_r = (linalg.mmul(linalg.from_columns(h_r), remainder.coords) if h_r
           else linalg.zero_matrix(n, n))
    p_g = linalg.msub(linalg.identity(n), p_r)
    return SplitResult(representation=representation, cocycle=cocycle,
                       p_g=p_g, p_r=p_r, gaussian=gaussian, remainder=remainder)


# --- decomposition of a functional ---------------------------------


class DecompositionInconsistent(ValueError):
    """The real parts of the solved parts fail to split the functional's."""

    code = "DECOMPOSITION_INCONSISTENT"


class LkOutcome(NamedTuple):
    verdict: str  # "decomposed" | "no_lk"
    split_result: SplitResult
    gaussian_outcome: SolveOutcome
    remainder_outcome: SolveOutcome
    psi_gaussian: GroupFunctional | None
    psi_remainder: GroupFunctional | None
    derivation: dict | None  # generator -> purely imaginary correction

    @property
    def decomposed(self) -> bool:
        return self.verdict == "decomposed"

    def to_json(self):
        out = {
            "verdict": self.verdict,
            "split": self.split_result.to_json(),
            "parts": {
                "gaussian": self.gaussian_outcome.to_json(),
                "remainder": self.remainder_outcome.to_json(),
            },
        }
        if self.decomposed:
            out["psi_gaussian"] = self.psi_gaussian.to_json()["psi"]
            out["psi_remainder"] = self.psi_remainder.to_json()["psi"]
            out["derivation_correction"] = {
                g: str(v) for g, v in sorted(self.derivation.items())}
        else:
            out["psi_gaussian"] = None
            out["psi_remainder"] = None
            out["derivation_correction"] = None
        return out


def attempt_lk(functional: GroupFunctional) -> LkOutcome:
    """Try to decompose a verified functional along the cocycle splitting.

    Solves for generating functionals of both projected cocycles.  On double
    success the difference d(g) = psi(g) - psi_G(g) - psi_R(g) is a purely
    imaginary derivation; it is added to the Gaussian part so that
    psi = psi_G + psi_R holds exactly on generators.
    """
    cocycle = functional.cocycle
    p = cocycle.presentation
    sr = split(cocycle)
    out_g = solve_generating_functional(sr.gaussian.cocycle)
    out_r = solve_generating_functional(sr.remainder.cocycle)
    if not (out_g.feasible and out_r.feasible):
        return LkOutcome(verdict="no_lk", split_result=sr,
                         gaussian_outcome=out_g, remainder_outcome=out_r,
                         psi_gaussian=None, psi_remainder=None, derivation=None)
    psi_g = out_g.functional
    psi_r = out_r.functional
    derivation = {}
    adjusted = {}
    for g in p.generators:
        d = functional.values[g] - psi_g.values[g] - psi_r.values[g]
        if d.re != 0:
            raise DecompositionInconsistent(
                f"real parts failed to split on generator {g}: leftover {d}")
        derivation[g] = d
        adjusted[g] = psi_g.values[g] + d
    # the arithmetic is exact, so (psi_G + d) + psi_R is psi on generators
    return LkOutcome(verdict="decomposed", split_result=sr,
                     gaussian_outcome=out_g, remainder_outcome=out_r,
                     psi_gaussian=GroupFunctional(psi_g.cocycle, adjusted),
                     psi_remainder=psi_r, derivation=derivation)


# --- property bookkeeping ------------------------------------------


PROPERTIES = ("LK", "GC", "NC", "AC", "H2Z")

WITNESSED_FALSE = "WITNESSED_FALSE"
CHECKED_TRUE_FINITE = "CHECKED_TRUE_FINITE"
PAPER_CLAIM_TRUE = "PAPER_CLAIM_TRUE"
PAPER_CLAIM_FALSE = "PAPER_CLAIM_FALSE"

TRUE_VERDICTS = {CHECKED_TRUE_FINITE, PAPER_CLAIM_TRUE}
FALSE_VERDICTS = {WITNESSED_FALSE, PAPER_CLAIM_FALSE}

# P -> Q: an algebra with property P also has property Q
IMPLICATIONS = (
    ("H2Z", "AC"),
    ("AC", "GC"),
    ("AC", "NC"),
    ("GC", "LK"),
    ("NC", "LK"),
)


def _chained(pairs) -> tuple:
    """pairs followed by every implication they chain to (transitive closure)."""
    out = list(pairs)
    for p, q in out:  # pairs appended here are extended in turn
        for q2, r in pairs:
            if q2 == q and (p, r) not in out:
                out.append((p, r))
    return tuple(out)


_ALL_IMPLICATIONS = _chained(IMPLICATIONS)


class _PropertyFields(NamedTuple):
    algebra: str
    property: str
    verdict: str
    evidence: dict

    def to_json(self):
        return self._asdict()


class PropertyReport(_PropertyFields):
    """A verdict on one property; unknown ones raise, also in _replace."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, algebra, property, verdict, evidence):
        if property not in PROPERTIES:
            raise ValueError(f"unknown property {property!r}")
        if verdict not in TRUE_VERDICTS | FALSE_VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        return super().__new__(cls, algebra, property, verdict, evidence)


def check_diagram_consistency(reports) -> list:
    """Cross-check verdicts against the implication diagram.

    Returns a list of conflict descriptions; empty means consistent.  A
    conflict is an algebra asserted to have a property while lacking one that
    it implies, directly or through a chain of implications.
    """
    by_algebra = {}
    for r in reports:
        by_algebra.setdefault(r.algebra, {})[r.property] = r.verdict
    conflicts = []
    for algebra, verdicts in sorted(by_algebra.items()):
        for p, q in _ALL_IMPLICATIONS:
            if (verdicts.get(p) in TRUE_VERDICTS
                    and verdicts.get(q) in FALSE_VERDICTS):
                conflicts.append(
                    f"{algebra}: {p} is {verdicts[p]} but implied {q} "
                    f"is {verdicts[q]}")
    return conflicts
