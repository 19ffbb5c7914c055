"""Gaussian/remainder splitting and full-functional decomposition attempts.

The remainder subspace H_R is the smallest invariant subspace containing
all images (pi(l) - eps(l)) e_i, which is their span (`invariant_closure`
says why; `tests/helpers.py` keeps the closure loop as a reference).  Its
orthocomplement H_G carries the Gaussian part.  Both parts live in the
ambient coordinates as the projected cocycles: P_G eta is a cocycle for
the counit representation, that is, a derivation, and P_R eta one for the
cocycle's own representation (`tests/helpers.py` keeps the parts in
coordinates of their own as a reference).  A functional decomposes when
both projected cocycles admit generating functionals; the leftover
difference is then a purely imaginary derivation which is absorbed into
the Gaussian part.
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
from .linalg import IndefiniteFormError
from .presentations import letter_str
from .scalars import scaled_residual, unscaled


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


class SplitResult(NamedTuple):
    """The orthogonal projections onto H_G and H_R and the two projected
    cocycles, all in the ambient coordinates."""
    p_g: tuple
    p_r: tuple
    remainder_basis: tuple  # echelon basis of H_R
    gaussian: Cocycle       # P_G eta, for the counit representation
    remainder: Cocycle      # P_R eta, for the cocycle's own representation

    @property
    def dim_remainder(self) -> int:
        return len(self.remainder_basis)

    @property
    def dim_gaussian(self) -> int:
        return len(self.p_g) - self.dim_remainder

    def to_json(self):
        return {
            "dim_gaussian": self.dim_gaussian,
            "dim_remainder": self.dim_remainder,
            "P_G": linalg.matrix_to_json(self.p_g),
            "P_R": linalg.matrix_to_json(self.p_r),
            "remainder_basis": [linalg.vector_to_json(v)
                                for v in self.remainder_basis],
        }


def split(cocycle: Cocycle) -> SplitResult:
    """Split a cocycle into its Gaussian and remainder parts.

    Requires a positive definite form, on which H_G is exactly the
    orthocomplement of H_R.  Both parts are the projected cocycles P eta on
    the ambient form: P_R commutes with pi, so P_R eta is a cocycle for the
    cocycle's own representation, and the Gaussian part is built for the
    counit representation, which certifies that P_G eta is a derivation.
    """
    representation = cocycle.representation
    p, form = representation.presentation, representation.form
    if not form.definite:
        raise IndefiniteFormError("splitting needs a positive definite form")
    n = form.dim
    basis = tuple(invariant_closure(representation))
    p_r = linalg.zero_matrix(n, n)
    if basis:
        # P_R = B (B*GB)^-1 B*G for the columns B of the basis
        b = linalg.from_columns(basis)
        bh_g = linalg.mmul(linalg.conj_transpose(b), form.gram)
        p_r = linalg.mmul(b, linalg.mmul(
            linalg.inverse(linalg.mmul(bh_g, b)), bh_g))
    p_g = linalg.msub(linalg.identity(n), p_r)

    def projected(rep, proj):
        return Cocycle(rep, {letter_str(p.kind, l): linalg.mvmul(proj, v)
                             for l, v in cocycle.values.items()})

    return SplitResult(
        p_g=p_g, p_r=p_r, remainder_basis=basis,
        gaussian=projected(trivial_representation(p, form), p_g),
        remainder=projected(representation, p_r))


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
    out_g = solve_generating_functional(sr.gaussian)
    out_r = solve_generating_functional(sr.remainder)
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
