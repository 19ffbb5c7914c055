"""Generating functionals: folding, solving, verification, GNS truncation.

For group presentations a functional is determined by its generator values;
hermitianity forces psi(g^-1) = conj(psi(g)) and the norm identity forces
Re psi(g) = -1/2 <eta(g), eta(g)>, leaving the imaginary parts as the only
unknowns.  Existence is decided by folding psi along each relator and solving
the resulting rational linear system in those imaginary parts.

For star-algebra presentations functionals are explicit monomial tables and
are verified, not solved for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cocycles import Cocycle, exponent_matrix, fold_suffixes
from .linalg import IndefiniteFormError
from .presentations import (
    GROUP,
    STAR_ALGEBRA,
    AlgebraElement,
    Presentation,
    kn_spanning_set,
    word_key,
    word_to_strs,
)
from .scalars import I, ONE, ZERO, Scalar


class NoNormalForm(ValueError):
    code = "NO_NORMAL_FORM"


# --- functionals ----------------------------------------------------


class GroupFunctional:
    """psi on a group presentation, determined by generator values."""

    def __init__(self, cocycle: Cocycle, values):
        if cocycle.presentation.kind != GROUP:
            raise ValueError("GroupFunctional needs a group presentation")
        self.cocycle = cocycle
        self.presentation = cocycle.presentation
        self.values = {g: Scalar.coerce(values.get(g, ZERO))
                       for g in self.presentation.generators}
        unknown = set(values) - set(self.presentation.generators)
        if unknown:
            raise ValueError(f"psi values name unknown generators {sorted(unknown)}")
        self._psi_memo = {(): ZERO}

    kind = GROUP

    def psi_letter(self, letter) -> Scalar:
        name, tag = letter
        v = self.values[name]
        return v if tag == 1 else v.conj()

    def fold(self, word) -> Scalar:
        """psi(w) by psi(l w) = psi(l) + <eta(l^-1), eta(w)> + psi(w).

        psi is memoised per suffix on this functional for as long as the
        functional lives, and eta(w) comes from the cocycle's own memo.
        Accepts unreduced words; the result only depends on the group
        element when the cocycle data respects the relators.
        """
        return fold_suffixes(self._psi_memo, word, self._psi_step)

    def _psi_step(self, letter, tail, tail_psi):
        cocycle = self.cocycle
        inv_letter = (letter[0], -letter[1])
        return (self.psi_letter(letter)
                + cocycle.form.inner(cocycle.letter_value(inv_letter),
                                     cocycle.eval_word(tail))
                + tail_psi)

    def psi_word(self, word) -> Scalar:
        return self.fold(word)

    def eval_element(self, element: AlgebraElement) -> Scalar:
        out = ZERO
        for w, c in element.terms.items():
            out = out + c * self.fold(w)
        return out

    def with_values(self, values) -> "GroupFunctional":
        return GroupFunctional(self.cocycle, values)

    def to_json(self):
        return {"psi": {g: str(self.values[g])
                        for g in self.presentation.generators}}


class StarFunctional:
    """psi on a star-algebra presentation, given as a monomial table.

    Words missing from the table take the value 0; keys must be canonical
    words, and the empty word may not carry a nonzero value.
    """

    def __init__(self, presentation: Presentation, table):
        if presentation.kind != STAR_ALGEBRA:
            raise ValueError("StarFunctional needs a star-algebra presentation")
        self.presentation = presentation
        canon = {}
        for word, value in table.items():
            word = tuple(word)
            value = Scalar.coerce(value)
            c, red = presentation.reduce(word)
            if (c, red) != (ONE, word):
                raise ValueError(
                    f"table key {word_to_strs(STAR_ALGEBRA, word)} is not in "
                    f"canonical form")
            if not word and not value.is_zero():
                raise ValueError("psi(1) must be 0")
            if not value.is_zero():
                canon[word] = value
        self.table = canon

    kind = STAR_ALGEBRA

    def psi_word(self, word) -> Scalar:
        c, red = self.presentation.reduce(word)
        return c * self.table.get(red, ZERO)

    def eval_element(self, element: AlgebraElement) -> Scalar:
        out = ZERO
        for w, coeff in element.terms.items():
            out = out + coeff * self.table.get(w, ZERO)
        return out

    def to_json(self):
        keys = sorted(self.table, key=lambda w: (len(w), w))
        return {"table": {word_key(STAR_ALGEBRA, w): str(self.table[w])
                          for w in keys}}


# --- existence solver ----------------------------------------------


@dataclass(frozen=True)
class RelatorReading:
    relator: tuple
    k_r: Scalar
    re_violation: bool

    def to_json(self):
        return {"relator": word_to_strs(GROUP, self.relator),
                "K_r": str(self.k_r),
                "re_violation": self.re_violation}


@dataclass(frozen=True)
class SolveOutcome:
    verdict: str  # "feasible" | "infeasible"
    functional: GroupFunctional | None
    ambiguity_dim: int | None
    readings: tuple
    system_matrix: tuple  # exponent sums, relators x generators
    system_rhs: tuple     # -Im K_r per relator
    certificate: tuple | None  # left combination lam with lam@A=0, lam@rhs != 0

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"

    def to_json(self):
        out = {
            "verdict": self.verdict,
            "ambiguity_dim": self.ambiguity_dim,
            "obstructions": [r.to_json() for r in self.readings],
            "system": {
                "matrix": linalg.matrix_to_json(self.system_matrix),
                "rhs": linalg.vector_to_json(self.system_rhs),
            },
            "certificate": (None if self.certificate is None
                            else linalg.vector_to_json(self.certificate)),
        }
        if self.functional is not None:
            out.update(self.functional.to_json())
        else:
            out["psi"] = None
        return out


def forced_real_parts(cocycle: Cocycle) -> dict:
    out = {}
    for g in cocycle.presentation.generators:
        norm = cocycle.form.norm_sq(cocycle.letter_value((g, 1)))
        out[g] = Scalar(Fraction(-1, 2) * norm.re, 0)
    return out


def solve_generating_functional(cocycle: Cocycle) -> SolveOutcome:
    """Decide whether a generating functional exists for a group cocycle.

    Fixes the forced real parts, folds each relator with imaginary parts set
    to zero, and solves the exponent-sum system for the imaginary parts.
    """
    p = cocycle.presentation
    if p.kind != GROUP:
        raise ValueError("the solver works on group presentations")
    if not cocycle.form.definite:
        raise IndefiniteFormError(
            "solving requires a positive definite form")
    rho = forced_real_parts(cocycle)
    base = GroupFunctional(cocycle, rho)
    readings = []
    any_re_violation = False
    for r in p.relators:
        k_r = base.fold(r)
        re_bad = k_r.re != 0
        any_re_violation = any_re_violation or re_bad
        readings.append(RelatorReading(relator=r, k_r=k_r, re_violation=re_bad))
    a_mat = exponent_matrix(p)
    rhs = tuple(Scalar(-rd.k_r.im, 0) for rd in readings)
    if any_re_violation:
        return SolveOutcome(
            verdict="infeasible", functional=None, ambiguity_dim=None,
            readings=tuple(readings), system_matrix=a_mat, system_rhs=rhs,
            certificate=None)
    solved = linalg.solve_linear(a_mat, rhs)
    if isinstance(solved, linalg.LinearInfeasible):
        return SolveOutcome(
            verdict="infeasible", functional=None, ambiguity_dim=None,
            readings=tuple(readings), system_matrix=a_mat, system_rhs=rhs,
            certificate=solved.certificate)
    t = solved.solution
    values = {g: rho[g] + I * t[i] for i, g in enumerate(p.generators)}
    functional = GroupFunctional(cocycle, values)
    return SolveOutcome(
        verdict="feasible", functional=functional,
        ambiguity_dim=len(solved.kernel_basis),
        readings=tuple(readings), system_matrix=a_mat, system_rhs=rhs,
        certificate=None)


def recheck_solve_certificate(outcome: SolveOutcome) -> bool:
    """Confirm an infeasibility verdict from its stored certificate alone."""
    if outcome.verdict != "infeasible":
        return False
    for rd in outcome.readings:
        if rd.re_violation:
            return rd.k_r.re != 0
    lam = outcome.certificate
    if lam is None:
        return False
    return certificate_defect(lam, outcome.system_matrix,
                              outcome.system_rhs) is None


def certificate_defect(lam, a_mat, rhs) -> str | None:
    """Why lam fails to certify that a_mat x = rhs has no solution, or None.

    A certificate is a left combination with lam a_mat = 0 and lam rhs != 0.
    """
    if len(lam) != len(a_mat):
        return "certificate has the wrong size"
    cols = len(a_mat[0]) if a_mat else 0
    for j in range(cols):
        s = ZERO
        for l, row in zip(lam, a_mat):
            s = s + l * row[j]
        if not s.is_zero():
            return "certificate does not annihilate the system"
    s = ZERO
    for l, b in zip(lam, rhs):
        s = s + l * b
    if s.is_zero():
        return "certificate does not contradict the right-hand side"
    return None


# --- triple verification -------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    counts: dict
    witness: dict | None

    def to_json(self):
        return {"passed": self.passed, "counts": dict(self.counts),
                "witness": self.witness}


def verify_schurmann_triple(cocycle: Cocycle, functional, max_len: int) -> VerifyReport:
    """Check the triple identities on all canonical words up to max_len.

    Checks, in order: psi(1) = 0; hermitianity psi(w*) = conj(psi(w)) for
    |w| <= max_len; the coboundary identity
    eps(a) psi(b) - psi(ab) + psi(a) eps(b) = -<eta(a*), eta(b)> for word
    pairs with |a| + |b| <= max_len; and the squared-norm identity
    psi(k* k) = <eta(k), eta(k)> for k = w - eps(w), |w| <= max_len // 2.
    Stops at the first violation.
    """
    p = cocycle.presentation
    form = cocycle.form
    counts = {"psi_at_one": 0, "hermitian": 0, "coboundary": 0, "positivity": 0}

    def fail(identity, detail):
        return VerifyReport(passed=False, counts=counts,
                            witness={"identity": identity, **detail})

    one_val = functional.eval_element(AlgebraElement.one(p))
    counts["psi_at_one"] = 1
    if not one_val.is_zero():
        return fail("psi_at_one", {"value": str(one_val)})

    words = p.words_up_to(max_len, include_empty=False)
    # all words here are monomials, so everything is cached per word and
    # products reduce to a single word rather than going through elements
    psi = {w: functional.psi_word(w) for w in words}
    psi[()] = ZERO
    eta = {w: cocycle.eval_word(w) for w in words}
    if p.kind == GROUP:
        one_s = Scalar.coerce(1)
        eps = {w: one_s for w in words}
    else:
        eps = {w: p._word_character(w) for w in words}
    stars = {w: p.involve_word(w) for w in words}

    def psi_product(w1, w2):
        if p.kind == GROUP:
            red = p.free_reduce(w1 + w2)
            cached = psi.get(red)
            return cached if cached is not None else functional.psi_word(red)
        coeff, red = p.reduce(w1 + w2)
        if coeff.is_zero():
            return ZERO
        cached = psi.get(red)
        if cached is None:
            cached = functional.psi_word(red)
        return coeff * cached

    for w in words:
        lhs = functional.psi_word(stars[w])
        rhs = psi[w].conj()
        counts["hermitian"] += 1
        if lhs != rhs:
            return fail("hermitian", {"word": word_to_strs(p.kind, w),
                                      "psi_star": str(lhs),
                                      "conj_psi": str(rhs)})

    eta_star = {w: cocycle.eval_word(stars[w]) for w in words}

    # words are shortest first: upto[k] counts those of length <= k
    upto = [0] * (max_len + 1)
    for w in words:
        upto[len(w)] += 1
    for k in range(1, max_len + 1):
        upto[k] += upto[k - 1]

    for wa in words:
        eps_a = eps[wa]
        psi_a = psi[wa]
        eta_star_a = eta_star[wa]
        for wb in words[:upto[max_len - len(wa)]]:
            lhs = eps_a * psi[wb] - psi_product(wa, wb) + psi_a * eps[wb]
            rhs = -form.inner(eta_star_a, eta[wb])
            counts["coboundary"] += 1
            if lhs != rhs:
                return fail("coboundary", {"a": word_to_strs(p.kind, wa),
                                           "b": word_to_strs(p.kind, wb),
                                           "lhs": str(lhs), "rhs": str(rhs)})

    for w in words:
        if len(w) > max_len // 2:
            continue
        # psi((w - eps(w))* (w - eps(w))) expanded through psi(1) = 0
        lhs = (psi_product(stars[w], w) - eps[w] * functional.psi_word(stars[w])
               - eps[w].conj() * psi[w])
        rhs = form.inner(eta[w], eta[w])
        counts["positivity"] += 1
        if lhs != rhs:
            return fail("positivity", {"word": word_to_strs(p.kind, w),
                                       "psi": str(lhs), "norm_sq": str(rhs)})

    return VerifyReport(passed=True, counts=counts, witness=None)


# --- Gaussianity ----------------------------------------------------


@dataclass(frozen=True)
class GaussianReport:
    gaussian: bool
    checked: int
    witness: AlgebraElement | None
    witness_value: Scalar | None

    def to_json(self):
        return {"gaussian": self.gaussian, "checked": self.checked,
                "witness": None if self.witness is None else self.witness.to_json(),
                "witness_value": (None if self.witness_value is None
                                  else str(self.witness_value))}


def is_gaussian_functional(functional, max_len: int) -> GaussianReport:
    """True when psi vanishes on the truncated span of triple kernel products."""
    p = functional.presentation
    checked = 0
    for el in kn_spanning_set(p, 3, max_len):
        value = functional.eval_element(el)
        checked += 1
        if not value.is_zero():
            return GaussianReport(gaussian=False, checked=checked,
                                  witness=el, witness_value=value)
    return GaussianReport(gaussian=True, checked=checked,
                          witness=None, witness_value=None)


# --- truncated GNS --------------------------------------------------


@dataclass(frozen=True)
class GnsResult:
    kind: str
    words: tuple
    gram: tuple
    rank: int
    psd: linalg.PsdResult
    eta_vectors: dict | None     # word -> coordinates over the pivot words
    pivot_words: tuple | None
    quotient_gram: tuple | None

    def to_json(self):
        return {
            "words": [word_to_strs(self.kind, w) for w in self.words],
            "gram": linalg.matrix_to_json(self.gram),
            "rank": self.rank,
            "psd": self.psd.psd,
            "psd_witness": (None if self.psd.witness is None
                            else linalg.vector_to_json(self.psd.witness)),
            "pivot_words": (None if self.pivot_words is None
                            else [word_to_strs(self.kind, w)
                                  for w in self.pivot_words]),
        }


def gns_truncated(functional, max_len: int) -> GnsResult:
    """Gram matrix of the kernel elements w - eps(w) under psi(a* b).

    Needs psi defined up to word length 2 * max_len.  Returns the exact Gram
    matrix, its rank, a semidefiniteness verdict with witness, and, when
    semidefinite, the classes of the words expressed over a maximal
    independent subset (these are the truncated GNS vectors of eta).
    """
    p = functional.presentation
    words = tuple(p.words_up_to(max_len, include_empty=False))
    one = AlgebraElement.one(p)
    kernels = []
    for w in words:
        el = AlgebraElement.from_word(p, w)
        kernels.append(el - one.scale(el.epsilon()))
    n = len(words)
    gram = tuple(
        tuple(functional.eval_element(kernels[i].star() * kernels[j])
              for j in range(n))
        for i in range(n))
    rank = linalg.rank(gram) if n else 0
    psd = linalg.psd_check(gram)
    if not psd.psd:
        return GnsResult(kind=p.kind, words=words, gram=gram, rank=rank, psd=psd,
                         eta_vectors=None, pivot_words=None, quotient_gram=None)
    pivot_idx = linalg.independent_subset(linalg.columns(gram)) if n else []
    gpp = tuple(tuple(gram[i][j] for j in pivot_idx) for i in pivot_idx)
    eta_vectors = {}
    for j, w in enumerate(words):
        rhs = tuple(gram[i][j] for i in pivot_idx)
        if pivot_idx:
            solved = linalg.solve_linear(gpp, rhs)
            eta_vectors[w] = solved.solution
        else:
            eta_vectors[w] = ()
    return GnsResult(kind=p.kind, words=words, gram=gram, rank=rank, psd=psd,
                     eta_vectors=eta_vectors,
                     pivot_words=tuple(words[i] for i in pivot_idx),
                     quotient_gram=gpp)


# --- brute-force oracle --------------------------------------------


class AbelianExponents:
    """Normal form for presentations whose group is free abelian."""

    name = "abelian"

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        self._order = {g: i for i, g in enumerate(presentation.generators)}

    def key(self, word):
        counts = [0] * len(self._order)
        for name, tag in word:
            counts[self._order[name]] += tag
        return tuple(counts)


class P2NormalForm:
    """Normal form for the rotation wallpaper group.

    Elements are pairs (s, t) with s a flip bit and t an integer translation
    vector, multiplying by (s1,t1)(s2,t2) = (s1+s2 mod 2, t1 + (-1)^s1 t2).
    """

    name = "p2"

    def __init__(self, presentation, a="a", b="b", r="r"):
        self.presentation = presentation
        self._letters = {}
        for name, vec in ((a, (1, 0)), (b, (0, 1))):
            self._letters[(name, 1)] = (0, vec)
            self._letters[(name, -1)] = (0, (-vec[0], -vec[1]))
        self._letters[(r, 1)] = (1, (0, 0))
        self._letters[(r, -1)] = (1, (0, 0))
        if not set(n for n, _ in self._letters) <= set(presentation.generators):
            raise NoNormalForm("normal form names generators the presentation lacks")

    def key(self, word):
        s, (m, n) = 0, (0, 0)
        for l in word:
            s2, (dm, dn) = self._letters[l]
            sign = -1 if s else 1
            m, n = m + sign * dm, n + sign * dn
            s = (s + s2) % 2
        return (s, m, n)


def build_normal_form(presentation, config):
    if config is None:
        raise NoNormalForm("no normal form configured for this presentation")
    kind = config.get("kind") if isinstance(config, dict) else config
    if kind == "abelian":
        nf = AbelianExponents(presentation)
    elif kind == "p2":
        args = config if isinstance(config, dict) else {}
        nf = P2NormalForm(presentation,
                          a=args.get("a", "a"), b=args.get("b", "b"),
                          r=args.get("r", "r"))
    else:
        raise NoNormalForm(f"unknown normal form {kind!r}")
    ident = nf.key(())
    for rel in presentation.relators:
        if nf.key(rel) != ident:
            raise NoNormalForm(
                f"normal form does not kill relator {word_to_strs(GROUP, rel)}")
    return nf


@dataclass(frozen=True)
class OracleReport:
    passed: bool
    words: int
    pairs: int
    counterexample: dict | None

    def to_json(self):
        return {"passed": self.passed, "words": self.words, "pairs": self.pairs,
                "counterexample": self.counterexample}


def brute_force_welldefinedness_oracle(cocycle: Cocycle | None,
                                       functional: GroupFunctional | None,
                                       presentation: Presentation,
                                       normal_form,
                                       max_len: int) -> OracleReport:
    """Compare fold values across all word pairs naming the same group element.

    Enumerates freely reduced words up to max_len, buckets them by the
    configured normal form, and checks that the cocycle fold and the psi fold
    agree within each bucket.  Returns the first disagreement found.
    """
    if presentation.kind != GROUP:
        raise NoNormalForm("the oracle needs a group presentation")
    buckets = {}
    words = presentation.words_up_to(max_len, include_empty=True)
    for w in words:
        buckets.setdefault(normal_form.key(w), []).append(w)
    # the word list is suffix-closed and both evaluators memoise per suffix,
    # so every word costs one step of each fold
    pairs = 0
    for key in buckets:
        group_words = buckets[key]
        rep_word = group_words[0]
        eta_ref = cocycle.eval_word(rep_word) if cocycle is not None else None
        psi_ref = functional.fold(rep_word) if functional is not None else None
        for w in group_words[1:]:
            pairs += 1
            if cocycle is not None:
                ev = cocycle.eval_word(w)
                if ev != eta_ref:
                    return OracleReport(
                        passed=False, words=len(words), pairs=pairs,
                        counterexample={
                            "evaluator": "cocycle",
                            "word_a": word_to_strs(GROUP, rep_word),
                            "word_b": word_to_strs(GROUP, w),
                            "value_a": linalg.vector_to_json(eta_ref),
                            "value_b": linalg.vector_to_json(ev)})
            if functional is not None:
                pv = functional.fold(w)
                if pv != psi_ref:
                    return OracleReport(
                        passed=False, words=len(words), pairs=pairs,
                        counterexample={
                            "evaluator": "psi",
                            "word_a": word_to_strs(GROUP, rep_word),
                            "word_b": word_to_strs(GROUP, w),
                            "value_a": str(psi_ref),
                            "value_b": str(pv)})
    return OracleReport(passed=True, words=len(words), pairs=pairs,
                        counterexample=None)
