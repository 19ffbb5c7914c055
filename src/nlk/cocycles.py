"""Representations on hermitian-form spaces, cocycles, and their 2-cochains.

A representation assigns a matrix to each generator and must respect the
involution (images of starred letters are form-adjoints) and every defining
relation.  A cocycle assigns a vector to each letter and extends through
eta(ab) = pi(a) eta(b) + eta(a) eps(b); well-definedness is checked on the
finite relation set, with exact residuals reported on failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .presentations import (
    GROUP,
    STAR_ALGEBRA,
    AlgebraElement,
    Tensor2,
    letter_str,
    word_to_strs,
)
from .scalars import ONE, ZERO, Scalar


@dataclass(frozen=True)
class Violation:
    code: str
    target: str
    residual: object  # matrix or vector of Scalar, already exact
    message: str

    def to_json(self):
        if self.residual is None:
            res = None
        elif self.residual and isinstance(self.residual[0], tuple):
            res = linalg.matrix_to_json(self.residual)
        else:
            res = linalg.vector_to_json(self.residual)
        return {"code": self.code, "target": self.target,
                "residual": res, "message": self.message}


class RepresentationError(ValueError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class CocycleObstructed(ValueError):
    code = "COCYCLE_OBSTRUCTED"

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(v.message for v in self.violations))


def fold_suffixes(memo, word, step):
    """memo[word], filling in every missing suffix on the way.

    memo maps words to values and must hold the empty word.  Each missing
    suffix l + w is set to step(l, w, memo[w]), shortest first, in one loop
    without recursion, so a word whose tail is already known costs one step.
    The memo belongs to the caller, who decides its lifetime.
    """
    word = tuple(word)
    hit = memo.get(word)
    if hit is not None:
        return hit
    start = 1
    while (value := memo.get(word[start:])) is None:
        start += 1
    for i in range(start - 1, -1, -1):
        value = step(word[i], word[i + 1:], value)
        memo[word[i:]] = value
    return value


class Representation:
    """Validated unital *-representation given by generator images."""

    def __init__(self, presentation, form, images, _validated=False):
        self.presentation = presentation
        self.form = form
        self.images = {g: linalg.matrix(m) for g, m in images.items()}
        self._letter_cache = {}
        if not _validated:
            violations = self._validate()
            if violations:
                raise RepresentationError(violations)

    def _validate(self):
        p = self.presentation
        out = []
        gens = set(p.generators)
        if set(self.images) != gens:
            missing = sorted(gens - set(self.images))
            extra = sorted(set(self.images) - gens)
            out.append(Violation(
                code="NOT_STAR_COMPATIBLE", target=",".join(missing + extra),
                residual=None,
                message=f"images must cover exactly the generators; "
                        f"missing {missing}, unknown {extra}"))
            return out
        n = self.form.dim
        for g in p.generators:
            if linalg.mat_shape(self.images[g]) != (n, n):
                out.append(Violation(
                    code="NOT_STAR_COMPATIBLE", target=g, residual=None,
                    message=f"image of {g} is not {n}x{n}"))
        if out:
            return out
        if p.kind == GROUP:
            one = linalg.identity(n)
            for g in p.generators:
                m = self.images[g]
                adj = self.letter_matrix((g, -1))
                # a square matrix with a left inverse is invertible, so this
                # one product proves unitarity; elimination only diagnoses
                if linalg.mat_eq(linalg.mmul(adj, m), one):
                    continue
                if n > 0 and linalg.det(m).is_zero():
                    out.append(Violation(
                        code="NOT_STAR_COMPATIBLE", target=g, residual=None,
                        message=f"image of {g} is singular"))
                    continue
                inv = linalg.inverse(m)
                if not linalg.mat_eq(adj, inv):
                    out.append(Violation(
                        code="NOT_STAR_COMPATIBLE", target=g,
                        residual=linalg.msub(adj, inv),
                        message=f"image of {g} is not form-unitary"))
            if out:
                return out
            for r in p.relators:
                m = self.word_matrix(r)
                res = linalg.msub(m, one)
                if not linalg.is_zero_matrix(res):
                    out.append(Violation(
                        code="RELATION_VIOLATED",
                        target=" ".join(word_to_strs(GROUP, r)),
                        residual=res,
                        message=f"relator {word_to_strs(GROUP, r)} does not map "
                                f"to the identity"))
        else:
            for g in p.generators:
                starred = p.star_letter((g, 0))
                lhs = self.letter_matrix(starred)
                rhs = self.form.adjoint(self.letter_matrix((g, 0)))
                if not linalg.mat_eq(lhs, rhs):
                    out.append(Violation(
                        code="NOT_STAR_COMPATIBLE", target=g,
                        residual=linalg.msub(lhs, rhs),
                        message=f"image of {letter_str(STAR_ALGEBRA, starred)} is "
                                f"not the adjoint of the image of {g}"))
            if out:
                return out
            for rule in p.rules:
                lhs = self.word_matrix(rule.lhs)
                rhs = linalg.mscale(rule.coeff, self.word_matrix(rule.rhs))
                res = linalg.msub(lhs, rhs)
                if not linalg.is_zero_matrix(res):
                    out.append(Violation(
                        code="RELATION_VIOLATED",
                        target=" ".join(word_to_strs(STAR_ALGEBRA, rule.lhs)),
                        residual=res,
                        message=f"rule {word_to_strs(STAR_ALGEBRA, rule.lhs)} is "
                                f"not respected by the images"))
        return out

    def letter_matrix(self, letter):
        """pi(letter).

        Inverse group letters and starred letters map to the form-adjoint of
        the generator's image; for a validated group image that is its
        inverse.
        """
        if letter in self._letter_cache:
            return self._letter_cache[letter]
        name, tag = letter
        m = self.images[name]
        if tag != (1 if self.presentation.kind == GROUP else 0):
            m = self.form.adjoint(m)
        self._letter_cache[letter] = m
        return m

    def word_matrix(self, word):
        if not word:
            return linalg.identity(self.form.dim)
        m = self.letter_matrix(word[0])
        for l in word[1:]:
            m = linalg.mmul(m, self.letter_matrix(l))
        return m

    def to_json(self):
        return {g: linalg.matrix_to_json(self.images[g])
                for g in self.presentation.generators}


def trivial_representation(presentation, form) -> Representation:
    """pi(g) = eps(g) * identity; always a valid *-representation."""
    n = form.dim
    images = {}
    for g in presentation.generators:
        if presentation.kind == GROUP:
            images[g] = linalg.identity(n)
        else:
            images[g] = linalg.mscale(presentation.character[g], linalg.identity(n))
    return Representation(presentation, form, images)


class Cocycle:
    """Validated cocycle given by per-letter vectors."""

    def __init__(self, representation, values, _validated=False):
        self.representation = representation
        self.presentation = representation.presentation
        self.form = representation.form
        n = self.form.dim
        # group inverse letters are derived through eta(g^-1) = -pi(g^-1) eta(g),
        # so values may only be supplied for positive letters
        if self.presentation.kind == GROUP:
            supplyable = [(g, 1) for g in self.presentation.generators]
        else:
            supplyable = self.presentation.alphabet()
        vals = {}
        for l in supplyable:
            key = letter_str(self.presentation.kind, l)
            if key in values:
                v = linalg.vector(values[key])
                if len(v) != n:
                    raise CocycleObstructed([Violation(
                        code="COCYCLE_OBSTRUCTED", target=key, residual=None,
                        message=f"vector for {key} has size {len(v)}, expected {n}")])
            else:
                v = linalg.zero_vector(n)
            vals[l] = v
        unknown = set(values) - {letter_str(self.presentation.kind, l)
                                 for l in supplyable}
        if unknown:
            raise CocycleObstructed([Violation(
                code="COCYCLE_OBSTRUCTED", target=",".join(sorted(unknown)),
                residual=None,
                message=f"cocycle values name unknown letters {sorted(unknown)}")])
        self.values = vals
        self._eta_memo = {(): (linalg.zero_vector(n), ONE)}
        self._inverse_values = {}
        if not _validated:
            violations = self._validate()
            if violations:
                raise CocycleObstructed(violations)

    def letter_value(self, letter):
        name, tag = letter
        p = self.presentation
        if p.kind == GROUP and tag == -1:
            value = self._inverse_values.get(name)
            if value is None:
                inv = self.representation.letter_matrix(letter)
                value = linalg.vneg(linalg.mvmul(inv, self.values[(name, 1)]))
                self._inverse_values[name] = value
            return value
        if p.kind == GROUP:
            return self.values[(name, 1)]
        return self.values[p.normalize_letter(letter)]

    def eval_word(self, word):
        """eta(w) by eta(l w) = pi(l) eta(w) + eta(l) eps(w).

        (eta(w), eps(w)) is memoised per suffix on this cocycle for as long
        as the cocycle lives, so a word whose tail was evaluated before
        costs one step.  Accepts unreduced words.
        """
        return fold_suffixes(self._eta_memo, word, self._eta_step)[0]

    def _eta_step(self, letter, _tail, tail_value):
        eta, eps = tail_value
        return (linalg.vadd(
                    linalg.mvmul(self.representation.letter_matrix(letter), eta),
                    linalg.vscale(eps, self.letter_value(letter))),
                self.presentation.epsilon_letter(letter) * eps)

    def eval_element(self, element: AlgebraElement):
        out = linalg.zero_vector(self.form.dim)
        for w, c in element.terms.items():
            out = linalg.vadd(out, linalg.vscale(c, self.eval_word(w)))
        return out

    def _validate(self):
        p = self.presentation
        out = []
        if p.kind == GROUP:
            for r in p.relators:
                res = self.eval_word(r)
                if not linalg.is_zero_vector(res):
                    out.append(Violation(
                        code="COCYCLE_OBSTRUCTED",
                        target=" ".join(word_to_strs(GROUP, r)),
                        residual=res,
                        message=f"cocycle does not vanish on relator "
                                f"{word_to_strs(GROUP, r)}"))
        else:
            for rule in p.rules:
                lhs = self.eval_word(rule.lhs)
                rhs = linalg.vscale(rule.coeff, self.eval_word(rule.rhs))
                res = linalg.vsub(lhs, rhs)
                if not linalg.is_zero_vector(res):
                    out.append(Violation(
                        code="COCYCLE_OBSTRUCTED",
                        target=" ".join(word_to_strs(STAR_ALGEBRA, rule.lhs)),
                        residual=res,
                        message=f"cocycle does not respect rule "
                                f"{word_to_strs(STAR_ALGEBRA, rule.lhs)}"))
        return out

    def to_json(self):
        p = self.presentation
        return {letter_str(p.kind, l): linalg.vector_to_json(v)
                for l, v in sorted(self.values.items())}


# --- derivations ----------------------------------------------------


def exponent_matrix(presentation):
    """Rows indexed by relators, columns by generators, entries = exponent sums."""
    if presentation.kind != GROUP:
        raise ValueError("exponent matrix needs a group presentation")
    rows = []
    for r in presentation.relators:
        counts = {g: 0 for g in presentation.generators}
        for name, tag in r:
            counts[name] += tag
        rows.append(tuple(Scalar.coerce(counts[g]) for g in presentation.generators))
    return tuple(rows)


def derivation_space(presentation, dim: int):
    """Basis of generator assignments extendable to derivations in dimension dim.

    A derivation must kill every relator; by telescoping this reduces to the
    exponent-sum system. Returns a list of {generator: vector} dictionaries.
    """
    if presentation.kind != GROUP:
        raise ValueError("derivation_space needs a group presentation")
    em = exponent_matrix(presentation)
    ker = linalg.kernel(em) if em else [
        tuple(ONE if i == j else ZERO for j in range(len(presentation.generators)))
        for i in range(len(presentation.generators))]
    basis = []
    for kvec in ker:
        for i in range(dim):
            e_i = tuple(ONE if j == i else ZERO for j in range(dim))
            basis.append({g: linalg.vscale(kvec[idx], e_i)
                          for idx, g in enumerate(presentation.generators)})
    return basis


# --- 2-cochains -----------------------------------------------------


class Cochain2:
    """Bilinear functional on pairs of algebra elements."""

    def __init__(self, presentation, pair_fn, label=""):
        self.presentation = presentation
        self._pair_fn = pair_fn
        self.label = label

    def evaluate_pair(self, a: AlgebraElement, b: AlgebraElement) -> Scalar:
        return self._pair_fn(a, b)

    def evaluate(self, tensor: Tensor2) -> Scalar:
        out = ZERO
        for c, a, b in tensor.pairs:
            out = out + c * self._pair_fn(a, b)
        return out


def big_L(cocycle: Cocycle) -> Cochain2:
    """The 2-cochain (a, b) -> <eta(a*), eta(b)>."""
    form = cocycle.form

    def pair_fn(a, b):
        return form.inner(cocycle.eval_element(a.star()),
                          cocycle.eval_element(b))

    return Cochain2(cocycle.presentation, pair_fn, label="L(eta)")


def big_K(cocycle: Cocycle, tensor: Tensor2) -> Scalar:
    """big_L evaluated on a tensor whose legs must lie in ker(eps)."""
    tensor.check_legs_in_kernel()
    return big_L(cocycle).evaluate(tensor)


@dataclass(frozen=True)
class HochschildReport:
    passed: bool
    checked: int
    witness: tuple | None  # (a, b, c, value) on failure

    def to_json(self):
        if self.witness is None:
            w = None
        else:
            a, b, c, value = self.witness
            w = {"a": a.to_json(), "b": b.to_json(), "c": c.to_json(),
                 "value": str(value)}
        return {"passed": self.passed, "checked": self.checked, "witness": w}


def hochschild_boundary(phi: Cochain2, a, b, c) -> Scalar:
    """eps(a) phi(b,c) - phi(ab,c) + phi(a,bc) - phi(a,b) eps(c)."""
    return (a.epsilon() * phi.evaluate_pair(b, c)
            - phi.evaluate_pair(a * b, c)
            + phi.evaluate_pair(a, b * c)
            - phi.evaluate_pair(a, b) * c.epsilon())


def hochschild_check_2cocycle(presentation, phi: Cochain2, triples) -> HochschildReport:
    checked = 0
    for a, b, c in triples:
        value = hochschild_boundary(phi, a, b, c)
        checked += 1
        if not value.is_zero():
            return HochschildReport(passed=False, checked=checked,
                                    witness=(a, b, c, value))
    return HochschildReport(passed=True, checked=checked, witness=None)


# --- coboundary cocycles -------------------------------------------


class PhiV:
    """The functional a -> <v, (pi(a) - eps(a)) v> attached to a vector v.

    cocycle must be the coboundary cocycle eta_v(a) = (pi(a) - eps(a)) v,
    so a word is one inner product with its memoised eta_v value.
    """

    def __init__(self, cocycle, v):
        self.cocycle = cocycle
        self.v = linalg.vector(v)

    def eval_word(self, word) -> Scalar:
        return self.cocycle.form.inner(self.v, self.cocycle.eval_word(word))

    def eval_element(self, element: AlgebraElement) -> Scalar:
        out = ZERO
        for w, c in element.terms.items():
            out = out + c * self.eval_word(w)
        return out


def coboundary_cocycle(representation, v):
    """Cocycle eta(a) = (pi(a) - eps(a)) v plus its functional candidate.

    The candidate phi satisfies L(eta) + (coboundary of phi) = 0, so minus its
    coboundary reproduces L(eta) on all pairs.
    """
    p = representation.presentation
    v = linalg.vector(v)
    values = {}
    for l in p.alphabet():
        name, tag = l
        if p.kind == GROUP and tag == -1:
            continue
        m = representation.letter_matrix(l)
        eps = p.epsilon_letter(l)
        values[letter_str(p.kind, l)] = linalg.vsub(
            linalg.mvmul(m, v), linalg.vscale(eps, v))
    cocycle = Cocycle(representation, values)
    return cocycle, PhiV(cocycle, v)
