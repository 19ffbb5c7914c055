"""Representations on hermitian-form spaces and cocycles.

A representation assigns a matrix to each generator and must respect the
involution (images of starred letters are form-adjoints) and every defining
relation.  A cocycle assigns a vector to each letter and extends through
eta(ab) = pi(a) eta(b) + eta(a) eps(b); well-definedness is checked on the
finite relation set, with exact residuals reported on failure.

Words are evaluated two ways into one memo.  `fold_suffixes` is the
per-word path: it folds the missing suffixes of one word, one Scalar step
each.  `fold_levels` fills a whole shortest-first word list a length level
at a time, and `Cocycle.fill_levels` computes a level with one integer
product (`scalars.product_lines`): the column [eta(w); eps(w)] of each tail
w of the level, brought to one denominator once, against the rows
[pi(l) | eta(l)] of every letter l that begins a word of the level.  Both
paths give the same exact values.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .presentations import (
    GROUP,
    STAR_ALGEBRA,
    AlgebraElement,
    Tensor2,
    letter_str,
    word_to_strs,
)
from .scalars import ONE, ZERO, Scalar, common_forms, product_lines


class Violation(NamedTuple):
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


def fold_levels(memo, words, batch):
    """Fill memo[w] for every word of `words`, one batch per length level.

    words are shortest first, and the tail w of each word l + w is in memo or
    earlier in the list (a suffix-closed list such as `words_up_to` returns
    qualifies).  The words missing from memo are taken a level at a time and
    grouped by tail: batch(tails) gets a dict that maps each tail w of the
    level to the letters l with l + w missing, both in order of first
    appearance, and yields for each tail in turn the values of its l + w, in
    the order of its letters.  batch may read memo[w] for every tail.
    """
    levels = {}
    for w in words:
        if w not in memo:
            levels.setdefault(len(w), {}).setdefault(w[1:], []).append(w[0])
    # levels were inserted shortest first, so every tail is filled before use
    for tails in levels.values():
        for (tail, letters), values in zip(tails.items(), batch(tails)):
            for letter, value in zip(letters, values):
                memo[(letter,) + tail] = value


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
                if starred == (g, 1):
                    # pi(g*) is defined as the adjoint of pi(g): nothing to check
                    continue
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

    def fill_levels(self, words):
        """Memoise (eta(w), eps(w)) for a word list `fold_levels` accepts."""
        fold_levels(self._eta_memo, words, self._eta_batch)

    def _eta_batch(self, tails):
        # eta(l w) = [pi(l) | eta(l)] [eta(w); eps(w)]: each tail's column
        # against the rows of every letter of the level, one kernel call
        memo = self._eta_memo
        n = self.form.dim
        rows, at = [], {}
        for letter in dict.fromkeys(l for ls in tails.values() for l in ls):
            eps_l = self.presentation.epsilon_letter(letter)
            at[letter] = (len(rows), None if eps_l == ONE else eps_l)
            rows.extend((*row, e) for row, e in zip(
                self.representation.letter_matrix(letter),
                self.letter_value(letter)))
        values = [memo[w] for w in tails]
        lines = product_lines([(*eta, eps) for eta, eps in values],
                              common_forms(rows))
        for (_, eps), line, letters in zip(values, lines, tails.values()):
            yield [(line[i:i + n], eps if eps_l is None else eps_l * eps)
                   for i, eps_l in map(at.__getitem__, letters)]

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


def solve_exponent_sums(presentation, rhs):
    """Solve exponent_matrix(presentation) @ t == rhs for t over the generators.

    Without relators the matrix has no rows to carry its width; every t then
    solves the system, so the solution is 0 and the kernel is everything.
    """
    em = exponent_matrix(presentation)
    if not em:
        n = len(presentation.generators)
        return linalg.LinearSolution(solution=linalg.zero_vector(n),
                                     kernel_basis=linalg.identity(n))
    return linalg.solve_linear(em, rhs)


def derivation_space(presentation, dim: int):
    """Basis of generator assignments extendable to derivations in dimension dim.

    A derivation must kill every relator; by telescoping this reduces to the
    exponent-sum system. Returns a list of {generator: vector} dictionaries.
    """
    if presentation.kind != GROUP:
        raise ValueError("derivation_space needs a group presentation")
    ker = solve_exponent_sums(
        presentation, linalg.zero_vector(len(presentation.relators))).kernel_basis
    basis = []
    for kvec in ker:
        for i in range(dim):
            e_i = tuple(ONE if j == i else ZERO for j in range(dim))
            basis.append({g: linalg.vscale(kvec[idx], e_i)
                          for idx, g in enumerate(presentation.generators)})
    return basis


# --- obstruction pairing --------------------------------------------


def big_K(cocycle: Cocycle, tensor: Tensor2) -> Scalar:
    """Sum of c <eta(a*), eta(b)> over the pairs c a (x) b of a tensor whose
    legs must lie in ker(eps)."""
    tensor.check_legs_in_kernel()
    form = cocycle.form
    out = ZERO
    for c, a, b in tensor.pairs:
        out = out + c * form.inner(cocycle.eval_element(a.star()),
                                   cocycle.eval_element(b))
    return out
