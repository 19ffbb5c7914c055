"""Representations on hermitian-form spaces and cocycles.

A representation assigns a matrix to each generator and must respect the
involution (images of starred letters are form-adjoints) and every defining
relation.  The adjoints G^-1 (m* G), from the form's scaled G and G^-1
(`linalg.HermitianForm`), and every check (unitarity, star images, each
relation lhs = c rhs of `Presentation.relations`) are products of scaled
Gaussian-integer matrices (`scalars.scaled_product`), compared by
`scalars.scaled_residual`, whose difference, unscaled, is a failing
check's residual; only a non-unitary image's residual, its adjoint (the
`word_matrix` of its inverse letter) less `linalg.inverse`, is formed in
Scalars.  `word_matrix` unscales a word's image.

A cocycle assigns a vector to each letter and extends through
eta(ab) = pi(a) eta(b) + eta(a) eps(b); each relation is checked by
`scaled_residual` of the eta parts of its sides' memo entries (below).

Every eta(w) is computed one way, into a memo of scaled Gaussian integers:
S(w) [eta(w); eps(w)] with S(w) the product of the denominators D(l) of its
letters' rows D(l) [pi(l) | eta(l); 0 | eps(l)].  Those rows are built from
the scaled image of pi(l) with no Scalar in between: on a group
eta(g^-1) = -pi(g^-1) eta(g) is one integer step, and one content gcd
leaves D(l) least.  The rows conj(G eta(l^-1)) that pair with eta(l^-1)
are the form's `pairing` of them, formed once per cocycle, for every
group functional built on it.  A read fills the word's missing suffixes,
shortest first, each from its tail by one integer matrix-vector step with
its first letter's rows (`_fill`, the step the group functionals' memo
shares), with no gcd and no Scalar.  `eval_word` unscales a word's entry,
one gcd per entry, and keeps nothing.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
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
from .scalars import (
    ONE,
    ZERO,
    Scalar,
    _common,
    _dots,
    parts,
    scaled,
    scaled_product,
    scaled_residual,
    unscaled,
)


def _least(re, im, d):
    """Integer rows re and im over d, divided by their content with d, so
    that d is their least common denominator; im becomes None when it is
    zero."""
    if im is not None and not any(map(any, im)):
        im = None
    g = gcd(d, *chain.from_iterable(re), *chain.from_iterable(im or ()))
    if g != 1:
        re = [[x // g for x in row] for row in re]
        im = im and [[x // g for x in row] for row in im]
        d //= g
    return re, im, d


def _fill(memo, rows, word):
    """The entry of `word` in a memo of scaled vectors (re, im, scale) kept
    for every suffix read so far, the empty word included.  A miss fills the
    word's missing suffixes, shortest first, each from its tail's entry by
    one integer matrix-vector product with its first letter's rows (re, im,
    d): the rows times the tail's vector, over d times the tail's scale.
    No gcd is taken and no Scalar is built."""
    col = memo.get(word)
    if col is None:
        i = 1
        while (col := memo.get(word[i:])) is None:
            i += 1
        for j in range(i - 1, -1, -1):
            re_rows, im_rows, d = rows[word[j]]
            re, im = _dots(col[0], col[1], re_rows, im_rows)
            col = memo[word[j:]] = re, im, d * col[2]
    return col


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


class Representation:
    """Validated unital *-representation given by generator images."""

    def __init__(self, presentation, form, images, _validated=False):
        self.presentation = presentation
        self.form = form
        self.images = {g: linalg.matrix(m) for g, m in images.items()}
        self._positive = 1 if presentation.kind == GROUP else 0
        self._scaled_cache = {}
        if not _validated:
            violations = self._validate()
            if violations:
                raise RepresentationError(violations)

    def __repr__(self):
        p = self.presentation
        images = {g: linalg.matrix_to_json(m) for g, m in self.images.items()}
        return (f"Representation({p.kind} {list(p.generators)}, gram "
                f"{linalg.matrix_to_json(self.form.gram)}, images {images})")

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
        one = self._word_scaled(())
        if p.kind == GROUP:
            for g in p.generators:
                # a square matrix with a left inverse is invertible, so this
                # one product proves unitarity; elimination only diagnoses
                if scaled_residual(scaled_product(self._scaled((g, -1)),
                                                  self._scaled((g, 1))),
                                   one) is None:
                    continue
                try:
                    inv = linalg.inverse(self.images[g])
                except linalg.LinalgError:
                    out.append(Violation(
                        code="NOT_STAR_COMPATIBLE", target=g, residual=None,
                        message=f"image of {g} is singular"))
                    continue
                out.append(Violation(
                    code="NOT_STAR_COMPATIBLE", target=g,
                    residual=linalg.msub(self.word_matrix(((g, -1),)), inv),
                    message=f"image of {g} is not form-unitary"))
            message = "relator {} does not map to the identity"
        else:
            for g in p.generators:
                starred = p.star_letter((g, 0))
                if starred == (g, 1):
                    # pi(g*) is defined as the adjoint of pi(g): nothing to check
                    continue
                res = scaled_residual(self._scaled(starred),
                                      self._scaled((g, 1)))
                if res is None:
                    continue
                out.append(Violation(
                    code="NOT_STAR_COMPATIBLE", target=g, residual=unscaled(res),
                    message=f"image of {letter_str(STAR_ALGEBRA, starred)} is "
                            f"not the adjoint of the image of {g}"))
            message = "rule {} is not respected by the images"
        if out:
            return out
        for lhs, coeff, rhs in p.relations:
            res = scaled_residual(self._word_scaled(lhs),
                                  self._word_scaled(rhs) if rhs else one, coeff)
            if res is not None:
                words = word_to_strs(p.kind, lhs)
                out.append(Violation(
                    code="RELATION_VIOLATED", target=" ".join(words),
                    residual=unscaled(res), message=message.format(words)))
        return out

    def _scaled(self, letter):
        """pi(letter) as a scaled matrix (`scalars.scaled`).

        Inverse group letters and starred letters map to the form-adjoint
        G^-1 (m* G) of the generator's image m, formed in integers from
        the form's scaled G and G^-1.
        """
        s = self._scaled_cache.get(letter)
        if s is None:
            name, tag = letter
            s = scaled(self.images[name])
            if tag != self._positive:
                re, im, d = s
                star = (list(zip(*re)), None if im is None else
                        [[-x for x in col] for col in zip(*im)], d)
                s = scaled_product(self.form.scaled_gram_inv,
                                   scaled_product(star, self.form.scaled_gram))
            self._scaled_cache[letter] = s
        return s

    def _word_scaled(self, word):
        """pi(word) as a scaled matrix, multiplied left to right."""
        if not word:
            return scaled(linalg.identity(self.form.dim))
        m = self._scaled(word[0])
        for letter in word[1:]:
            m = scaled_product(m, self._scaled(letter))
        return m

    def word_matrix(self, word):
        return unscaled(self._word_scaled(word))


def trivial_representation(presentation, form) -> Representation:
    """pi(g) = eps(g) * identity; always a valid *-representation."""
    tag = 1 if presentation.kind == GROUP else 0  # the unstarred letter
    one = linalg.identity(form.dim)
    return Representation(presentation, form, {
        g: linalg.mscale(presentation.epsilon_letter((g, tag)), one)
        for g in presentation.generators})


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
        self._eta_memo = {(): ([0] * n + [1], None, 1)}
        self._rows = None
        self._pairing = None
        if not _validated:
            violations = self._validate()
            if violations:
                raise CocycleObstructed(violations)

    def __repr__(self):
        values = {letter_str(self.presentation.kind, l): linalg.vector_to_json(v)
                  for l, v in self.values.items()}
        return f"Cocycle({self.representation!r}, values {values})"

    def letter_value(self, letter):
        """The supplied eta(letter); a starred letter that the involution
        renames reads its generator's value."""
        return self.values[self.presentation.normalize_letter(letter)]

    def eval_word(self, word):
        """eta(w) by eta(l w) = pi(l) eta(w) + eta(l) eps(w), unscaled from
        the memo on every call.  Accepts unreduced words."""
        re, im, s = self._scaled_eta(tuple(word))
        return unscaled(([re[:-1]], None if im is None else [im[:-1]], s))[0]

    def _scaled_eta(self, word):
        """S(w) [eta(w); eps(w)] as (re, im, S(w)), im None when real."""
        return _fill(self._eta_memo, self._rows or self._letter_rows(), word)

    def _letter_rows(self):
        """Each letter's rows D(l) [pi(l) | eta(l); 0 | eps(l)] as integer
        re and im (None when real) over D(l), their least common
        denominator, built from the scaled image `Representation._scaled`;
        on a group, eta(g^-1) = -pi(g^-1) eta(g) is one integer step from
        eta(g).  On a star algebra a starred letter that the involution
        renames is a row key too, so an unreduced word can be read."""
        p, scaled_image = self.presentation, self.representation._scaled
        group = p.kind == GROUP
        letters = (p.alphabet() if group else
                   [(g, t) for t in (0, 1) for g in p.generators])
        n = self.form.dim
        zeros = [0] * n
        self._rows = {}
        for l in letters:
            pr, pi, d = scaled_image(l)
            if group and l[1] == -1:
                er, ei, e = _common(self.values[(l[0], 1)])
                er, ei = _dots(er, ei, pr, pi)
                er, ei, e = [-x for x in er], ei and [-x for x in ei], e * d
            else:
                er, ei, e = _common(self.letter_value(l))
            a, b, c = parts(p.epsilon_letter(l))
            # over d e c, then divided by the content
            fp, fe, fc = e * c, d * c, d * e
            re = [[x * fp for x in row] + [y * fe] for row, y in zip(pr, er)]
            re.append(zeros + [a * fc])
            im = None
            if pi is not None or ei is not None or b:
                im = [[x * fp for x in row] + [y * fe]
                      for row, y in zip(pi or [zeros] * n, ei or zeros)]
                im.append(zeros + [b * fc])
            self._rows[l] = _least(re, im, d * e * c)
        return self._rows

    def _pairing_rows(self):
        """conj(G eta(l^-1)) for every letter l of a group, the row that
        pairs <eta(l^-1), .>, as integer re and im (None when real) over its
        least common denominator: the form's `pairing` of the eta column of
        l^-1's rows, formed once for every functional of this cocycle."""
        rows = self._rows or self._letter_rows()
        n = self.form.dim
        self._pairing = {}
        for name, tag in rows:
            re, im, d = rows[name, -tag]
            pr, pi, pd = self.form.pairing((
                [row[n] for row in re[:n]],
                None if im is None else [row[n] for row in im[:n]], d))
            (pr,), pi, pd = _least([pr], pi and [pi], pd)
            self._pairing[name, tag] = pr, pi and pi[0], pd
        return self._pairing

    def eval_element(self, element: AlgebraElement):
        out = linalg.zero_vector(self.form.dim)
        for w, c in element.terms.items():
            out = linalg.vadd(out, linalg.vscale(c, self.eval_word(w)))
        return out

    def _validate(self):
        p = self.presentation
        what = "vanish on relator" if p.kind == GROUP else "respect rule"

        def eta(word):
            re, im, s = self._scaled_eta(word)
            return [re[:-1]], im and [im[:-1]], s

        out = []
        for lhs, coeff, rhs in p.relations:
            res = scaled_residual(eta(lhs), eta(rhs), coeff)
            if res is not None:
                words = word_to_strs(p.kind, lhs)
                out.append(Violation(
                    code="COCYCLE_OBSTRUCTED", target=" ".join(words),
                    residual=unscaled(res)[0],
                    message=f"cocycle does not {what} {words}"))
        return out


# --- derivations ----------------------------------------------------


def exponent_matrix(presentation):
    """Rows indexed by relators, columns by generators, entries = exponent sums."""
    if presentation.kind != GROUP:
        raise ValueError("exponent matrix needs a group presentation")
    column = {g: j for j, g in enumerate(presentation.generators)}
    rows = []
    for r in presentation.relators:
        counts = [0] * len(column)
        for name, tag in r:
            counts[column[name]] += tag
        rows.append(counts)
    # integer rows over the denominator 1 are canonical Scalars at once
    return unscaled((rows, None, 1))


def solve_exponent_sums(matrix, rhs, width):
    """Solve matrix @ t == rhs for t, the exponent matrix of a presentation
    with `width` generators.

    Without relators the matrix has no rows to carry its width; every t then
    solves the system, so the solution is 0 and the kernel is everything.
    """
    if not matrix:
        return linalg.LinearSolution(solution=linalg.zero_vector(width),
                                     kernel_basis=linalg.identity(width))
    return linalg.solve_linear(matrix, rhs)


def derivation_space(presentation, dim: int):
    """Basis of generator assignments extendable to derivations in dimension dim.

    A derivation must kill every relator; by telescoping this reduces to the
    exponent-sum system. Returns a list of {generator: vector} dictionaries.
    """
    if presentation.kind != GROUP:
        raise ValueError("derivation_space needs a group presentation")
    ker = solve_exponent_sums(
        exponent_matrix(presentation),
        linalg.zero_vector(len(presentation.relators)),
        len(presentation.generators)).kernel_basis
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
