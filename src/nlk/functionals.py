"""Generating functionals: folding, solving, verification, GNS truncation.

For group presentations a functional is determined by its generator values;
hermitianity forces psi(g^-1) = conj(psi(g)) and the norm identity forces
Re psi(g) = -1/2 <eta(g), eta(g)>, leaving the imaginary parts as the only
unknowns.  Existence is decided by folding psi along each relator
(`relator_readings`) and solving the resulting rational linear system in
those imaginary parts.  Write the triple as one representation rho on
D + C + C (Schurmann, White Noise on Bialgebras, 1993); psi descends to
the group algebra exactly when rho(g) rho(g^-1) = I for every generator and
rho(r) = I for every relator.  A validated cocycle leaves only the psi
entry to check, so one loop decides descent, psi folded on each defining
word up to the first nonzero fold, which `descent_defect` words and the
oracle reports.  The GNS truncation and Gaussianity refuse a group psi
that does not descend; `verify` checks the triple identities on free-group
words, so on a psi that descends it cannot fail.

For star-algebra presentations functionals are explicit monomial tables and
are verified, not solved for.

On a group each letter acts on [eta(w); eps(w); psi(w)] by one matrix,
M(l) = Q(l) [[pi(l), eta(l), 0], [0, eps(l), 0], [conj(G eta(l^-1)),
psi(l), 1]] with Q(l) the least common denominator of its entries, so
eta(l w) = pi(l) eta(w) + eta(l) eps(w) and psi(l w) = <eta(l^-1), eta(w)>
+ psi(l) eps(w) + psi(w).  A functional keeps one memo entry per word, the
Gaussian-integer vector U(w) [eta(w); eps(w); psi(w)] with U(l w) =
Q(l) U(w), and fills a missing suffix from its tail by one integer step
(`cocycles._fill`); scales are never divided.  `verify` reads its columns
straight from this memo and pairs them with rows built by the form's
`pairing`, decides by cross-multiplying, and builds a witness from the
integers it compared.  A Scalar is otherwise built only for a report
value, or through `fold`, which unscales a word's entry and keeps nothing,
for `solve`, the relator readings and the descent loop; Gaussianity's
`eval_element` sums from the memo and unscales once.  A group's GNS Gram
matrix is the eta Gram E*GE of the cocycle's memo columns.  On a star
algebra the Gram matrix is built a row at a time: a product that stays
the concatenation of the rewritten star and the word is one inline table
read, with `StarFunctional.read`'s support check, and a product rewritten
past the junction is read through `read`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from . import linalg
from .cocycles import Cocycle, _fill, exponent_matrix, solve_exponent_sums
from .linalg import IndefiniteFormError
from .presentations import (
    GROUP,
    STAR_ALGEBRA,
    AlgebraElement,
    Presentation,
    kn_products,
    word_to_strs,
)
from .scalars import (I, ONE, ZERO, Scalar, _dots, _imaginary, from_parts,
                      parts, scaled_same)


class TableSupportExceeded(ValueError):
    """psi was read on a canonical word longer than its table's longest key."""

    code = "TABLE_SUPPORT_EXCEEDED"

    def __init__(self, word, support):
        self.word = word
        self.support = support
        super().__init__(
            f"psi is read on the canonical word "
            f"{word_to_strs(STAR_ALGEBRA, word)} of length {len(word)}, past "
            f"the table's support {support} (the length of its longest key, "
            f"zero-valued keys included)")


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
        n = cocycle.form.dim
        self._memo = {(): ([0] * n + [1, 0], None, 1)}
        self._rows = None

    kind = GROUP

    def psi_letter(self, letter) -> Scalar:
        name, tag = letter
        v = self.values[name]
        return v if tag == 1 else v.conj()

    def fold(self, word) -> Scalar:
        """psi(w) by psi(l w) = psi(l) + <eta(l^-1), eta(w)> + psi(w),
        unscaled from the memo on every call.  Accepts unreduced words; the
        result only depends on the group element when the data respects
        the relators."""
        re, im, u = self._vector(tuple(word))
        return from_parts(re[-1], 0 if im is None else im[-1], u)

    def _vector(self, word):
        """U(w) [eta(w); eps(w); psi(w)] as (re, im, U(w)), im None when
        real; a miss fills the word's missing suffixes (`cocycles._fill`)."""
        return _fill(self._memo, self._rows or self._letter_rows(), word)

    def _letter_rows(self):
        """Each letter's matrix M(l): the cocycle's rows of l brought from
        D(l) to Q(l), then the psi row Q(l) [conj(G eta(l^-1)) | psi(l) | 1],
        Q(l) being the least common denominator of the two.  The pairing
        rows conj(G eta(l^-1)) are the cocycle's, formed once for all its
        functionals (`Cocycle._pairing_rows`), so this adds only the psi
        column; rows the cocycle keeps are copied before they are scaled,
        never changed.  The cocycle's rows stop before the psi column, whose
        entries there are 0: `_dots` pairs a row with the vector up to the
        row's length."""
        cocycle = self.cocycle
        rows = cocycle._rows or cocycle._letter_rows()
        pairing = cocycle._pairing or cocycle._pairing_rows()
        self._rows = {}
        for l, (re, im, d) in rows.items():
            gr, gi, gd = pairing[l]
            a, b, pd = parts(self.psi_letter(l))
            q = lcm(d, gd, pd)
            f, g, h = q // d, q // gd, q // pd
            if f != 1:
                re = [[x * f for x in row] for row in re]
                im = im and [[x * f for x in row] for row in im]
            self._rows[l] = (
                re + [[x * g for x in gr] + [a * h, q]],
                None if im is gi is None and not b else
                (im or [[]] * len(re))
                + [[x * g for x in gi or [0] * len(gr)] + [b * h, 0]],
                q)
        return self._rows

    def eval_element(self, element: AlgebraElement) -> Scalar:
        """Sum c psi(w) over the terms c w from the memo, unscaled once."""
        memo, a, b, d = self._memo, 0, 0, 1
        for w, c in element.terms.items():
            re, im, u = memo.get(w) or self._vector(w)
            (ca, cb, cd), x, y = parts(c), re[-1], im[-1] if im else 0
            # over the lcm of d and cd U(w), so d stays bounded
            g = gcd(d, cd * u)
            f, e = cd * u // g, d // g
            a, b, d = (a * f + e * (ca * x - cb * y),
                       b * f + e * (ca * y + cb * x), d * f)
        return from_parts(a, b, d)

    def to_json(self):
        return {"psi": {g: str(self.values[g])
                        for g in self.presentation.generators}}


class StarFunctional:
    """psi on a star-algebra presentation, given as a monomial table.

    Keys must be canonical words, and the empty word may not carry a nonzero
    value.  The table's support is the length of its longest key, zero-valued
    keys included.  Every read of a canonical word goes through `read`,
    except the concatenations that `gns_truncated` reads inline.
    """

    def __init__(self, presentation: Presentation, table):
        if presentation.kind != STAR_ALGEBRA:
            raise ValueError("StarFunctional needs a star-algebra presentation")
        self.presentation = presentation
        self.support = max(map(len, table), default=0)
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

    def read(self, word) -> Scalar:
        """psi of a canonical word: its table value, 0 on a word within the
        support that the table leaves out, and TableSupportExceeded on a
        longer one."""
        # the table keeps nonzero values only, so ZERO itself marks a miss
        value = self.table.get(word, ZERO)
        if value is ZERO and len(word) > self.support:
            raise TableSupportExceeded(word, self.support)
        return value

    def fold(self, word) -> Scalar:
        """psi of any word, by `read` of its canonical form."""
        c, red = self.presentation.reduce(word)
        return c * self.read(red)

    def eval_element(self, element: AlgebraElement) -> Scalar:
        out = ZERO
        for w, coeff in element.terms.items():
            out = out + coeff * self.read(w)
        return out


# --- existence solver ----------------------------------------------


class RelatorReading(NamedTuple):
    relator: tuple
    k_r: Scalar
    re_violation: bool

    def to_json(self):
        return {"relator": word_to_strs(GROUP, self.relator),
                "K_r": str(self.k_r),
                "re_violation": self.re_violation}


class SolveOutcome(NamedTuple):
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


def relator_readings(functional: GroupFunctional) -> tuple:
    """psi folded on each relator, and whether its real part is nonzero."""
    folds = [(r, functional.fold(r)) for r in functional.presentation.relators]
    return tuple(RelatorReading(r, k, k.re != 0) for r, k in folds)


def defining_words(presentation) -> list:
    """The words that name the identity by definition: g g^-1 for every
    generator g, in order, then every relator."""
    return ([((g, 1), (g, -1)) for g in presentation.generators]
            + list(presentation.relators))


def _first_nonzero_fold(functional: GroupFunctional) -> tuple:
    """psi folded on each defining word (`defining_words`) in order, up to
    the first nonzero fold: (the number of words folded, that word, its
    fold), or (the number of defining words, None, None)."""
    words = defining_words(functional.presentation)
    for folded, word in enumerate(words, 1):
        k = functional.fold(word)
        if not k.is_zero():
            return folded, word, k
    return len(words), None, None


def descent_defect(functional: GroupFunctional) -> str | None:
    """Why psi does not descend to the group algebra, or None: the first
    defining word psi does not fold to 0 on.  A unitary pi folds psi to
    2 (Re psi(g) - r_g) on g g^-1, r_g the forced real part."""
    folded, word, k = _first_nonzero_fold(functional)
    if word is None:
        return None
    if folded > len(functional.presentation.generators):
        return f"psi folds to {k} on relator {word_to_strs(GROUP, word)}"
    g = word[0][0]
    re = functional.values[g].re
    return (f"Re psi({g}) = {re} differs from the forced real part "
            f"{Scalar(re - k.re / 2)}")


def _require_descent(functional: GroupFunctional):
    """Refuse a group psi that is no functional on the group algebra, in
    the words of `descent_defect`."""
    defect = descent_defect(functional)
    if defect:
        raise ValueError(defect)


_MINUS_HALF = Scalar(Fraction(-1, 2))


def forced_real_parts(cocycle: Cocycle) -> dict:
    """Re psi(g) = -1/2 <eta(g), eta(g)> on every generator g; the form is
    hermitian, so the norm is real."""
    inner = cocycle.form.inner
    out = {}
    for g in cocycle.presentation.generators:
        eta = cocycle.letter_value((g, 1))
        out[g] = inner(eta, eta) * _MINUS_HALF
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
    readings = relator_readings(GroupFunctional(cocycle, rho))
    a_mat = exponent_matrix(p)
    rhs = tuple(Scalar(-rd.k_r.im, 0) for rd in readings)
    # a nonzero real part is infeasible before any system is solved
    solved = (None if any(rd.re_violation for rd in readings)
              else solve_exponent_sums(a_mat, rhs, len(p.generators)))
    if solved is None or isinstance(solved, linalg.LinearInfeasible):
        return SolveOutcome(
            verdict="infeasible", functional=None, ambiguity_dim=None,
            readings=readings, system_matrix=a_mat, system_rhs=rhs,
            certificate=getattr(solved, "certificate", None))
    t = solved.solution
    values = {g: rho[g] + I * t[i] for i, g in enumerate(p.generators)}
    return SolveOutcome(
        verdict="feasible", functional=GroupFunctional(cocycle, values),
        ambiguity_dim=len(solved.kernel_basis), readings=readings,
        system_matrix=a_mat, system_rhs=rhs, certificate=None)


def certificate_defect(lam, a_mat, rhs) -> str | None:
    """Why lam fails to certify that a_mat x = rhs has no solution, or None.

    A certificate is a left combination with lam a_mat = 0 and lam rhs != 0,
    both read off one product lam [a_mat | rhs]; a system without rows
    pairs lam rhs to 0.
    """
    if len(lam) != len(a_mat):
        return "certificate has the wrong size"
    aug = [(*row, x) for row, x in zip(a_mat, rhs)]
    *combined, paired = linalg.mmul([lam], aug)[0] if aug else (ZERO,)
    if not all(x.is_zero() for x in combined):
        return "certificate does not annihilate the system"
    if paired.is_zero():
        return "certificate does not contradict the right-hand side"
    return None


# --- triple verification -------------------------------------------


class VerifyReport(NamedTuple):
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

    Values are read from the memos (or a star table) as scaled Gaussian
    integers, identities are decided by cross-multiplying, and Scalars are
    built only for a witness.  The coboundary identity at (a, b) compares
    psi(ab) with the integer row (conj(G eta(a*)), psi(a), eps(a)), its
    first part the form's `pairing` of eta(a*), paired
    with the column (eta(b), eps(b), psi(b)) by `scalars._dots`, a whole
    line of columns per word a; the squared-norm identity is that pairing
    at (w*, w).  On a group the columns are the functional's memo entries
    themselves, and its cocycle must be `cocycle`; on a star algebra each
    is the cocycle's entry with the table's psi appended.  Each star is
    reduced once.  A witness is built from the integers its check compared:
    <eta(a*), eta(b)> is the row and the column paired on their first n
    entries, and the rest of their product is the counit terms.
    """
    p, form = cocycle.presentation, cocycle.form
    group = p.kind == GROUP
    if group and functional.cocycle is not cocycle:
        raise ValueError("a group functional is verified with its own cocycle")
    counts = {"psi_at_one": 0, "hermitian": 0, "coboundary": 0, "positivity": 0}

    def fail(identity, detail):
        return VerifyReport(passed=False, counts=counts,
                            witness={"identity": identity, **detail})

    one_val = functional.fold(())
    counts["psi_at_one"] = 1
    if not one_val.is_zero():
        return fail("psi_at_one", {"value": str(one_val)})

    words = p.words_up_to(max_len, include_empty=False)
    # scaled [eta(w); eps(w)], on a group with psi(w) after them
    n, eta = form.dim, functional._vector if group else cocycle._scaled_eta

    def star_column(b):
        """(eta(b), eps(b), psi(b)) over the product of their scales."""
        (er, ei, s), (p_re, p_im, t) = eta(b), psi[b]
        im = [y * t for y in ei or [0] * (n + 1)] + [p_im * s]
        return ([y * t for y in er] + [p_re * s], im if any(im) else None,
                s * t)

    # canonical words: psi is read straight from the memo or the table
    if group:
        cols = list(map(eta, words))
        psi = {w: (re[-1], 0 if im is None else im[-1], s)
               for w, (re, im, s) in zip(words, cols)}
    else:
        psi = {w: parts(functional.read(w)) for w in words}
        cols = list(map(star_column, words))

    def psi_of(coeff, word):
        """coeff psi(w) for a canonical word w as (re, im, scale), no gcd."""
        if coeff.is_zero():
            return 0, 0, 1
        (a, b, d), (ca, cb, cd) = (psi.get(word)
                                   or parts(functional.fold(word)),
                                   parts(coeff))
        return ca * a - cb * b, ca * b + cb * a, cd * d

    stars = {w: p.involve_word(w) for w in words}
    psi_star = {}
    for w in words:
        # a canonical star, such as a group inverse, is a word of the list
        lhs = psi_star[w] = psi.get(stars[w]) or psi_of(*p.reduce(stars[w]))
        counts["hermitian"] += 1
        (a, b, s), (c, d, t) = lhs, psi[w]
        if not scaled_same(([a], [b], s), ([c], [-d], t)):
            return fail("hermitian", {
                "word": word_to_strs(p.kind, w),
                "psi_star": str(from_parts(a, b, s)),
                "conj_psi": str(from_parts(c, -d, t))})

    def eps(w):
        re, im, s = eta(w)
        return re[n], 0 if im is None else im[n], s

    def row(x, e, q):
        """[conj(G eta(x)); q; e] over the product of the parts' scales."""
        er, ei, s = eta(x)
        gr, gi, s = form.pairing((er[:n], ei and ei[:n], s))
        (e_re, e_im, e_s), (q_re, q_im, q_s) = e, q
        f, fe, fq = e_s * q_s, s * q_s, s * e_s
        re = [y * f for y in gr] + [q_re * fq, e_re * fe]
        im = [y * f for y in gi or [0] * n] + [q_im * fq, e_im * fe]
        return re, (im if any(im) else None), s * f

    def inner_eta(ra, rb, ca, cb, s):
        """<eta(x), eta(b)> for a row of x and a column of b: their product
        on the first n entries, over the scale s of their whole product."""
        (re,), im = _dots(ra[:n], rb and rb[:n], (ca[:n],), cb and (cb[:n],))
        return from_parts(re, 0 if im is None else im[0], s)

    cas = [re for re, _, _ in cols]
    cbs = _imaginary([im for _, im, _ in cols], n + 2)
    lengths = [len(w) for w in words]
    # psi(ab) by the raw concatenation, for this call only: a canonical
    # concatenation is a word of the list, so only a product that reduces
    # at the junction is read through `Presentation.multiply`
    psi_ab = dict(psi)

    for wa in words:
        # a pairs with every b of length <= max_len - |a|, a prefix of words
        n_b = bisect_right(lengths, max_len - len(wa))
        if not n_b:
            break
        ra, rb, sa = row(stars[wa], eps(wa), psi[wa])
        res, ims = _dots(ra, rb, cas[:n_b], cbs and cbs[:n_b])
        for j, (wb, re, im, (_, _, sb)) in enumerate(
                zip(words, res, ims or itertools.repeat(0), cols[:n_b])):
            ab = wa + wb
            target = psi_ab.get(ab)
            if target is None:
                target = psi_ab[ab] = psi_of(*p.multiply(wa, wb))
            t_re, t_im, t_s = target
            s = sa * sb
            if re * t_s != t_re * s or im * t_s != t_im * s:
                counts["coboundary"] += j + 1
                # the product less <eta(a*), eta(b)> is the counit terms
                # eps(a) psi(b) + psi(a) eps(b)
                eta_ab = inner_eta(ra, rb, cas[j], cbs and cbs[j], s)
                lhs = from_parts(re, im, s) - eta_ab - from_parts(*target)
                return fail("coboundary", {
                    "a": word_to_strs(p.kind, wa), "b": word_to_strs(p.kind, wb),
                    "lhs": str(lhs), "rhs": str(-eta_ab)})
        counts["coboundary"] += n_b

    for w, (cr, ci, sb) in zip(words, cols):
        if len(w) > max_len // 2:
            break
        # psi((w - eps(w))* (w - eps(w))) expanded through psi(1) = 0 is the
        # pairing at (w*, w), with eps(w*) = conj eps(w)
        e = eps(w)
        ra, rb, sa = row(w, (e[0], -e[1], e[2]), psi_star[w])
        (re,), im = _dots(ra, rb, (cr,), None if ci is None else (ci,))
        im = 0 if im is None else im[0]
        counts["positivity"] += 1
        c, d, t = psi_of(*p.reduce(stars[w] + w))
        s = sa * sb
        if re * t != c * s or im * t != d * s:
            # psi(w* w) less the counit terms of the product
            norm_sq = inner_eta(ra, rb, cr, ci, s)
            lhs = from_parts(c, d, t) - from_parts(re, im, s) + norm_sq
            return fail("positivity", {"word": word_to_strs(p.kind, w),
                                       "psi": str(lhs), "norm_sq": str(norm_sq)})

    return VerifyReport(passed=True, counts=counts, witness=None)


# --- Gaussianity ----------------------------------------------------


class GaussianReport(NamedTuple):
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
    """True when psi vanishes on the truncated span of triple kernel products.

    The distinct products come one at a time (`kn_products`), each formed
    once, in one pass, from a distinct prefix, and the check stops at the
    first on which psi is not zero, its witness, so no product past the
    witness is formed, nor a group psi past the suffixes of its terms.
    `checked` counts the distinct products up to and including the witness,
    or all of them when there is none.  A group psi that does not descend
    (`descent_defect`) raises ValueError.
    """
    if functional.kind == GROUP:
        _require_descent(functional)
    checked = 0
    for el in kn_products(functional.presentation, 3, max_len):
        value = functional.eval_element(el)
        checked += 1
        if not value.is_zero():
            return GaussianReport(gaussian=False, checked=checked,
                                  witness=el, witness_value=value)
    return GaussianReport(gaussian=True, checked=checked,
                          witness=None, witness_value=None)


# --- truncated GNS --------------------------------------------------


class GnsResult(NamedTuple):
    kind: str
    words: tuple
    gram: tuple
    rank: int
    psd: linalg.PsdResult
    pivot_words: tuple | None

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


def _group_gram(functional, words):
    """The rows of `gns_truncated` on a group, the eta Gram E*GE: row i is
    the form's `pairing` of the cocycle's memo column of w_i
    (`Cocycle._scaled_eta`) with every column, by one `_dots` line."""
    _require_descent(functional)
    cocycle = functional.cocycle
    n, pairing = cocycle.form.dim, cocycle.form.pairing
    cols = list(map(cocycle._scaled_eta, words))
    cas, scales = [re for re, _, _ in cols], [u for _, _, u in cols]
    cbs = _imaginary([im for _, im, _ in cols], n + 1)
    gram = []
    for re, im, u in cols:
        # the row has n entries, so `_dots` reads eta(w_j) only
        ra, rb, s = pairing((re[:n], im and im[:n], u))
        res, ims = _dots(ra, rb, cas, cbs)
        gram.append(list(map(from_parts, res, ims or itertools.repeat(0),
                             [s * t for t in scales])))
    return gram


def _star_gram(functional, words):
    """The rows of `gns_truncated` on a star algebra."""
    p, table = functional.presentation, functional.table
    psi = [functional.fold(w) for w in words]
    stars = [p.involve_word(w) for w in words]
    psi_star = [functional.fold(s) for s in stars]
    support = functional.support
    eps = [p._word_character(w) for w in words]
    k = p.junction_width
    heads = {}
    head_of = [heads.setdefault(w[:k], len(heads)) for w in words]
    junctions = {}  # (tail, head) -> `junction_redex` of the two
    gram = []
    # psi((w_i - eps_i)* (w_j - eps_j)), expanded through psi(1) = 0
    for star, e_i, p_i in zip(stars, eps, psi_star):
        # reduce(star v)'s scan, the same for every v up to the last k letters
        coeff, cur, steps = p._rewrite([p._letters[l] for l in star], star,
                                       0, keep=k)
        if coeff.is_zero():
            row = [ZERO] * len(words)
        else:
            at = max(0, len(cur) - k)
            tail = cur[at:]
            # per head: None for the concatenation, ZERO for a zero
            # product, or where the rewrite resumes
            starts = []
            for head in heads:
                if (tail, head) not in junctions:
                    junctions[tail, head] = p.junction_redex(tail, head)
                redex = junctions[tail, head]
                if redex is not None:
                    redex = (ZERO if redex[1].coeff.is_zero()
                             else at + redex[0])
                starts.append(redex)
            room = support - len(cur)
            row = []
            for w, h in zip(words, head_of):
                start = starts[h]
                if start is None:
                    # the table keeps nonzero values only: ZERO marks a miss
                    x = table.get(cur + w, ZERO)
                    if x is ZERO:
                        if len(w) > room:
                            raise TableSupportExceeded(cur + w, support)
                    elif coeff is not ONE:
                        x = coeff * x
                elif start is ZERO:
                    x = ZERO
                else:
                    c, red, _ = p._rewrite(list(cur + w), star + w, start,
                                           coeff, steps)
                    x = ZERO if c.is_zero() else c * functional.read(red)
                row.append(x)
        if not e_i.is_zero():
            e_i = e_i.conj()
            row = [x - e_i * y for x, y in zip(row, psi)]
        if not p_i.is_zero():
            row = [x if e.is_zero() else x - e * p_i
                   for x, e in zip(row, eps)]
        gram.append(row)
    return gram


def gns_truncated(functional, max_len: int) -> GnsResult:
    """Gram matrix of the kernel elements w - eps(w) under psi(a* b).

    Returns the exact Gram matrix, its rank, a semidefiniteness verdict
    with witness, and, when semidefinite, the pivot words, the first
    maximal independent set of word classes.

    On a group every counit is 1 and entry (i, j), psi(w_i* w_j) less
    psi(w_j) and psi(w_i*), is <eta(w_i), eta(w_j)>, read from the
    cocycle on the words up to max_len (`_group_gram`); a psi that does
    not descend (`descent_defect`) is no generating functional, and raises
    ValueError.

    On a star algebra psi is read up to word length 2 * max_len, on the
    words and their stars w_i* before the rows, so an error names the word
    that the row-major order meets first.  Each row rewrites its star
    once, as `reduce(w_i* w_j)` does for every w_j until it reaches the
    junction (`Presentation._rewrite` up to the star's last
    `junction_width` letters), and what follows is decided once per
    distinct (tail, head) pair (`Presentation.junction_redex`): with no
    redex there the product is the concatenation, read straight from the
    table; when the first listed rule matching there has coefficient 0
    the product is 0; else the rewrite resumes from that redex, with the
    star's coefficient and step count.  Counit terms are formed only where
    the counit is nonzero.
    """
    p = functional.presentation
    words = tuple(p.words_up_to(max_len, include_empty=False))
    rows_of = _group_gram if p.kind == GROUP else _star_gram
    gram = tuple(map(tuple, rows_of(functional, words)))
    # one conversion to integer rows, read by both eliminations
    rows = linalg.IntegerRows(gram)
    pivot_idx = linalg.rref(rows)[1]
    psd = linalg.psd_check(rows)
    return GnsResult(kind=p.kind, words=words, gram=gram, rank=len(pivot_idx),
                     psd=psd,
                     pivot_words=(tuple(words[i] for i in pivot_idx)
                                  if psd.psd else None))


# --- the well-definedness oracle ------------------------------------


class OracleReport(NamedTuple):
    passed: bool
    words: int  # words folded, the empty word included
    pairs: int  # identities compared
    # evaluator "psi", the empty word word_a, the defining word word_b, and
    # their psi values value_a and value_b
    counterexample: dict | None

    def to_json(self):
        ce = self.counterexample
        if ce is not None:
            ce = {"evaluator": ce["evaluator"],
                  "word_a": word_to_strs(GROUP, ce["word_a"]),
                  "word_b": word_to_strs(GROUP, ce["word_b"]),
                  "value_a": str(ce["value_a"]),
                  "value_b": str(ce["value_b"])}
        return {**self._asdict(), "counterexample": ce}


def brute_force_welldefinedness_oracle(cocycle: Cocycle,
                                       functional: GroupFunctional,
                                       presentation: Presentation,
                                       normal_form,
                                       max_len: int) -> OracleReport:
    """Whether the letter data descends to the group: psi folded on each
    defining word (`defining_words`) against the empty word.

    With rho(w) = [[pi(w), eta(w), 0], [0, eps(w), 0], [<eta(w^-1), .>,
    psi(w), eps(w)]], psi is well defined on the group algebra exactly when
    rho(w) = I on every defining word w.  A validated cocycle has a unitary
    representation and eta(r) = 0 on every relator r, so only the psi entry
    can differ from the empty word's, and the oracle is the loop of
    `descent_defect`: it returns the first nonzero fold, the empty word as
    word_a.  `normal_form` and `max_len` are ignored; `cocycle` must be the
    functional's own.
    """
    if presentation.kind != GROUP:
        raise ValueError("the oracle needs a group presentation")
    if functional is None or cocycle is not functional.cocycle:
        raise ValueError("the oracle folds psi with the functional's cocycle")
    pairs, word, k = _first_nonzero_fold(functional)
    return OracleReport(
        passed=word is None, words=pairs + 1, pairs=pairs,
        counterexample=None if word is None else {
            "evaluator": "psi", "word_a": (), "word_b": word,
            "value_a": functional.fold(()), "value_b": k})
