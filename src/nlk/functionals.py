"""Generating functionals: folding, solving, verification, GNS truncation.

For group presentations a functional is determined by its generator values;
hermitianity forces psi(g^-1) = conj(psi(g)) and the norm identity forces
Re psi(g) = -1/2 <eta(g), eta(g)>, leaving the imaginary parts as the only
unknowns.  Existence is decided by folding psi along each relator and solving
the resulting rational linear system in those imaginary parts.

For star-algebra presentations functionals are explicit monomial tables and
are verified, not solved for.

Every group psi comes from `GroupFunctional.fill_levels`, which fills eta,
then psi, a length level at a time with one integer product per level; a
`fold` that misses fills the word's missing suffixes the same way.  Verify
and the oracle fill every word up to their length, GNS up to twice its
length, Gaussianity up to its longest product term.  `verify` then tests
each length class of coboundary pairs with one integer product
(`scalars.product_lines`), a row per word a and a column per word b.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .cocycles import (
    Cocycle,
    exponent_matrix,
    fold_levels,
    missing_suffixes,
    solve_exponent_sums,
)
from .linalg import IndefiniteFormError
from .presentations import (
    GROUP,
    STAR_ALGEBRA,
    AlgebraElement,
    Presentation,
    kn_products,
    word_to_strs,
)
from .scalars import (I, ONE, ZERO, Scalar, common_forms, product_lines,
                      products, scaled, scaled_product, scaled_rows)


class NoNormalForm(ValueError):
    code = "NO_NORMAL_FORM"


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
        self._psi_memo = {(): ZERO}
        self._rows = None

    kind = GROUP

    def psi_letter(self, letter) -> Scalar:
        name, tag = letter
        v = self.values[name]
        return v if tag == 1 else v.conj()

    def fold(self, word) -> Scalar:
        """psi(w) by psi(l w) = psi(l) + <eta(l^-1), eta(w)> + psi(w).

        psi is memoised on this functional for as long as it lives; a miss
        fills the word's missing suffixes.  Accepts unreduced words; the
        result only depends on the group element when the cocycle data
        respects the relators.
        """
        word = tuple(word)
        if word not in self._psi_memo:
            self.fill_levels(missing_suffixes(self._psi_memo, (word,)))
        return self._psi_memo[word]

    def fill_levels(self, words):
        """Memoise eta on the cocycle, then psi, for a word list that
        `fold_levels` accepts."""
        self.cocycle.fill_levels(words)
        fold_levels(self._psi_memo, words, self._psi_batch)

    def _letter_rows(self):
        """Each letter's row [conj(G eta(l^-1)) | 1 | psi(l)], formed on first
        use as [conj(eta(l^-1)) | 1] [[G, 0], [0, 1]] with psi(l) appended."""
        if self._rows is None:
            cocycle, letters = self.cocycle, self.presentation.alphabet()
            gram = cocycle.form.gram
            inner = scaled_product(
                scaled([(*(x.conj() for x in cocycle.letter_value((g, -t))), ONE)
                        for g, t in letters]),
                scaled([(*row, ZERO) for row in gram]
                       + [(ZERO,) * len(gram) + (ONE,)]))
            self._rows = dict(zip(letters, scaled_rows(
                inner, [self.psi_letter(l) for l in letters])))
        return self._rows

    def _psi_batch(self, letters, tails):
        # psi(l w) = [conj(G eta(l^-1)) | 1 | psi(l)] [eta(w); psi(w); 1]:
        # each tail's column against the rows of every letter, one kernel call
        # fill_levels has filled eta for every tail
        eta, psi, rows = self.cocycle._eta_memo, self._psi_memo, self._letter_rows()
        return product_lines([(*eta[w][0], psi[w], ONE) for w in tails],
                             [rows[l] for l in letters])

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


class _Table(dict):
    """psi by canonical word: 0 on a word within the support that the table
    leaves out, and TableSupportExceeded on a longer one.  Every read of a
    star functional is a lookup here."""

    __slots__ = ("support",)

    def __missing__(self, word):
        if len(word) > self.support:
            raise TableSupportExceeded(word, self.support)
        return ZERO


class StarFunctional:
    """psi on a star-algebra presentation, given as a monomial table.

    Keys must be canonical words, and the empty word may not carry a nonzero
    value.  The table's support is the length of its longest key, zero-valued
    keys included.
    """

    def __init__(self, presentation: Presentation, table):
        if presentation.kind != STAR_ALGEBRA:
            raise ValueError("StarFunctional needs a star-algebra presentation")
        self.presentation = presentation
        canon = _Table()
        canon.support = max(map(len, table), default=0)
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
        return c * self.table[red]

    def eval_element(self, element: AlgebraElement) -> Scalar:
        out = ZERO
        for w, coeff in element.terms.items():
            out = out + coeff * self.table[w]
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


def relator_folds(functional: GroupFunctional) -> list:
    """psi on each relator, the relators' missing suffixes filled together."""
    relators = functional.presentation.relators
    functional.fill_levels(missing_suffixes(functional._psi_memo, relators))
    return [functional.fold(r) for r in relators]


_MINUS_HALF = Scalar(Fraction(-1, 2))


def forced_real_parts(cocycle: Cocycle) -> dict:
    """Re psi(g) = -1/2 <eta(g), eta(g)> on every generator g, each norm from
    two integer products, conj(eta(g)) G and then eta(g); the form is
    hermitian, so the norm is real."""
    cols = common_forms(zip(*cocycle.form.gram))
    out = {}
    for g in cocycle.presentation.generators:
        eta = cocycle.letter_value((g, 1))
        row = next(product_lines([[x.conj() for x in eta]], cols))
        out[g] = products([row], [eta])[0][0] * _MINUS_HALF
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
    readings = tuple(RelatorReading(relator=r, k_r=k, re_violation=k.re != 0)
                     for r, k in zip(p.relators, relator_folds(base)))
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
    both read off one integer product lam [a_mat | rhs].
    """
    if len(lam) != len(a_mat):
        return "certificate has the wrong size"
    *combined, paired = products([lam], [*zip(*a_mat), rhs])[0]
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


def psi_product(functional, psi, w1, w2, left_canonical=False) -> Scalar:
    """psi(w1 w2) for a word w1 and a canonical word w2, through the reduced
    product word.

    When w1 is canonical too (`left_canonical`), the product is reduced only
    at the junction (`Presentation.multiply`); otherwise the concatenation is
    reduced from its first letter.  On groups `psi` caches psi on freely
    reduced words and a product missing from it is folded by the functional.
    On star algebras the product's canonical word is read from the
    functional's table.
    """
    p = functional.presentation
    if left_canonical:
        coeff, red = p.multiply(w1, w2)
    else:
        coeff, red = p.reduce(w1 + w2)
    if p.kind == GROUP:
        cached = psi.get(red)
        return cached if cached is not None else functional.psi_word(red)
    if coeff.is_zero():
        return ZERO
    return coeff * functional.table[red]


def _level_ends(words, max_len):
    """upto[k]: how many words of a shortest-first list have length <= k."""
    upto = [0] * (max_len + 1)
    for w in words:
        upto[len(w)] += 1
    for k in range(1, max_len + 1):
        upto[k] += upto[k - 1]
    return upto


def verify_schurmann_triple(cocycle: Cocycle, functional, max_len: int) -> VerifyReport:
    """Check the triple identities on all canonical words up to max_len.

    Checks, in order: psi(1) = 0; hermitianity psi(w*) = conj(psi(w)) for
    |w| <= max_len; the coboundary identity
    eps(a) psi(b) - psi(ab) + psi(a) eps(b) = -<eta(a*), eta(b)> for word
    pairs with |a| + |b| <= max_len; and the squared-norm identity
    psi(k* k) = <eta(k), eta(k)> for k = w - eps(w), |w| <= max_len // 2.
    Stops at the first violation.

    eta and a group psi are filled a level at a time.  The coboundary
    identity holds exactly when eps(a) psi(b) + psi(a) eps(b)
    + <eta(a*), eta(b)> equals psi(ab).  Those sums, for every a of one
    length and every b it pairs with, are one integer product: rows
    (conj(G eta(a*)), eps(a), psi(a)) by columns (eta(b), psi(b), eps(b)).
    The columns are brought to their denominators once per call and a
    class's lines are formed lazily, so a failing check forms no line past
    its witness's.  psi(ab) is read once per distinct concatenation ab.
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
    cocycle.fill_levels(words)
    if isinstance(functional, GroupFunctional):
        functional.fill_levels(words)
    psi = {w: functional.psi_word(w) for w in words}
    psi[()] = ZERO
    eta = {w: cocycle.eval_word(w) for w in words}
    if p.kind == GROUP:
        one_s = Scalar.coerce(1)
        eps = {w: one_s for w in words}
    else:
        eps = {w: p._word_character(w) for w in words}
    stars = {w: p.involve_word(w) for w in words}

    for w in words:
        lhs = functional.psi_word(stars[w])
        rhs = psi[w].conj()
        counts["hermitian"] += 1
        if lhs != rhs:
            return fail("hermitian", {"word": word_to_strs(p.kind, w),
                                      "psi_star": str(lhs),
                                      "conj_psi": str(rhs)})

    # the stars of a prefix-closed list are suffix-closed
    cocycle.fill_levels(list(stars.values()))
    eta_star = {w: cocycle.eval_word(stars[w]) for w in words}
    gram_cols = tuple(zip(*form.gram))
    cols = common_forms([(*eta[w], psi[w], eps[w]) for w in words])
    upto = _level_ends(words, max_len)
    psi_ab = {}  # psi(ab) by the raw concatenation, for this call only

    for k in range(1, max_len + 1):
        class_a = words[upto[k - 1]:upto[k]]
        n_b = upto[max_len - k]
        if not class_a or not n_b:
            continue
        # <eta(a*), x> = conj(eta(a*)) G x, so each row pairs with
        # (eta(b), psi(b), eps(b)) to eps(a) psi(b) + psi(a) eps(b)
        # + <eta(a*), eta(b)>
        inner = products([[x.conj() for x in eta_star[wa]] for wa in class_a],
                         gram_cols)
        rows = [(*g, eps[wa], psi[wa]) for g, wa in zip(inner, class_a)]
        for wa, line in zip(class_a, product_lines(rows, cols[:n_b])):
            for wb, value in zip(words, line):
                ab = wa + wb
                target = psi_ab.get(ab)
                if target is None:
                    target = psi_ab[ab] = psi_product(functional, psi,
                                                      wa, wb, True)
                if value != target:
                    counts["coboundary"] += words.index(wb) + 1
                    lhs = eps[wa] * psi[wb] - target + psi[wa] * eps[wb]
                    rhs = -form.inner(eta_star[wa], eta[wb])
                    return fail("coboundary", {"a": word_to_strs(p.kind, wa),
                                               "b": word_to_strs(p.kind, wb),
                                               "lhs": str(lhs), "rhs": str(rhs)})
            counts["coboundary"] += n_b

    for w in words:
        if len(w) > max_len // 2:
            continue
        # psi((w - eps(w))* (w - eps(w))) expanded through psi(1) = 0
        lhs = (psi_product(functional, psi, stars[w], w)
               - eps[w] * functional.psi_word(stars[w])
               - eps[w].conj() * psi[w])
        rhs = form.inner(eta[w], eta[w])
        counts["positivity"] += 1
        if lhs != rhs:
            return fail("positivity", {"word": word_to_strs(p.kind, w),
                                       "psi": str(lhs), "norm_sq": str(rhs)})

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

    The distinct products come one at a time (`kn_products`), and the check
    stops at the first on which psi is not zero, its witness, so no product
    past the witness is formed, nor a group psi level past its terms.
    `checked` counts the distinct products up to and including the witness,
    or all of them when there is none.
    """
    p = functional.presentation
    checked = filled = 0
    for el in kn_products(p, 3, max_len):
        longest = max(map(len, el.terms), default=0)
        if longest > filled and isinstance(functional, GroupFunctional):
            functional.fill_levels(p.words_up_to(longest))
            filled = longest
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
    eta_vectors: dict | None     # word -> coordinates over the pivot words
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


def gns_truncated(functional, max_len: int) -> GnsResult:
    """Gram matrix of the kernel elements w - eps(w) under psi(a* b).

    Needs psi defined up to word length 2 * max_len.  Returns the exact Gram
    matrix, its rank, a semidefiniteness verdict with witness, and, when
    semidefinite, the classes of the words expressed over a maximal
    independent subset (these are the truncated GNS vectors of eta).
    """
    p = functional.presentation
    words = tuple(p.words_up_to(max_len, include_empty=False))
    if isinstance(functional, GroupFunctional):
        # every Gram entry reads psi on a word of length <= 2 * max_len
        functional.fill_levels(p.words_up_to(2 * max_len))
    psi = {w: functional.psi_word(w) for w in words}
    psi[()] = ZERO
    eps = [p._word_character(w) for w in words]
    stars = [p.involve_word(w) for w in words]
    psi_star = [functional.psi_word(s) for s in stars]
    # the inverse of a freely reduced word is freely reduced; a raw star is
    # canonical when it is its own reduction
    canonical = [p.kind == GROUP or p.reduce(s) == (ONE, s) for s in stars]
    n = len(words)
    # psi((w_i - eps_i)* (w_j - eps_j)), expanded through psi(1) = 0
    gram = tuple(
        tuple(psi_product(functional, psi, stars[i], words[j], canonical[i])
              - eps[j] * psi_star[i] - eps[i].conj() * psi[words[j]]
              for j in range(n))
        for i in range(n))
    # one elimination: the pivot columns are the first maximal independent set
    # of word classes, and column j of the reduced rows gives w_j over them
    red, pivot_idx = linalg.rref(gram)
    rank = len(pivot_idx)
    psd = linalg.psd_check(gram)
    if not psd.psd:
        return GnsResult(kind=p.kind, words=words, gram=gram, rank=rank, psd=psd,
                         eta_vectors=None, pivot_words=None)
    eta_vectors = {w: tuple(red[i][j] for i in range(rank))
                   for j, w in enumerate(words)}
    return GnsResult(kind=p.kind, words=words, gram=gram, rank=rank, psd=psd,
                     eta_vectors=eta_vectors,
                     pivot_words=tuple(words[i] for i in pivot_idx))


# --- brute-force oracle --------------------------------------------


class _NormalForm:
    """Keys of group elements; step(l, key(w)) is the key of l·w."""

    def key(self, word):
        k = self.identity
        for l in reversed(word):
            k = self.step(l, k)
        return k

    def buckets(self, words) -> dict:
        """Words by key, in list order; a shortest-first suffix-closed list,
        as words_up_to returns, gives each key one step from its tail's."""
        keys = {(): self.identity}
        buckets = {}
        for w in words:
            if w:
                keys[w] = self.step(w[0], keys[w[1:]])
            buckets.setdefault(keys[w], []).append(w)
        return buckets


class AbelianExponents(_NormalForm):
    """Normal form for presentations whose group is free abelian."""

    name = "abelian"

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        self._order = {g: i for i, g in enumerate(presentation.generators)}
        self.identity = (0,) * len(self._order)

    def step(self, letter, tail_key):
        i = self._order[letter[0]]
        return tail_key[:i] + (tail_key[i] + letter[1],) + tail_key[i + 1:]


class P2NormalForm(_NormalForm):
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
        self.identity = (0, 0, 0)

    def step(self, letter, tail_key):
        flip, (dm, dn) = self._letters[letter]
        s, m, n = tail_key
        return (1 - s, dm - m, dn - n) if flip else (s, dm + m, dn + n)


def build_normal_form(presentation, config):
    """The configured normal form, refused unless it is faithful.

    A key names the elements of its model group F/N0 faithfully, N0 being
    the normal closure of the model's defining relators.  The key must kill
    every relator of the presentation (N inside N0), and a bounded relator
    search must certify each defining relator trivial (N0 inside N); then
    N = N0 and equal keys name equal elements.
    """
    if config is None:
        raise NoNormalForm("no normal form configured for this presentation")
    if presentation.kind != GROUP:
        raise NoNormalForm("normal forms name group elements")
    kind = config.get("kind")
    if kind == "abelian":
        fields = {"kind"}
        nf = AbelianExponents(presentation)
        model = [((g, 1), (h, 1), (g, -1), (h, -1)) for g, h
                 in itertools.combinations(presentation.generators, 2)]
    elif kind == "p2":
        fields = {"kind", "a", "b", "r"}
        a, b, r = names = [config.get(n, n) for n in ("a", "b", "r")]
        if not all(isinstance(n, str) for n in names) \
                or sorted(names) != sorted(presentation.generators):
            raise NoNormalForm(f"the p2 normal form needs the generators to "
                               f"be exactly {names}")
        nf = P2NormalForm(presentation, a=a, b=b, r=r)
        model = [((a, 1), (b, 1), (a, -1), (b, -1)), ((r, 1), (r, 1)),
                 ((r, 1), (a, 1), (r, 1), (a, 1)),
                 ((r, 1), (b, 1), (r, 1), (b, 1))]
    else:
        raise NoNormalForm(f"unknown normal form {kind!r}")
    extra = sorted(set(config) - fields)
    if extra:
        raise NoNormalForm(f"unknown fields {extra} in the {kind} normal form")
    ident = nf.key(())
    for rel in presentation.relators:
        if nf.key(rel) != ident:
            raise NoNormalForm(
                f"normal form does not kill relator {word_to_strs(GROUP, rel)}")
    for rel in model:
        if not presentation.equal_mod_relators(rel, ()):
            raise NoNormalForm(
                f"the relators do not certify the {kind} relator "
                f"{word_to_strs(GROUP, rel)}, so the normal form may merge "
                f"distinct elements")
    return nf


class OracleReport(NamedTuple):
    passed: bool
    words: int
    pairs: int
    # evaluator, the words word_a and word_b, and their values value_a and
    # value_b (eta vectors or psi Scalars)
    counterexample: dict | None

    def to_json(self):
        ce = self.counterexample
        if ce is not None:
            show = str if ce["evaluator"] == "psi" else linalg.vector_to_json
            ce = {"evaluator": ce["evaluator"],
                  "word_a": word_to_strs(GROUP, ce["word_a"]),
                  "word_b": word_to_strs(GROUP, ce["word_b"]),
                  "value_a": show(ce["value_a"]),
                  "value_b": show(ce["value_b"])}
        return {**self._asdict(), "counterexample": ce}


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
    words = presentation.words_up_to(max_len, include_empty=True)
    buckets = normal_form.buckets(words)
    # the word list is suffix-closed, so both evaluators can be filled a
    # level at a time; a level is filled when its first word is read, so a
    # failing run evaluates nothing past the level of its counterexample
    upto = _level_ends(words, max_len)
    filled = 0

    def fill_to(length):
        nonlocal filled
        new = words[upto[filled]:upto[length]]
        if cocycle is not None:
            cocycle.fill_levels(new)
        if functional is not None:
            functional.fill_levels(new)
        filled = length

    def found(evaluator, word_a, word_b, value_a, value_b):
        return OracleReport(passed=False, words=len(words), pairs=pairs,
                            counterexample={
                                "evaluator": evaluator, "word_a": word_a,
                                "word_b": word_b, "value_a": value_a,
                                "value_b": value_b})

    pairs = 0
    for key in buckets:
        group_words = buckets[key]
        rep_word = group_words[0]
        if len(rep_word) > filled:
            fill_to(len(rep_word))
        eta_ref = cocycle.eval_word(rep_word) if cocycle is not None else None
        psi_ref = functional.fold(rep_word) if functional is not None else None
        for w in group_words[1:]:
            pairs += 1
            if len(w) > filled:
                fill_to(len(w))
            if cocycle is not None:
                ev = cocycle.eval_word(w)
                if ev != eta_ref:
                    return found("cocycle", rep_word, w, eta_ref, ev)
            if functional is not None:
                pv = functional.fold(w)
                if pv != psi_ref:
                    return found("psi", rep_word, w, psi_ref, pv)
    return OracleReport(passed=True, words=len(words), pairs=pairs,
                        counterexample=None)
