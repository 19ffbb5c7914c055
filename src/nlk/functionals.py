"""Generating functionals: folding, solving, verification, GNS truncation.

For group presentations a functional is determined by its generator values;
hermitianity forces psi(g^-1) = conj(psi(g)) and the norm identity forces
Re psi(g) = -1/2 <eta(g), eta(g)>, leaving the imaginary parts as the only
unknowns.  Existence is decided by folding psi along each relator and solving
the resulting rational linear system in those imaginary parts.

For star-algebra presentations functionals are explicit monomial tables and
are verified, not solved for.

`verify_schurmann_triple` and the normal-form oracle run over every word up
to a length.  They fill eta and a group psi one length level at a time
(`cocycles.fold_levels`; `GroupFunctional.fill_levels` forms psi(l w) for a
whole level with one integer product), so their per-word reads are memo
hits.  `verify` then tests each length class of coboundary pairs against
one integer product (`scalars.product_lines`), one row per word a of the
class and one column per word b it pairs with.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .cocycles import (
    Cocycle,
    exponent_matrix,
    fold_levels,
    fold_suffixes,
    solve_exponent_sums,
)
from .linalg import IndefiniteFormError
from .presentations import (
    GROUP,
    STAR_ALGEBRA,
    AlgebraElement,
    Presentation,
    kn_spanning_set,
    word_to_strs,
)
from .scalars import I, ONE, ZERO, Scalar, common_forms, product_lines, products


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

    def fill_levels(self, words):
        """Memoise psi, and eta on the cocycle, for a word list that
        `fold_levels` accepts; eta comes first, so reading a tail's eta is a
        memo hit."""
        self.cocycle.fill_levels(words)
        fold_levels(self._psi_memo, words, self._psi_batch)

    def _psi_batch(self, tails):
        # psi(l w) = [conj(G eta(l^-1)) | 1 | psi(l)] [eta(w); psi(w); 1]:
        # each tail's column against the rows of every letter of the level
        cocycle = self.cocycle
        gram = cocycle.form.gram
        at, rows = {}, []
        for letter in dict.fromkeys(l for ls in tails.values() for l in ls):
            at[letter] = len(rows)
            inv_eta = cocycle.letter_value((letter[0], -letter[1]))
            rows.append((*linalg.mvmul_conj_row(gram, inv_eta),
                         ONE, self.psi_letter(letter)))
        eta, psi = cocycle.eval_word, self._psi_memo
        cols = [(*eta(w), psi[w], ONE) for w in tails]
        for line, letters in zip(product_lines(cols, common_forms(rows)),
                                 tails.values()):
            yield [line[at[l]] for l in letters]

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
    solved = solve_exponent_sums(p, rhs)
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


class VerifyReport(NamedTuple):
    passed: bool
    counts: dict
    witness: dict | None

    def to_json(self):
        return {"passed": self.passed, "counts": dict(self.counts),
                "witness": self.witness}


def psi_product(functional, psi, w1, w2) -> Scalar:
    """psi(w1 w2) for words w1 and w2, through the reduced product word.

    On groups `psi` caches psi on freely reduced words and a product missing
    from it is folded by the functional.  On star algebras the product is
    reduced once and its canonical word read from the functional's table.
    """
    p = functional.presentation
    if p.kind == GROUP:
        red = p.free_reduce(w1 + w2)
        cached = psi.get(red)
        return cached if cached is not None else functional.psi_word(red)
    coeff, red = p.reduce(w1 + w2)
    if coeff.is_zero():
        return ZERO
    return coeff * functional.table.get(red, ZERO)


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
                    target = psi_ab[ab] = psi_product(functional, psi, wa, wb)
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
    psi = {w: functional.psi_word(w) for w in words}
    psi[()] = ZERO
    eps = [p._word_character(w) for w in words]
    stars = [p.involve_word(w) for w in words]
    psi_star = [functional.psi_word(s) for s in stars]
    n = len(words)
    # psi((w_i - eps_i)* (w_j - eps_j)), expanded through psi(1) = 0
    gram = tuple(
        tuple(psi_product(functional, psi, stars[i], words[j])
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
        if not set(n for n, _ in self._letters) <= set(presentation.generators):
            raise NoNormalForm("normal form names generators the presentation lacks")
        self.identity = (0, 0, 0)

    def step(self, letter, tail_key):
        flip, (dm, dn) = self._letters[letter]
        s, m, n = tail_key
        return (1 - s, dm - m, dn - n) if flip else (s, dm + m, dn + n)


def build_normal_form(presentation, config):
    if config is None:
        raise NoNormalForm("no normal form configured for this presentation")
    kind = config.get("kind")
    if kind == "abelian":
        nf = AbelianExponents(presentation)
    elif kind == "p2":
        nf = P2NormalForm(presentation,
                          a=config.get("a", "a"), b=config.get("b", "b"),
                          r=config.get("r", "r"))
    else:
        raise NoNormalForm(f"unknown normal form {kind!r}")
    ident = nf.key(())
    for rel in presentation.relators:
        if nf.key(rel) != ident:
            raise NoNormalForm(
                f"normal form does not kill relator {word_to_strs(GROUP, rel)}")
    return nf


class OracleReport(NamedTuple):
    passed: bool
    words: int
    pairs: int
    counterexample: dict | None

    def to_json(self):
        return self._asdict()


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
