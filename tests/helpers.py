"""Independent reference arithmetic used to cross-check package results.

Everything in this module is deliberately naive.  Complex rationals are
plain (Fraction, Fraction) pairs, matrices are tuples of tuples of such
pairs, and words are evaluated letter by letter from the definitions.
The reference arithmetic uses nothing from the package, so a bug in the
package cannot leak into the expected values it produces.  Conversion
helpers only read .re/.im attributes off objects they are handed;
spanning_products only reduces concatenations of the words of the elements
it is handed (`Presentation.reduce`), never multiplying elements, and
verify_per_pair and oracle_per_word only call the per-word methods of the
objects they are handed, and gns_gram_per_entry only the functions it is
handed; check_group_memo reads a group functional's memo and the data it
was built from.

The fixtures at the end build package objects: the obstruction 2-cochain
L(eta) with its Hochschild boundary, which `cocycles.big_K` is compared
with, `vsub` and `is_zero_vector` on vectors of package Scalars, the
closure loop that `decompose.invariant_closure` is compared with, the
coboundary cocycle of a vector with its functional PhiV, and a scenario
document whose supplied psi is no functional.
"""

import copy
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from nlk import catalog, linalg
from nlk.cocycles import Cocycle
from nlk.presentations import GROUP, AlgebraElement, letter_str
from nlk.scalars import ZERO

CZERO = (Fraction(0), Fraction(0))
CONE = (Fraction(1), Fraction(0))
CI = (Fraction(0), Fraction(1))


def c(re, im=0):
    return (Fraction(re), Fraction(im))


def cadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def csub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def cneg(u):
    return (-u[0], -u[1])


def cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def cconj(u):
    return (u[0], -u[1])


def cdiv(u, v):
    d = v[0] * v[0] + v[1] * v[1]
    if d == 0:
        raise ZeroDivisionError("division by zero pair")
    return ((u[0] * v[0] + u[1] * v[1]) / d, (u[1] * v[0] - u[0] * v[1]) / d)


def cis_zero(u):
    return u[0] == 0 and u[1] == 0


def vadd(u, v):
    return tuple(cadd(a, b) for a, b in zip(u, v))


def vneg(u):
    return tuple(cneg(a) for a in u)


def vscale(s, u):
    return tuple(cmul(s, a) for a in u)


def zero_vec(n):
    return (CZERO,) * n


def mid(n):
    return tuple(tuple(CONE if i == j else CZERO for j in range(n))
                 for i in range(n))


def mmul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = CZERO
            for t in range(k):
                s = cadd(s, cmul(a[i][t], b[t][j]))
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mvec(a, v):
    out = []
    for row in a:
        s = CZERO
        for x, y in zip(row, v):
            s = cadd(s, cmul(x, y))
        out.append(s)
    return tuple(out)


def minv(a):
    """Inverse by Gauss-Jordan elimination, exact arithmetic throughout."""
    n = len(a)
    work = [list(row) + list(ident_row)
            for row, ident_row in zip(a, mid(n))]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not cis_zero(work[r][col]):
                pivot = r
                break
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = cdiv(CONE, work[col][col])
        work[col] = [cmul(inv_p, x) for x in work[col]]
        for r in range(n):
            if r != col and not cis_zero(work[r][col]):
                factor = work[r][col]
                work[r] = [csub(x, cmul(factor, y))
                           for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def naive_det(a):
    """Cofactor expansion along the first row."""
    n = len(a)
    if n == 0:
        return CONE
    if n == 1:
        return a[0][0]
    total = CZERO
    for j in range(n):
        minor = tuple(tuple(row[k] for k in range(n) if k != j)
                      for row in a[1:])
        term = cmul(a[0][j], naive_det(minor))
        total = cadd(total, term) if j % 2 == 0 else csub(total, term)
    return total


def psd_witness(gram):
    """Semidefiniteness by congruence: (psd, witness v with v* G v < 0).

    Pivots on the first undone nonzero diagonal entry; each row sweep is
    matched by its column sweep, so work == C G C* throughout, and a
    witness maps back by C*.  An undone block with zero diagonal and a
    nonzero entry c at (i, k) gives the witness -c e_i + e_k.
    """
    n = len(gram)
    work = [list(row) for row in gram]
    cmat = [list(row) for row in mid(n)]
    done = [False] * n

    def back_map(v):
        out = [CZERO] * n
        for i in range(n):
            for j in range(n):
                out[j] = cadd(out[j], cmul(cconj(cmat[i][j]), v[i]))
        return tuple(out)

    while True:
        piv = next((j for j in range(n)
                    if not done[j] and not cis_zero(work[j][j])), None)
        if piv is None:
            break
        d = work[piv][piv]
        if d[1] != 0:
            raise ValueError("hermitian matrix has non-real diagonal")
        if d[0] < 0:
            return False, back_map([CONE if k == piv else CZERO
                                    for k in range(n)])
        for i in range(n):
            if i == piv or done[i] or cis_zero(work[i][piv]):
                continue
            f = cdiv(work[i][piv], d)
            work[i] = [csub(x, cmul(f, y)) for x, y in zip(work[i], work[piv])]
            cmat[i] = [csub(x, cmul(f, y)) for x, y in zip(cmat[i], cmat[piv])]
            for k in range(n):
                work[k][i] = csub(work[k][i], cmul(cconj(f), work[k][piv]))
        done[piv] = True
    for i in range(n):
        for k in range(n):
            if done[i] or done[k] or k == i or cis_zero(work[i][k]):
                continue
            v = [CZERO] * n
            v[i], v[k] = cneg(work[i][k]), CONE
            return False, back_map(v)
    return True, None


def inner(gram, u, v):
    """Sesquilinear form sum_ij conj(u_i) G_ij v_j, conjugate in slot one."""
    s = CZERO
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            s = cadd(s, cmul(cmul(cconj(ui), gram[i][j]), vj))
    return s


def letter_matrix(images, letter):
    """Matrix of a single letter.

    Group letters carry a +1/-1 tag and inverse letters get the inverse
    matrix.  Star letters carry a 0/1 star tag and starred letters get
    the form-adjoint, which the caller supplies through `adjoints`.
    """
    name, tag = letter
    if tag == -1:
        return minv(images[name])
    return images[name]


def star_letter_matrix(images, gram, letter):
    name, tag = letter
    m = images[name]
    if tag == 0:
        return m
    g = gram
    ginv = minv(g)
    mstar = tuple(tuple(cconj(m[j][i]) for j in range(len(m)))
                  for i in range(len(m)))
    return mmul(ginv, mmul(mstar, g))


def eval_group_word(images, word):
    out = mid(len(next(iter(images.values())))) if images else mid(0)
    for letter in word:
        out = mmul(out, letter_matrix(images, letter))
    return out


def eta_letter(images, values, letter):
    name, tag = letter
    if tag == -1:
        return vneg(mvec(minv(images[name]), values[name]))
    return values[name]


def letter_data(images, values, word):
    """(pi(l), eta(l), eta(l^-1)) for both letters l = g, g^-1 of each
    generator g in word, with eta(g^-1) = -pi(g)^-1 eta(g): one inverse
    per generator."""
    data = {}
    for name in {name for name, _ in word}:
        m, eta = images[name], values[name]
        inv = minv(m)
        eta_inv = vneg(mvec(inv, eta))
        data[(name, 1)] = (m, eta, eta_inv)
        data[(name, -1)] = (inv, eta_inv, eta)
    return data


def eta_word(images, values, word, dim):
    """Prefix-sum form: eta(w) = sum_j pi(w_1..w_{j-1}) eta(w_j)."""
    data = letter_data(images, values, word)
    prefix = mid(dim)
    acc = zero_vec(dim)
    for letter in word:
        pi, eta, _ = data[letter]
        acc = vadd(acc, mvec(prefix, eta))
        prefix = mmul(prefix, pi)
    return acc


def star_eta_word(images, gram, values, character, word, dim):
    """(eta(w), eps(w)) on a star algebra by eta(l w) = pi(l) eta(w)
    + eta(l) eps(w), from the right end; values and character are keyed by
    letter, a starred letter mapping to the form-adjoint."""
    acc, eps = zero_vec(dim), CONE
    for letter in reversed(word):
        acc = vadd(mvec(star_letter_matrix(images, gram, letter), acc),
                   vscale(eps, values[letter]))
        eps = cmul(character[letter], eps)
    return acc, eps


def psi_letter(psi_values, letter):
    name, tag = letter
    v = psi_values[name]
    if tag == -1:
        return cconj(v)
    return v


def psi_word(images, eta_values, psi_values, gram, word, dim):
    """psi(w) by psi(l v) = psi(l) + <eta(l^-1), eta(v)> + psi(v), the sum
    over the suffixes l v of w.  The suffixes are read from the tail, each
    one's eta kept for the next by eta(l v) = pi(l) eta(v) + eta(l), the
    recursion that `eta_word`'s prefix sum unrolls, so no suffix is folded
    twice."""
    data = letter_data(images, eta_values, word)
    total, eta = CZERO, zero_vec(dim)
    for letter in reversed(word):
        pi, eta_l, eta_inv = data[letter]
        cross = inner(gram, eta_inv, eta)
        total = cadd(total, cadd(psi_letter(psi_values, letter), cross))
        eta = vadd(mvec(pi, eta), eta_l)
    return total


def memo_letter_scale(images, eta_values, psi_values, gram, letter):
    """Q(l), the least common denominator of the entries of the letter's
    matrix [[pi(l), eta(l), 0], [0, 1, 0], [conj(G eta(l^-1)), psi(l), 1]]
    on a group."""
    dim = len(gram)
    inv = eta_letter(images, eta_values, (letter[0], -letter[1]))
    entries = [*itertools.chain(*letter_matrix(images, letter)),
               *eta_letter(images, eta_values, letter),
               *(inner(gram, inv, tuple(CONE if i == j else CZERO
                                        for i in range(dim)))
                 for j in range(dim)),
               psi_letter(psi_values, letter)]
    return math.lcm(*(math.lcm(re.denominator, im.denominator)
                      for re, im in entries))


def check_group_memo(functional, read):
    """Assert three things of a group functional's memo of scaled vectors
    after the words `read` were read: its words are suffixes of them; each
    entry (re, im, U) over U is (eta(w), 1, psi(w)) of the reference folds;
    and U is the product of the letters' Q(l) (`memo_letter_scale`).
    Returns the memo's words.

    The reference takes each word from its tail, eta(l w) = pi(l) eta(w)
    + eta(l) and psi(l w) = psi(l) + <eta(l^-1), eta(w)> + psi(w), with
    each letter's data formed once, so a long memo stays cheap to check.
    """
    cocycle = functional.cocycle
    gram = to_pairs_mat(cocycle.form.gram)
    images = {g: to_pairs_mat(m)
              for g, m in cocycle.representation.images.items()}
    eta = {g: to_pairs_vec(cocycle.values[(g, 1)]) for g in functional.values}
    psi = {g: to_pair(v) for g, v in functional.values.items()}
    memo = functional._memo
    assert set(memo) <= {w[i:] for w in read for i in range(len(w) + 1)}
    letters = {}
    ref = {(): (zero_vec(len(gram)), CZERO, 1)}

    def reference(w):
        """(eta(w), psi(w), U(w)) of the reference."""
        if w not in ref:
            l = w[0]
            if l not in letters:
                letters[l] = (letter_matrix(images, l),
                              eta_letter(images, eta, l),
                              eta_letter(images, eta, (l[0], -l[1])),
                              psi_letter(psi, l),
                              memo_letter_scale(images, eta, psi, gram, l))
            m, eta_l, eta_inv, psi_l, q = letters[l]
            eta_t, psi_t, u = reference(w[1:])
            ref[w] = (vadd(mvec(m, eta_t), eta_l),
                      cadd(cadd(psi_l, inner(gram, eta_inv, eta_t)), psi_t),
                      q * u)
        return ref[w]

    for w, (re, im, u) in memo.items():
        eta_w, psi_w, scale = reference(w)
        assert tuple((Fraction(x, u), Fraction(0 if im is None else im[i], u))
                     for i, x in enumerate(re)) == (*eta_w, CONE, psi_w)
        assert u == scale
    return set(memo)


def madd(a, b):
    return tuple(tuple(cadd(x, y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def conj_transpose(m):
    return tuple(tuple(cconj(m[j][i]) for j in range(len(m)))
                 for i in range(len(m[0]) if m else 0))


def adjoint(gram, m):
    """Adjoint of m under the form with Gram matrix gram: G^-1 m^H G."""
    return mmul(minv(gram), mmul(conj_transpose(m), gram))


def is_unitary(gram, m):
    return mmul(adjoint(gram, m), m) == mid(len(m))


def is_self_adjoint(gram, m):
    return adjoint(gram, m) == m


def rank(rows):
    """Row rank by plain Gaussian elimination."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work))
                      if not cis_zero(work[i][col])), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if not cis_zero(work[i][col]):
                f = cdiv(work[i][col], work[r][col])
                work[i] = [csub(x, cmul(f, y)) for x, y in zip(work[i], work[r])]
        r += 1
    return r


def in_span(vectors, v):
    return rank(list(vectors) + [v]) == rank(list(vectors))


def independent_subset(vectors):
    """Greedy scan: keep each vector that raises the rank of those kept."""
    kept, chosen = [], []
    for idx, v in enumerate(vectors):
        if rank(kept + [v]) > len(kept):
            kept.append(v)
            chosen.append(idx)
    return chosen


class BudgetExceeded(Exception):
    def __init__(self, rule_index, steps, word):
        super().__init__(f"rule {rule_index} applied for step {steps}")
        self.rule_index = rule_index
        self.steps = steps
        self.word = word


def reduce_word(letters, rules, word, budget):
    """Monomial rewriting from the definition.

    `letters` maps each letter to its normalised letter and `rules` is a
    list of (lhs, coeff pair, rhs).  Every step restarts the scan at the
    first position and rewrites at the leftmost position where some rule
    matches, by the first listed rule matching there.  Returns
    (coeff pair, word), or raises BudgetExceeded on step budget + 1.
    """
    cur = [letters[l] for l in word]
    coeff = CONE
    steps = 0
    while True:
        match = next(((i, k) for i in range(len(cur))
                      for k, (lhs, _, _) in enumerate(rules)
                      if tuple(cur[i:i + len(lhs)]) == lhs), None)
        if match is None:
            return coeff, tuple(cur)
        i, k = match
        lhs, rule_coeff, rhs = rules[k]
        coeff = cmul(coeff, rule_coeff)
        if cis_zero(coeff):
            return CZERO, ()
        cur[i:i + len(lhs)] = list(rhs)
        steps += 1
        if steps > budget:
            raise BudgetExceeded(k, steps, tuple(word))


class TableRefused(Exception):
    """A reference table was read on a word past its support."""

    def __init__(self, word):
        super().__init__(f"read past the support on {word}")
        self.word = word


def table_read(table, support, word):
    """psi of a canonical word from a table of pairs: its value, 0 on a word
    within the support that the table leaves out, refused past it."""
    if word in table:
        return table[word]
    if len(word) > support:
        raise TableRefused(word)
    return CZERO


def gns_gram_per_entry(words, star, reduce, read, counit):
    """The truncated GNS Gram matrix, one entry at a time.

    Entry (i, j) is psi(w_i* w_j) - eps(w_j) psi(w_i*) - conj eps(w_i)
    psi(w_j), every psi being `read` of the canonical word that `reduce`
    gives, times its coefficient (0, unread, when that is 0).  psi is read
    on the words, then on their stars, then on the products in row-major
    order, so an error is the first one that order meets.
    """
    def psi(word):
        coeff, red = reduce(word)
        return CZERO if cis_zero(coeff) else cmul(coeff, read(red))

    psi_w = [psi(w) for w in words]
    stars = [star(w) for w in words]
    psi_s = [psi(s) for s in stars]
    eps = [counit(w) for w in words]
    return tuple(
        tuple(csub(csub(psi(s + w), cmul(e_j, p_s)), cmul(cconj(e_i), p_j))
              for w, e_j, p_j in zip(words, eps, psi_w))
        for s, e_i, p_s in zip(stars, eps, psi_s))


def abelian_key(generators, word):
    """Exponent sum of each generator in a word, letter by letter."""
    counts = [0] * len(generators)
    for name, tag in word:
        counts[generators.index(name)] += tag
    return tuple(counts)


def p2_key(word, a="a", b="b", r="r"):
    """The p2 element (s, m, n) of a word, multiplied out from the left
    letter by letter: (s1, t1)(s2, t2) = (s1 + s2 mod 2, t1 + (-1)^s1 t2),
    with a and b translations and r the rotation."""
    moves = {a: (0, 1, 0), b: (0, 0, 1), r: (1, 0, 0)}
    s, m, n = 0, 0, 0
    for name, tag in word:
        flip, dm, dn = moves[name]
        sign = -1 if s else 1
        m, n = m + sign * tag * dm, n + sign * tag * dn
        s = (s + flip) % 2
    return (s, m, n)


def spanning_products(base, n):
    """Distinct n-fold products of base elements, in itertools.product
    order, each multiplied out from the left term by term: the product of
    two canonical words is `Presentation.reduce` of their concatenation."""
    seen = {}
    for combo in itertools.product(base, repeat=n):
        p = combo[0].presentation
        terms = combo[0].terms
        for f in combo[1:]:
            acc = {}
            for u, a in terms.items():
                for v, b in f.terms.items():
                    k, w = p.reduce(u + v)
                    acc[w] = acc.get(w, ZERO) + k * a * b
            terms = {w: x for w, x in acc.items() if not x.is_zero()}
        key = tuple(sorted(terms.items(), key=lambda kv: (len(kv[0]), kv[0])))
        if key not in seen:
            seen[key] = AlgebraElement(p, terms)
    return list(seen.values())


def to_pair(scalar):
    return (Fraction(scalar.re), Fraction(scalar.im))


def to_pairs_vec(vec):
    return tuple(to_pair(x) for x in vec)


def to_pairs_mat(mat):
    return tuple(tuple(to_pair(x) for x in row) for row in mat)


def verify_per_pair(cocycle, functional, max_len):
    """The triple checks of `verify_schurmann_triple`, one pair at a time.

    Every value comes from the handed objects' per-word paths (eval_word,
    psi_word, the presentation's reduction) and every coboundary pair is
    tested with its own inner product, in the package's scan order.
    Returns the report as JSON.
    """
    p = cocycle.presentation
    form = cocycle.form
    group = p.kind == "group"
    counts = {"psi_at_one": 1, "hermitian": 0, "coboundary": 0, "positivity": 0}

    def report(identity=None, **detail):
        witness = None if identity is None else {"identity": identity, **detail}
        return {"passed": identity is None, "counts": counts,
                "witness": witness}

    def strs(word):
        return [name + ("^-1" if tag == -1 else "*" if tag == 1 and not group
                        else "") for name, tag in word]

    def psi_of_product(w1, w2):
        if group:
            return functional.psi_word(p.free_reduce(w1 + w2))
        return functional.psi_word(w1 + w2)

    eps = p._word_character

    one_val = functional.psi_word(())
    if not one_val.is_zero():
        return report("psi_at_one", value=str(one_val))
    words = p.words_up_to(max_len, include_empty=False)
    for w in words:
        lhs = functional.psi_word(p.involve_word(w))
        rhs = functional.psi_word(w).conj()
        counts["hermitian"] += 1
        if lhs != rhs:
            return report("hermitian", word=strs(w), psi_star=str(lhs),
                          conj_psi=str(rhs))
    for wa in words:
        for wb in words:
            if len(wa) + len(wb) > max_len:
                continue
            lhs = (eps(wa) * functional.psi_word(wb) - psi_of_product(wa, wb)
                   + functional.psi_word(wa) * eps(wb))
            rhs = -form.inner(cocycle.eval_word(p.involve_word(wa)),
                              cocycle.eval_word(wb))
            counts["coboundary"] += 1
            if lhs != rhs:
                return report("coboundary", a=strs(wa), b=strs(wb),
                              lhs=str(lhs), rhs=str(rhs))
    for w in words:
        if len(w) > max_len // 2:
            continue
        star = p.involve_word(w)
        lhs = (psi_of_product(star, w) - eps(w) * functional.psi_word(star)
               - eps(w).conj() * functional.psi_word(w))
        rhs = form.inner(cocycle.eval_word(w), cocycle.eval_word(w))
        counts["positivity"] += 1
        if lhs != rhs:
            return report("positivity", word=strs(w), psi=str(lhs),
                          norm_sq=str(rhs))
    return report()


def oracle_per_word(cocycle, functional, presentation, key, max_len):
    """A brute-force well-definedness search with each word folded on its
    own, the reference for the oracle's verdict.

    Words are bucketed by `key`, a faithful normal form of the group's
    elements (`abelian_key`, `p2_key`), in enumeration order, and each word
    is compared with its bucket's first word, the cocycle before psi.
    Returns the report as JSON.
    """
    words = presentation.words_up_to(max_len, include_empty=True)
    buckets = {}
    for w in words:
        buckets.setdefault(key(w), []).append(w)

    def word_strs(word):
        return [name + ("^-1" if tag == -1 else "") for name, tag in word]

    def report(pairs, counterexample=None):
        return {"passed": counterexample is None, "words": len(words),
                "pairs": pairs, "counterexample": counterexample}

    pairs = 0
    for bucket in buckets.values():
        rep = bucket[0]
        for w in bucket[1:]:
            pairs += 1
            for name, evaluate, show in (
                    ("cocycle", cocycle.eval_word,
                     lambda v: [str(x) for x in v]),
                    ("psi", functional.fold, str)):
                va, vb = evaluate(rep), evaluate(w)
                if va != vb:
                    return report(pairs, {
                        "evaluator": name, "word_a": word_strs(rep),
                        "word_b": word_strs(w), "value_a": show(va),
                        "value_b": show(vb)})
    return report(pairs)


# --- 2-cochains and coboundary cocycles ------------------------------


class Cochain2:
    """Bilinear functional on pairs of algebra elements."""

    def __init__(self, pair_fn):
        self._pair_fn = pair_fn

    def evaluate_pair(self, a, b):
        return self._pair_fn(a, b)

    def evaluate(self, tensor):
        out = ZERO
        for c, a, b in tensor.pairs:
            out = out + c * self._pair_fn(a, b)
        return out


def big_L(cocycle):
    """The 2-cochain (a, b) -> <eta(a*), eta(b)>."""
    form = cocycle.form

    def pair_fn(a, b):
        return form.inner(cocycle.eval_element(a.star()),
                          cocycle.eval_element(b))

    return Cochain2(pair_fn)


class HochschildReport(NamedTuple):
    passed: bool
    checked: int
    witness: tuple | None  # (a, b, c, value) on failure


def hochschild_boundary(phi, a, b, c):
    """eps(a) phi(b,c) - phi(ab,c) + phi(a,bc) - phi(a,b) eps(c)."""
    return (a.epsilon() * phi.evaluate_pair(b, c)
            - phi.evaluate_pair(a * b, c)
            + phi.evaluate_pair(a, b * c)
            - phi.evaluate_pair(a, b) * c.epsilon())


def hochschild_check_2cocycle(presentation, phi, triples):
    checked = 0
    for a, b, c in triples:
        value = hochschild_boundary(phi, a, b, c)
        checked += 1
        if not value.is_zero():
            return HochschildReport(passed=False, checked=checked,
                                    witness=(a, b, c, value))
    return HochschildReport(passed=True, checked=checked, witness=None)


class PhiV:
    """The functional a -> <v, (pi(a) - eps(a)) v> attached to a vector v.

    cocycle must be the coboundary cocycle eta_v(a) = (pi(a) - eps(a)) v,
    so a word is one inner product with its memoised eta_v value.
    """

    def __init__(self, cocycle, v):
        self.cocycle = cocycle
        self.v = linalg.vector(v)

    def eval_word(self, word):
        return self.cocycle.form.inner(self.v, self.cocycle.eval_word(word))

    def eval_element(self, element):
        out = ZERO
        for w, c in element.terms.items():
            out = out + c * self.eval_word(w)
        return out


def vsub(v, w):
    """v - w for vectors of package Scalars."""
    if len(v) != len(w):
        raise linalg.DimensionMismatch("vector sizes differ")
    return tuple(a - b for a, b in zip(v, w))


def is_zero_vector(v) -> bool:
    """Whether every entry of a vector of package Scalars is zero."""
    return all(a.is_zero() for a in v)


def invariant_closure_by_iteration(representation):
    """`decompose.invariant_closure` as a closure loop: the echelon basis
    of the (pi(l) - eps(l)) basis vectors, extended by pi(l) of the basis
    for every letter l until the span stops growing."""
    p = representation.presentation
    n = representation.form.dim
    letters = p.alphabet()
    seeds = []
    for l in letters:
        m = representation.word_matrix((l,))
        shifted = linalg.msub(
            m, linalg.mscale(p.epsilon_letter(l), linalg.identity(n)))
        seeds.extend(linalg.columns(shifted))
    basis = linalg.span_basis(seeds)
    while True:
        extended = list(basis)
        cols = linalg.from_columns(basis, rows_hint=n)
        for l in letters:
            extended.extend(linalg.columns(
                linalg.mmul(representation.word_matrix((l,)), cols)))
        new_basis = linalg.span_basis(extended)
        if len(new_basis) == len(basis):
            return basis
        basis = new_basis


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
        m = representation.word_matrix((l,))
        eps = p.epsilon_letter(l)
        values[letter_str(p.kind, l)] = vsub(linalg.mvmul(m, v),
                                             linalg.vscale(eps, v))
    cocycle = Cocycle(representation, values)
    return cocycle, PhiV(cocycle, v)


def ill_defined_psi_doc():
    """p2's solved psi with Im psi(r) = 1 added: it folds to 2i on r r, so it
    is no functional on the group algebra."""
    doc = copy.deepcopy(catalog.scenario_doc("p2.nongaussian", "feasible"))
    doc["functional"] = {"psi": {"a": "-1/2", "b": "-1/2", "r": "i"}}
    return doc
