"""Independent reference arithmetic used to cross-check package results.

Everything in this module is deliberately naive.  Complex rationals are
plain (Fraction, Fraction) pairs, matrices are tuples of tuples of such
pairs, and words are evaluated letter by letter from the definitions.
The reference arithmetic uses nothing from the package, so a bug in the
package cannot leak into the expected values it produces.  Conversion
helpers only read .re/.im attributes off objects they are handed;
spanning_products only multiplies the elements it is handed, and
verify_per_pair and oracle_per_word only call the per-word methods of the
objects they are handed.

The fixtures at the end build package objects: the obstruction 2-cochain
L(eta) with its Hochschild boundary, which `cocycles.big_K` is compared
with, and the coboundary cocycle of a vector with its functional PhiV.
"""

import itertools
from fractions import Fraction
from typing import NamedTuple

from nlk import linalg
from nlk.cocycles import Cocycle
from nlk.presentations import GROUP, letter_str
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


def eta_word(images, values, word, dim):
    """Prefix-sum form: eta(w) = sum_j pi(w_1..w_{j-1}) eta(w_j)."""
    prefix = mid(dim)
    acc = zero_vec(dim)
    for letter in word:
        acc = vadd(acc, mvec(prefix, eta_letter(images, values, letter)))
        prefix = mmul(prefix, letter_matrix(images, letter))
    return acc


def psi_letter(psi_values, letter):
    name, tag = letter
    v = psi_values[name]
    if tag == -1:
        return cconj(v)
    return v


def psi_word(images, eta_values, psi_values, gram, word, dim):
    """Left fold of psi(gh) = psi(g) + <eta(g^-1), eta(h)> + psi(h)."""
    total = CZERO
    for i, letter in enumerate(word):
        suffix = word[i + 1:]
        inv = (letter[0], -letter[1])
        cross = inner(gram, eta_letter(images, eta_values, inv),
                      eta_word(images, eta_values, suffix, dim))
        total = cadd(total, cadd(psi_letter(psi_values, letter), cross))
    return total


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
    def __init__(self, rule_index, steps):
        super().__init__(f"rule {rule_index} applied for step {steps}")
        self.rule_index = rule_index
        self.steps = steps


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
            raise BudgetExceeded(k, steps)


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
    order, each multiplied out from the left."""
    seen = {}
    for combo in itertools.product(base, repeat=n):
        prod = combo[0]
        for f in combo[1:]:
            prod = prod * f
        key = tuple(sorted(prod.terms.items(),
                           key=lambda kv: (len(kv[0]), kv[0])))
        seen.setdefault(key, prod)
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


def oracle_per_word(cocycle, functional, presentation, normal_form, max_len):
    """The normal-form oracle with each word folded on its own.

    Words are bucketed by normal form in enumeration order and each word is
    compared with its bucket's first word, the cocycle before psi.  Returns
    the report as JSON.
    """
    words = presentation.words_up_to(max_len, include_empty=True)
    buckets = {}
    for w in words:
        buckets.setdefault(normal_form.key(w), []).append(w)

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
                    ("cocycle", cocycle and cocycle.eval_word,
                     lambda v: [str(x) for x in v]),
                    ("psi", functional and functional.fold, str)):
                if evaluate is None:
                    continue
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
