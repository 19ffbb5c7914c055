"""Seeded benchmark inputs whose answers are known by construction.

Every input function returns a plain scenario document (the format of
``docs/formats.md``); workloads.py pairs it with the outcome the program must
reach.  The answers come from the constructions, never from running the
program:

* Group cocycles on Z^2, Gamma_2 (trivial representation), p2 and the free
  product (generator ``r`` acting by -1, with eta(r) = 0).  Every value is a
  common Gaussian-integer phase times a real integer vector, so every
  generator pairing <eta(g), eta(h)> is real and psi(g) = -|eta(g)|^2 / 2 is
  a generating functional.  A negative input multiplies one value of one
  relator pair by i with a nonzero real pairing, so the pairing is not real
  and no functional exists; the same psi is then the forced-real-part
  candidate, which still passes every identity on free words but which the
  normal-form oracle rejects.
* Star tables on <x = x*, y | x x y = -y, y* y = 0>: pi(x) = X real
  symmetric, pi(y) = 0, eta(x) = c, eta(y) = 0, eps = 0 and
  psi(x^k) = <c, X^(k-2) c> for k >= 2.  This is a Schurmann triple, its
  Gram matrices are positive semidefinite of rank dim span{c, Xc, ...}, and
  psi(x^3) = <c, X c> != 0 makes it non-Gaussian at the first product.
  The negated table fails first at the coboundary identity and has a
  negative semidefinite Gram matrix.
* Block-unitary representations for ``certify``: rational rotation blocks,
  sign blocks and one trivial block, conjugated by a unimodular integer
  matrix S (the form becomes S^-T G S^-1).  The cocycle is a coboundary
  (pi(g) - 1) v plus a derivation on the trivial block.  It is feasible and
  decomposes exactly when the derivation pairing is real.
"""

from __future__ import annotations

from fractions import Fraction as Q

GROUPS = {
    "z2": {"kind": "group", "generators": ["a", "b"],
           "relators": [["a", "b", "a^-1", "b^-1"]]},
    "gamma2": {"kind": "group", "generators": ["a1", "b1", "a2", "b2"],
               "relators": [["a1", "b1", "a1^-1", "b1^-1",
                             "a2", "b2", "a2^-1", "b2^-1"]]},
    "p2": {"kind": "group", "generators": ["a", "b", "r"],
           "relators": [["a", "b", "a^-1", "b^-1"], ["r", "r"],
                        ["r", "a", "r", "a"], ["r", "b", "r", "b"]]},
    "freeproduct": {"kind": "group", "generators": ["a", "b", "r", "c", "d"],
                    "relators": [["a", "b", "a^-1", "b^-1"], ["r", "r"],
                                 ["r", "a", "r", "a"], ["r", "b", "r", "b"],
                                 ["c", "d", "c^-1", "d^-1"]]},
}

STAR = {"kind": "star_algebra", "generators": ["x", "y"],
        "involution": {"x": "x", "y": "y*"},
        "character": {"x": "0", "y": "0"},
        "rules": [{"lhs": ["x", "x", "y"], "rhs": {"coeff": "-1", "word": ["y"]}},
                  {"lhs": ["y*", "y"], "rhs": {"coeff": "0", "word": []}}]}

NORMAL_FORMS = {"z2": "abelian", "p2": "p2"}

# relator pairs whose cocycle pairing decides feasibility
PAIRS = {"z2": [("a", "b")], "gamma2": [("a1", "b1"), ("a2", "b2")],
         "p2": [("a", "b")], "freeproduct": [("a", "b"), ("c", "d")]}

# generators acting by -1 in the sign action; they carry eta = 0
SIGN_GENERATORS = {"p2": ("r",), "freeproduct": ("r",)}

# generators a derivation may be nonzero on (the exponent-sum kernel)
DERIVATION_GENERATORS = {"z2": ("a", "b"), "gamma2": ("a1", "b1", "a2", "b2"),
                         "p2": (), "freeproduct": ("c", "d")}

PHASES = ((1, 0), (0, 1), (1, 1), (2, -1), (1, -2))
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))
FORM_SCALES = (Q(1), Q(2), Q(1, 2), Q(3), Q(2, 3))


def lit(re, im=0) -> str:
    """A scalar literal in the program's grammar."""
    re, im = Q(re), Q(im)
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def identity(n):
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Q(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def matvec(m, v):
    """Real matrix times a vector of (re, im) pairs."""
    return [(sum((row[k] * v[k][0] for k in range(len(v))), Q(0)),
             sum((row[k] * v[k][1] for k in range(len(v))), Q(0)))
            for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def dot(u, v):
    return sum((Q(x) * Q(y) for x, y in zip(u, v)), Q(0))


def matrix_doc(m):
    return [[lit(x) for x in row] for row in m]


def vector_doc(v):
    return [lit(re, im) for re, im in v]


def _nonzero_vector(rng, dim, bound):
    while True:
        v = [rng.randint(-bound, bound) for _ in range(dim)]
        if any(v):
            return v


# --- group cocycles (words, elements) ---------------------------------


def group_input(rng, group, dim, feasible, max_len):
    """Scenario with a cocycle on the trivial or sign representation and
    psi = forced real parts.  Feasible exactly when every pairing is real."""
    gens = GROUPS[group]["generators"]
    signs = SIGN_GENERATORS.get(group, ())
    pr, pi = rng.choice(PHASES)
    real = {g: ([0] * dim if g in signs else _nonzero_vector(rng, dim, 3))
            for g in gens}
    twisted = None
    if feasible:
        if dim == 2:
            # independent values, so the GNS rank is the dimension
            a, b = PAIRS[group][0]
            while real[a][0] * real[b][1] == real[a][1] * real[b][0]:
                real[b] = _nonzero_vector(rng, dim, 3)
    else:
        a, twisted = rng.choice(PAIRS[group])
        while dot(real[a], real[twisted]) == 0:
            real[twisted] = _nonzero_vector(rng, dim, 3)
    cocycle, psi = {}, {}
    for g in gens:
        # value = phase * real vector, times i on the twisted generator
        re, im = (-pi, pr) if g == twisted else (pr, pi)
        vec = [(re * x, im * x) for x in real[g]]
        if g not in signs:
            cocycle[g] = vector_doc(vec)
        psi[g] = lit(Q(-1, 2) * sum(x * x + y * y for x, y in vec))
    doc = {"presentation": GROUPS[group],
           "form": {"gram": matrix_doc(identity(dim))},
           "cocycle": cocycle,
           "functional": {"psi": psi},
           "options": {"max_word_length": max_len}}
    if signs:
        doc["representation"] = {
            g: matrix_doc([[Q(-1 if g in signs else 1) if i == j else Q(0)
                            for j in range(dim)] for i in range(dim)])
            for g in gens}
    if group in NORMAL_FORMS:
        doc["options"]["normal_form"] = {"kind": NORMAL_FORMS[group]}
    return doc


# --- star tables (words, elements) ------------------------------------


def star_input(rng, dim, max_power, sign):
    """Scenario with psi(x^k) = sign * <c, X^(k-2) c> up to x^max_power."""
    while True:
        x = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                x[i][j] = x[j][i] = rng.randint(-2, 2)
        c = _nonzero_vector(rng, dim, 2)
        xc = [dot(row, c) for row in x]
        independent = dim == 1 or c[0] * xc[1] != c[1] * xc[0]
        if dot(c, xc) != 0 and independent:
            break
    table = {}
    v = [Q(t) for t in c]
    for k in range(2, max_power + 1):
        table[" ".join(["x"] * k)] = lit(sign * dot(c, v))
        v = [dot(row, v) for row in x]
    return {"presentation": STAR,
            "form": {"gram": matrix_doc(identity(dim))},
            "representation": {"x": matrix_doc(x),
                               "y": matrix_doc([[0] * dim] * dim)},
            "cocycle": {"x": [lit(t) for t in c]},
            "functional": {"table": table},
            "options": {"max_word_length": max_power}}


# --- block-unitary representations (certify) --------------------------


def _rotation(rng, k):
    """A rational rotation; k fixes the triple (and so the denominators), the
    seed only the signs and orientation."""
    p, q, h = PYTHAGOREAN[k % len(PYTHAGOREAN)]
    if rng.random() < 0.5:
        p, q = q, p
    c, s = Q(rng.choice((p, -p)), h), Q(rng.choice((q, -q)), h)
    return [[c, -s], [s, c]]


def _blocks(rng, group, dim):
    """Block layout: one trivial block first, then rotation and sign blocks
    on which some generator acts without fixed vectors."""
    trivial = 2 if dim % 2 == 0 and DERIVATION_GENERATORS[group] else 1
    rest = dim - trivial
    gens = GROUPS[group]["generators"]
    signs = SIGN_GENERATORS.get(group, ())
    blocks = []
    for b in range(rest // 2):
        images = {g: ([[Q(1), Q(0)], [Q(0), Q(-1)]] if g in signs
                      else _rotation(rng, b + k)) for k, g in enumerate(gens)}
        blocks.append(images)
    if rest % 2:
        while True:
            images = {g: [[Q(rng.choice((1, -1)))]] for g in gens}
            if any(m[0][0] == -1 for m in images.values()):
                break
        blocks.append(images)
    return trivial, blocks


def _unimodular(rng, n):
    """S = 1 + a subdiagonal of seeded signs, and its (integer) inverse.  The
    fixed pattern keeps every seed's matrices equally dense."""
    s = identity(n)
    for i in range(1, n):
        s[i][i - 1] = Q(rng.choice((1, -1)))
    inv = identity(n)
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum((s[i][k] * inv[k][j] for k in range(j, i)), Q(0))
    return s, inv


def certify_input(rng, group, dim, feasible):
    """Scenario whose cocycle is a coboundary plus a derivation on the
    trivial block; feasible and decomposable exactly when the derivation
    pairing is real (always, on p2, which has no derivations)."""
    gens = GROUPS[group]["generators"]
    trivial, blocks = _blocks(rng, group, dim)
    images = {g: identity(dim) for g in gens}
    gram = identity(dim)
    offset = trivial
    for i in range(trivial):
        gram[i][i] = FORM_SCALES[0]
    for b, block in enumerate(blocks):
        size = len(block[gens[0]])
        scale = FORM_SCALES[(b + 1) % len(FORM_SCALES)]
        for i in range(size):
            gram[offset + i][offset + i] = scale
            for g in gens:
                for j in range(size):
                    images[g][offset + i][offset + j] = block[g][i][j]
        offset += size
    v = [(Q(0), Q(0))] * trivial + [
        (Q(rng.choice((1, -1))), Q(rng.choice((1, -1))))
        for _ in range(dim - trivial)]
    derivation = {g: [(Q(0), Q(0))] * trivial for g in gens}
    der_gens = DERIVATION_GENERATORS[group]
    if der_gens:
        bad = None if feasible else rng.choice(
            [pair for pair in PAIRS[group] if pair[0] in der_gens])
        for g in der_gens:
            derivation[g] = [(Q(x), Q(0))
                             for x in _nonzero_vector(rng, trivial, 2)]
        if bad is not None:
            a, b = bad
            while dot([x for x, _ in derivation[a]],
                      [x for x, _ in derivation[b]]) == 0:
                derivation[b] = [(Q(x), Q(0))
                                 for x in _nonzero_vector(rng, trivial, 2)]
            derivation[b] = [(Q(0), x) for x, _ in derivation[b]]
    elif not feasible:
        raise ValueError(f"{group} has no derivations, so no infeasible input")
    s, s_inv = _unimodular(rng, dim)
    doc_images, cocycle = {}, {}
    for g in gens:
        moved = matvec(images[g], v)
        eta = [(m[0] - w[0], m[1] - w[1]) for m, w in zip(moved, v)]
        eta = [(e[0] + d[0], e[1] + d[1])
               for e, d in zip(eta, derivation[g] + [(Q(0), Q(0))] * (dim - trivial))]
        doc_images[g] = matrix_doc(matmul(s, matmul(images[g], s_inv)))
        cocycle[g] = vector_doc(matvec(s, eta))
    form = matmul(transpose(s_inv), matmul(gram, s_inv))
    return {"presentation": GROUPS[group],
            "form": {"gram": matrix_doc(form)},
            "representation": doc_images,
            "cocycle": cocycle,
            "options": {"max_word_length": 3}}
