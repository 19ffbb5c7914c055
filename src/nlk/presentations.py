"""Finitely presented group algebras and small free *-algebras with relations.

Two kinds of presentation are supported.

Group kind: generators with formal inverses, a relator list, counit 1 on
every generator.  Words are kept freely reduced; relators are never applied
during reduction, so distinct words may name the same group element.  Equality
of group elements is not decided here; downstream checks work through relator
evaluations, plus a bounded merging procedure for kernel membership.

Star-algebra kind: generators with a declared involution, counit values per
generator, and oriented monomial rewriting rules with scalar coefficients.
Reduction rewrites starred letters through the involution map and then applies
the rules leftmost first until no rule matches, guarded by a step budget,
STEP_BUDGET rewriting steps per reduction.

`Presentation.multiply` forms the canonical form of a product of two
canonical words.  Neither factor holds a redex, so a redex of the product
crosses the junction: it starts in the left factor's tail, its last
`junction_width` (longest left side - 1) letters, and ends in the right
factor's head, its first `junction_width` letters.  `junction_redex` finds
it from the tail and head alone, so a caller can decide it once per distinct
pair, and `multiply` rewrites from there through the loop `reduce` runs from
position 0.  The answer is `reduce`'s for every rule set, confluent or not.
Group words cancel inverse pairs at the junction only.
`AlgebraElement` products and `kn_products` go through it, since every term
of an element is canonical.  `kn_products` yields the distinct kernel
products one at a time, each formed once, in one pass over the terms of a
distinct prefix, so a caller that stops early forms no product past the one
it stops at.  A left factor that is a raw star w*, as in the GNS Gram
matrix, need not be canonical: `_rewrite` scans it once, up to its last
`junction_width` letters, which is as far as `reduce(w* v)` goes for every
v before the scan could reach past w*; `junction_redex` also names the
first listed rule at the redex, and `_rewrite` resumes there with the
star's coefficient and step count.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .scalars import ONE, ZERO, Scalar

GROUP = "group"
STAR_ALGEBRA = "star_algebra"

# the most rewriting steps one reduction may take
STEP_BUDGET = 10_000

# the most words `words_up_to` may list; every catalog and benchmark input and
# the p2 words up to length 8 (585,937 words) stay below it
WORD_BUDGET = 1_000_000

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class PresentationError(ValueError):
    pass


class ReductionBudgetExceeded(PresentationError):
    code = "REDUCTION_BUDGET_EXCEEDED"

    def __init__(self, word, budget, rule, steps):
        self.word = word
        self.budget = budget
        self.rule = rule
        self.steps = steps
        super().__init__(
            f"rewriting exceeded the step budget of {budget}; "
            f"start word {word_to_strs(STAR_ALGEBRA, word)}; "
            f"last rule applied {word_key(STAR_ALGEBRA, rule.lhs)} -> "
            f"({rule.coeff})*{word_key(STAR_ALGEBRA, rule.rhs)}; "
            f"{steps} steps taken")


class WordBudgetExceeded(PresentationError):
    code = "WORD_BUDGET_EXCEEDED"

    def __init__(self, max_len, count, budget):
        self.max_len = max_len
        self.count = count
        self.budget = budget
        super().__init__(
            f"listing the words up to length {max_len} passed the budget of "
            f"{budget} words at {count} words")


class LegNotInKernel(PresentationError):
    code = "LEG_NOT_IN_KERNEL"

    def __init__(self, pair_index, side, value):
        self.pair_index = pair_index
        self.side = side
        self.value = value
        super().__init__(
            f"tensor pair {pair_index}, {side} leg has counit {value}, not 0")


# --- letters --------------------------------------------------------
#
# A letter is (name, tag).  Group tags: +1 generator, -1 formal inverse.
# Star tags: 0 plain generator, 1 starred generator.


def letter_str(kind: str, letter) -> str:
    name, tag = letter
    if kind == GROUP:
        return name if tag == 1 else f"{name}^-1"
    return name if tag == 0 else f"{name}*"


def parse_letter(kind: str, token: str):
    if kind == GROUP:
        if token.endswith("^-1"):
            return (token[:-3], -1)
        return (token, 1)
    if token.endswith("*"):
        return (token[:-1], 1)
    return (token, 0)


def word_to_strs(kind: str, word) -> list:
    return [letter_str(kind, l) for l in word]


def word_from_strs(kind: str, tokens) -> tuple:
    return tuple(parse_letter(kind, t) for t in tokens)


def word_key(kind: str, word) -> str:
    """Single-string form of a word; the empty word is spelled ``1``."""
    if not word:
        return "1"
    return " ".join(word_to_strs(kind, word))


def word_from_key(kind: str, key: str) -> tuple:
    key = key.strip()
    if key == "1" or key == "":
        return ()
    return word_from_strs(kind, key.split())


class RewriteRule(NamedTuple):
    lhs: tuple
    coeff: Scalar
    rhs: tuple


class Presentation:
    def __init__(self, kind, generators, relators=(), involution=None,
                 character=None, rules=()):
        if kind not in (GROUP, STAR_ALGEBRA):
            raise PresentationError(f"unknown presentation kind {kind!r}")
        self.kind = kind
        self.generators = tuple(generators)
        if not self.generators:
            raise PresentationError("a presentation needs at least one generator")
        seen = set()
        for g in self.generators:
            if not _NAME_RE.match(g):
                raise PresentationError(f"bad generator name {g!r}")
            if g in seen:
                raise PresentationError(f"duplicate generator {g!r}")
            seen.add(g)
        self.relators = tuple(tuple(r) for r in relators)
        self.involution = dict(involution or {})
        self.character = {g: Scalar.coerce(v)
                          for g, v in (character or {}).items()}
        self.rules = tuple(rules)
        # each relation lhs = coeff rhs: a relator r as (r, 1, ()), a rule as is
        self.relations = tuple((r, ONE, ()) for r in self.relators) + self.rules
        self._genset = frozenset(self.generators)
        if kind == GROUP:
            self._init_group()
        else:
            self._init_star()
        self._words_cache = {}
        self._variants_cache = None
        self._stars = {(g, t): self.star_letter((g, t)) for g in self.generators
                       for t in ((1, -1) if kind == GROUP else (0, 1))}

    # --- construction -----------------------------------------------

    @classmethod
    def group(cls, generators, relators):
        words = [word_from_strs(GROUP, r) if r and isinstance(r[0], str) else tuple(r)
                 for r in relators]
        return cls(GROUP, generators, relators=words)

    @classmethod
    def star_algebra(cls, generators, involution, character, rules):
        inv = {g: parse_letter(STAR_ALGEBRA, tok) if isinstance(tok, str) else tuple(tok)
               for g, tok in involution.items()}
        built = []
        for rule in rules:
            if isinstance(rule, RewriteRule):
                built.append(rule)
                continue
            lhs, coeff, rhs = rule
            lhs = word_from_strs(STAR_ALGEBRA, lhs) if lhs and isinstance(lhs[0], str) else tuple(lhs)
            rhs = word_from_strs(STAR_ALGEBRA, rhs) if rhs and isinstance(rhs[0], str) else tuple(rhs)
            built.append(RewriteRule(lhs=lhs, coeff=Scalar.coerce(coeff), rhs=rhs))
        return cls(STAR_ALGEBRA, generators, involution=inv, character=character,
                   rules=built)

    def _init_group(self):
        if self.involution or self.character or self.rules:
            raise PresentationError("group presentations take only relators")
        # an inverse pair is the one redex, two letters long
        self.junction_width = 1
        for r in self.relators:
            self._check_letters(r)
            if not r:
                raise PresentationError("relators must be nonempty")
            if self.free_reduce(r) != r:
                raise PresentationError(
                    f"relator {word_to_strs(GROUP, r)} is not freely reduced")

    def _init_star(self):
        if self.relators:
            raise PresentationError("star-algebra presentations take rules, not relators")
        for g in self.generators:
            if g not in self.involution:
                raise PresentationError(f"involution missing for generator {g!r}")
            if g not in self.character:
                raise PresentationError(f"character value missing for generator {g!r}")
        for g, img in self.involution.items():
            if g not in self.generators:
                raise PresentationError(f"involution names unknown generator {g!r}")
            name, tag = img
            if name not in self.generators or tag not in (0, 1):
                raise PresentationError(
                    f"involution of {g!r} is not a letter of this presentation")
        # the involution must square to the identity on letters
        for g in self.generators:
            twice = self.star_letter(self.star_letter((g, 0)))
            if twice != (g, 0):
                raise PresentationError(
                    f"involution does not square to the identity on {g!r}")
            image, conj = self.involution[g], self.character[g].conj()
            if self.epsilon_letter(image) != conj:
                raise PresentationError(
                    f"character is not a *-character: eps({g}*) = "
                    f"eps({letter_str(STAR_ALGEBRA, image)}) = "
                    f"{self.epsilon_letter(image)}, not conj eps({g}) = {conj}")
        for rule in self.rules:
            self._check_letters(rule.lhs)
            self._check_letters(rule.rhs)
            if not rule.lhs:
                raise PresentationError("rewrite rule with empty left side")
            for w, label in ((rule.lhs, "left"), (rule.rhs, "right")):
                for l in w:
                    if self.normalize_letter(l) != l:
                        raise PresentationError(
                            f"rule {label} side uses unnormalized letter "
                            f"{letter_str(STAR_ALGEBRA, l)}")
            lhs_eps = self._word_character(rule.lhs)
            rhs_eps = rule.coeff * self._word_character(rule.rhs)
            if lhs_eps != rhs_eps:
                raise PresentationError(
                    f"rule {word_to_strs(STAR_ALGEBRA, rule.lhs)} does not respect "
                    f"the counit: {lhs_eps} != {rhs_eps}")
        # every valid letter -> its normalised letter; a miss is a bad letter
        self._letters = {(g, tag): self.normalize_letter((g, tag))
                         for g in self.generators for tag in (0, 1)}
        # first letter -> (lhs as a list, its length, rule) in declared order
        self._rules_at = {}
        for rule in self.rules:
            self._rules_at.setdefault(rule.lhs[0], []).append(
                (list(rule.lhs), len(rule.lhs), rule))
        # longest left side - 1: how far a redex reaches past its first letter
        self.junction_width = max(
            (len(rule.lhs) for rule in self.rules), default=1) - 1

    def _check_letters(self, word):
        for name, tag in word:
            if name not in self._genset:
                raise PresentationError(f"unknown generator {name!r} in word")
            if self.kind == GROUP and tag not in (1, -1):
                raise PresentationError(f"bad group letter tag {tag!r}")
            if self.kind == STAR_ALGEBRA and tag not in (0, 1):
                raise PresentationError(f"bad star letter tag {tag!r}")

    # --- letters ----------------------------------------------------

    def alphabet(self) -> list:
        """All letters a reduced word may contain, in a fixed order."""
        out = []
        if self.kind == GROUP:
            for g in self.generators:
                out.append((g, 1))
                out.append((g, -1))
        else:
            for g in self.generators:
                out.append((g, 0))
            for g in self.generators:
                if self.involution[g] == (g, 1):
                    out.append((g, 1))
        return out

    def star_letter(self, letter):
        name, tag = letter
        if self.kind == GROUP:
            return (name, -tag)
        if tag == 0:
            return self.involution[name]
        return (name, 0)

    def normalize_letter(self, letter):
        """Rewrite a starred letter through the involution map where possible."""
        if self.kind == GROUP:
            return letter
        name, tag = letter
        if tag == 1 and self.involution[name] != (name, 1):
            return self.involution[name]
        return letter

    def epsilon_letter(self, letter) -> Scalar:
        if self.kind == GROUP:
            return ONE
        name, tag = letter
        v = self.character[name]
        return v if tag == 0 else v.conj()

    def _word_character(self, word) -> Scalar:
        out = ONE
        for l in word:
            out = out * self.epsilon_letter(l)
            if out.is_zero():
                return ZERO
        return out

    # --- reduction --------------------------------------------------

    def free_reduce(self, word) -> tuple:
        genset = self._genset
        out = []
        for name, tag in word:
            if name not in genset:
                raise PresentationError(f"unknown generator {name!r} in word")
            if out and out[-1][0] == name and out[-1][1] == -tag:
                out.pop()
            else:
                out.append((name, tag))
        return tuple(out)

    def reduce(self, word):
        """Canonical form of a word.  Returns (coefficient, word).

        Group words reduce freely with coefficient 1.  Star-algebra words
        normalize starred letters, then rewrite at the leftmost position
        where a rule matches, by the first listed rule matching there, until
        none applies, multiplying the rule coefficients together.  One pass
        scans left to right: after a rewrite at position i no match can start
        before i - (longest left side - 1), so the scan resumes there.
        """
        word = tuple(word)
        if self.kind == GROUP:
            self._check_letters(word)
            return ONE, self.free_reduce(word)
        letters = self._letters
        try:
            cur = [letters[l] for l in word]
        except KeyError:
            self._check_letters(word)  # raises the precise letter error
            raise
        return self._rewrite(cur, word, 0)[:2]

    def _rewrite(self, cur, word, i, coeff=ONE, steps=0, keep=0):
        """Rewrite the normalised letters `cur` in place from position i,
        where no redex starts before i, as `reduce` does from 0, until the
        scan reaches the last `keep` letters: a rewrite at i leaves at least
        i letters, so it stops at max(0, len - keep).  `coeff` and `steps`
        are those of the rewrites already made on the way to `cur`, and a
        budget error names the start word `word`.  Returns (coefficient,
        letters, steps), the letters () once the coefficient is 0."""
        rules_at = self._rules_at
        back = self.junction_width
        budget = STEP_BUDGET
        stop = len(cur) - keep
        while i < stop:
            for lhs, n, rule in rules_at.get(cur[i], ()):
                if cur[i:i + n] == lhs:
                    coeff = coeff * rule.coeff
                    if coeff.is_zero():
                        return ZERO, (), steps
                    cur[i:i + n] = rule.rhs
                    steps += 1
                    if steps > budget:
                        raise ReductionBudgetExceeded(word, budget, rule, steps)
                    i = max(0, i - back)
                    stop = len(cur) - keep
                    break
            else:
                i += 1
        return coeff, tuple(cur), steps

    def junction_redex(self, tail, head):
        """The leftmost redex of tail + head that starts in `tail`, as
        (where in `tail` it starts, the first listed rule matching there),
        or None; a redex lies wholly in tail + head.  `words_up_to` asks it
        of a new word's last `junction_width` + 1 letters and (), as a redex
        there is the word's only one.  `multiply` and the GNS rows ask it of
        the tail of a word u, from where `reduce`'s scan of u v stands once
        every redex left of it is rewritten (at most `junction_width`
        letters), and the head of a canonical v, its first `junction_width`
        letters, as every redex of u v from there on lies in tail + head.
        """
        word = tail + head
        rules_at = self._rules_at
        for i in range(len(tail)):
            for _, n, rule in rules_at.get(word[i], ()):
                if word[i:i + n] == rule.lhs:
                    return i, rule
        return None

    def multiply(self, u, v):
        """Canonical form of u v for canonical words u and v, as
        (coefficient, word): what `reduce(u + v)` returns, budget error
        included.  Star words are rewritten from the junction's leftmost
        redex, the first position where `reduce`'s scan from 0 would
        rewrite, by `reduce`'s own loop; with no redex there the product is
        the concatenation."""
        if self.kind == GROUP:
            i, j = len(u), 0
            while i and j < len(v) and u[i - 1] == (v[j][0], -v[j][1]):
                i -= 1
                j += 1
            return ONE, u[:i] + v[j:]
        k = self.junction_width
        tail = u[-k:] if k else ()
        redex = self.junction_redex(tail, v[:k])
        word = u + v
        if redex is None:
            return ONE, word
        return self._rewrite(list(word), word,
                             len(u) - len(tail) + redex[0])[:2]

    def involve_word(self, word) -> tuple:
        """Raw star of a word: reverse and star each letter (not reduced)."""
        stars = self._stars
        return tuple([stars[l] for l in reversed(word)])

    # --- enumeration ------------------------------------------------

    def words_up_to(self, max_len: int, include_empty: bool = True) -> list:
        """All canonical-form words of length <= max_len, shortest first.

        Raises WordBudgetExceeded as soon as the list would hold more than
        WORD_BUDGET words, so it never holds many more than that.
        """
        key = max_len
        if key not in self._words_cache:
            words = [()]
            frontier = [()]
            alphabet = self.alphabet()
            k = self.junction_width
            for _ in range(max_len):
                nxt = []
                room = WORD_BUDGET - len(words)
                for w in frontier:
                    for l in alphabet:
                        cand = w + (l,)
                        if self.kind == GROUP:
                            if w and w[-1] == (l[0], -l[1]):
                                continue
                        # w holds no redex, so a redex of cand starts in
                        # its last k + 1 letters
                        elif self.junction_redex(cand[-(k + 1):], ()):
                            continue
                        nxt.append(cand)
                    if len(nxt) > room:
                        raise WordBudgetExceeded(
                            max_len, len(words) + len(nxt), WORD_BUDGET)
                words.extend(nxt)
                frontier = nxt
            self._words_cache[key] = words
        out = self._words_cache[key]
        return out if include_empty else out[1:]

    # --- bounded relator merging ------------------------------------

    def relator_variants(self) -> list:
        """Cyclic rotations of each relator and of its inverse, deduplicated."""
        if self.kind != GROUP:
            raise PresentationError("relator variants exist only for group kind")
        if self._variants_cache is None:
            seen = []
            for r in self.relators:
                inv = self.involve_word(r)
                for base in (r, inv):
                    for k in range(len(base)):
                        rot = base[k:] + base[:k]
                        if rot not in seen:
                            seen.append(rot)
            self._variants_cache = seen
        return self._variants_cache

    def equal_mod_relators(self, w1, w2, insertions: int = 2) -> bool:
        """Bounded search: can w1 reach w2 by inserting relator conjugacy
        variants and reducing freely, using at most `insertions` insertions?

        A True answer certifies that both words name the same group element.
        False only means the bound was too small to tell.
        """
        if self.kind != GROUP:
            raise PresentationError("equal_mod_relators needs a group presentation")
        start = self.free_reduce(tuple(w1))
        target = self.free_reduce(tuple(w2))
        if start == target:
            return True
        variants = self.relator_variants()
        frontier = {start}
        visited = {start}
        for _ in range(insertions):
            nxt = set()
            for w in frontier:
                for v in variants:
                    for pos in range(len(w) + 1):
                        cand = self.free_reduce(w[:pos] + v + w[pos:])
                        if cand == target:
                            return True
                        if cand not in visited:
                            visited.add(cand)
                            nxt.add(cand)
            frontier = nxt
            if not frontier:
                break
        return False


# --- algebra elements ----------------------------------------------


def _word_sort_key(word):
    return (len(word), word)


def _add_term(acc, word, c):
    """Add c times word to the term dict acc, keeping no zero coefficient."""
    if c:
        tot = acc.get(word, ZERO) + c
        if tot:
            acc[word] = tot
        else:
            del acc[word]


class AlgebraElement:
    """Finite linear combination of canonical-form words."""

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation: Presentation, terms: dict):
        self.presentation = presentation
        self.terms = terms

    @classmethod
    def build(cls, presentation, items) -> "AlgebraElement":
        def reduced():
            for word, coeff in items:
                coeff = Scalar.coerce(coeff)
                if not coeff.is_zero():
                    yield presentation.reduce(word), coeff

        return cls._merged(presentation, reduced())

    @classmethod
    def _merged(cls, presentation, terms) -> "AlgebraElement":
        """Sum ((c, canonical word), coeff) pairs as c * coeff times the word."""
        acc = {}
        for (c, red), coeff in terms:
            # ONE comes back when no rule fired, the common case
            _add_term(acc, red, coeff if c is ONE else c * coeff)
        return cls(presentation, acc)

    @classmethod
    def zero(cls, presentation) -> "AlgebraElement":
        return cls(presentation, {})

    @classmethod
    def one(cls, presentation) -> "AlgebraElement":
        return cls(presentation, {(): ONE})

    @classmethod
    def from_word(cls, presentation, word, coeff=ONE) -> "AlgebraElement":
        return cls.build(presentation, [(tuple(word), coeff)])

    def words(self) -> list:
        return sorted(self.terms, key=_word_sort_key)

    def coeff(self, word) -> Scalar:
        return self.terms.get(tuple(word), ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        self._same_presentation(other)
        acc = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(acc, w, c)
        return AlgebraElement(self.presentation, acc)

    def __neg__(self):
        return AlgebraElement(self.presentation,
                              {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar) -> "AlgebraElement":
        scalar = Scalar.coerce(scalar)
        if scalar.is_zero():
            return AlgebraElement.zero(self.presentation)
        return AlgebraElement(self.presentation,
                              {w: scalar * c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._same_presentation(other)
            p = self.presentation
            return AlgebraElement._merged(p, (
                (p.multiply(wa, wb), ca * cb)
                for wa, ca in self.terms.items()
                for wb, cb in other.terms.items()))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def star(self) -> "AlgebraElement":
        p = self.presentation
        return AlgebraElement.build(
            p, ((p.involve_word(w), c.conj()) for w, c in self.terms.items()))

    def epsilon(self) -> Scalar:
        p = self.presentation
        out = ZERO
        for w, c in self.terms.items():
            out = out + c * p._word_character(w)
        return out

    def _same_presentation(self, other):
        if other.presentation is not self.presentation:
            raise PresentationError("mixing elements of different presentations")

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in self.words():
            parts.append(f"({self.terms[w]})*{word_key(self.presentation.kind, w)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"AlgebraElement<{self}>"

    def to_json(self) -> list:
        return [[word_to_strs(self.presentation.kind, w), str(self.terms[w])]
                for w in self.words()]


# --- tensors --------------------------------------------------------


class Tensor2:
    """Sum of scalar multiples of elementary tensors a (x) b."""

    __slots__ = ("presentation", "pairs")

    def __init__(self, presentation, pairs):
        self.presentation = presentation
        self.pairs = tuple((Scalar.coerce(c), a, b) for c, a, b in pairs)

    def check_legs_in_kernel(self):
        for i, (c, a, b) in enumerate(self.pairs):
            ea = a.epsilon()
            if not ea.is_zero():
                raise LegNotInKernel(i, "left", ea)
            eb = b.epsilon()
            if not eb.is_zero():
                raise LegNotInKernel(i, "right", eb)

    def mu(self) -> AlgebraElement:
        self.check_legs_in_kernel()
        out = AlgebraElement.zero(self.presentation)
        for c, a, b in self.pairs:
            out = out + (a * b).scale(c)
        return out


# --- kernel-power spanning sets ------------------------------------


def k1_elements(presentation, max_len: int) -> list:
    """The elements w - eps(w)*1 for nonempty canonical words of length <= max_len."""
    p = presentation
    out = []
    for w in p.words_up_to(max_len, include_empty=False):
        eps = p._word_character(w)
        out.append(AlgebraElement(p, {w: ONE, (): -eps} if eps else {w: ONE}))
    return out


def kn_products(presentation, n: int, max_len: int):
    """The distinct products of n kernel elements, yielded as each is formed.

    The order is itertools.product order over `k1_elements`.  Each product
    q (w - e) of a distinct (n-1)-fold prefix q is formed once, in one pass
    over q's terms t, adding each `multiply(t, w)` to the counit half -e q,
    which is formed once per prefix and value of e (none when e = 0).  A
    prefix equal to an earlier one is skipped: its products, and the
    `multiply` calls that form them, are the earlier prefix's.
    """
    if n < 1:
        raise PresentationError("n must be at least 1")
    yield from _products(presentation, k1_elements(presentation, max_len), n)


def _products(p, base, n):
    """`kn_products` over the kernel elements `base`."""
    if n == 1:
        yield from base
        return
    multiply = p.multiply
    seen = set()
    for q in _products(p, base, n - 1):
        halves = {None: {}}  # the counit half -e q of q (w - e), by -e
        for f in base:
            # f is w - e for one canonical word w: its () term is -e
            minus_e = f.terms.get(())
            half = halves.get(minus_e)
            if half is None:
                half = halves[minus_e] = {t: c * minus_e
                                          for t, c in q.terms.items()}
            acc = dict(half)
            for w in f.terms:
                if w:
                    for t, c in q.terms.items():
                        k, u = multiply(t, w)
                        _add_term(acc, u, c if k is ONE else k * c)
            key = frozenset(acc.items())
            if key not in seen:
                seen.add(key)
                yield AlgebraElement(p, acc)


def kn_spanning_set(presentation, n: int, max_len: int) -> list:
    """Products of n kernel elements; a spanning family of truncated K_n."""
    return list(kn_products(presentation, n, max_len))


# --- bounded vanishing check ---------------------------------------


def element_vanishes(element: AlgebraElement, insertions: int = 2) -> bool:
    """Whether the element is certified to be zero.

    True is a proof: every merge of two words used explicit relator
    insertions.  False only means the insertion budget did not suffice.
    """
    p = element.presentation
    if p.kind == STAR_ALGEBRA:
        # star-algebra elements are held in canonical rewritten form already
        return element.is_zero()
    words = element.words()
    parent = {w: w for w in words}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for i, w1 in enumerate(words):
        for w2 in words[i + 1:]:
            if find(w1) == find(w2):
                continue
            if p.equal_mod_relators(w1, w2, insertions=insertions):
                parent[find(w2)] = find(w1)
    totals = {}
    for w in words:
        root = find(w)
        totals[root] = totals.get(root, ZERO) + element.terms[w]
    return all(total.is_zero() for total in totals.values())
