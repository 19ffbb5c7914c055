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
the rules leftmost first until no rule matches, guarded by a step budget
that is read from the environment once, when the presentation is built.
"""

from __future__ import annotations

import os
import re
from typing import NamedTuple

from .scalars import ONE, ZERO, Scalar

GROUP = "group"
STAR_ALGEBRA = "star_algebra"

DEFAULT_STEP_BUDGET = 10000
STEP_BUDGET_ENV = "NLK_STEP_BUDGET"

# the most words `words_up_to` may list; every catalog and benchmark input and
# the p2 oracle at length 8 (585,937 words) stay below it
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


class StepBudgetError(PresentationError):
    """NLK_STEP_BUDGET is malformed: a fault of the environment, not of the
    presentation being built."""


def _read_step_budget() -> int:
    raw = os.environ.get(STEP_BUDGET_ENV)
    if raw is None:
        return DEFAULT_STEP_BUDGET
    text = raw.strip()
    if not (text.isascii() and text.isdigit()):
        raise StepBudgetError(
            f"{STEP_BUDGET_ENV} must be a non-negative integer, got {raw!r}")
    return int(text)


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
        self._genset = frozenset(self.generators)
        if kind == GROUP:
            self._init_group()
        else:
            self._init_star()
        self._words_cache = {}
        self._variants_cache = None

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
        self._step_budget = _read_step_budget()
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
        self._max_lhs = max((len(rule.lhs) for rule in self.rules), default=1)

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
        rules_at = self._rules_at
        back = self._max_lhs - 1
        coeff = ONE
        steps = 0
        budget = self._step_budget
        i = 0
        while i < len(cur):
            for lhs, n, rule in rules_at.get(cur[i], ()):
                if cur[i:i + n] == lhs:
                    coeff = coeff * rule.coeff
                    if coeff.is_zero():
                        return ZERO, ()
                    cur[i:i + n] = rule.rhs
                    steps += 1
                    if steps > budget:
                        raise ReductionBudgetExceeded(word, budget, rule, steps)
                    i = max(0, i - back)
                    break
            else:
                i += 1
        return coeff, tuple(cur)

    def involve_word(self, word) -> tuple:
        """Raw star of a word: reverse and star each letter (not reduced)."""
        return tuple(self.star_letter(l) for l in reversed(word))

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
            for _ in range(max_len):
                nxt = []
                room = WORD_BUDGET - len(words)
                for w in frontier:
                    for l in alphabet:
                        cand = w + (l,)
                        if self.kind == GROUP:
                            if w and w[-1] == (l[0], -l[1]):
                                continue
                        else:
                            if self._has_redex_at_end(cand):
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

    def _has_redex_at_end(self, word) -> bool:
        rules_at = self._rules_at
        for k in range(1, min(self._max_lhs, len(word)) + 1):
            for _, n, rule in rules_at.get(word[-k], ()):
                if n == k and word[-k:] == rule.lhs:
                    return True
        return False

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


class AlgebraElement:
    """Finite linear combination of canonical-form words."""

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation: Presentation, terms: dict):
        self.presentation = presentation
        self.terms = terms

    @classmethod
    def build(cls, presentation, items) -> "AlgebraElement":
        acc = {}
        for word, coeff in items:
            coeff = Scalar.coerce(coeff)
            if coeff.is_zero():
                continue
            c, red = presentation.reduce(word)
            c = c * coeff
            if c.is_zero():
                continue
            tot = acc.get(red, ZERO) + c
            if tot.is_zero():
                acc.pop(red, None)
            else:
                acc[red] = tot
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
            tot = acc.get(w, ZERO) + c
            if tot.is_zero():
                acc.pop(w, None)
            else:
                acc[w] = tot
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
            items = []
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    items.append((wa + wb, ca * cb))
            return AlgebraElement.build(self.presentation, items)
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
    one = AlgebraElement.one(presentation)
    out = []
    for w in presentation.words_up_to(max_len, include_empty=False):
        e = AlgebraElement.from_word(presentation, w)
        eps = e.epsilon()
        out.append(e - one.scale(eps))
    return out


def kn_spanning_set(presentation, n: int, max_len: int) -> list:
    """Products of n kernel elements; a spanning family of truncated K_n."""
    if n < 1:
        raise PresentationError("n must be at least 1")
    base = k1_elements(presentation, max_len)
    if n == 1:
        return base
    # the (n-1)-fold products, each formed once, in itertools.product order
    prefixes = base
    for _ in range(n - 2):
        prefixes = [prefix * f for prefix in prefixes for f in base]
    seen = {}
    for prefix in prefixes:
        for f in base:
            prod = prefix * f
            key = tuple(sorted(prod.terms.items(),
                               key=lambda kv: _word_sort_key(kv[0])))
            if key not in seen:
                seen[key] = prod
    return list(seen.values())


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
