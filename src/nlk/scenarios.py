"""Scenario files: schema validation and object building.

A scenario bundles a presentation, a hermitian form, generator images,
cocycle values, an optional functional, and options (word-length bound,
oracle normal form, named kernel tensors).  Structural problems raise
SchemaError with a pointer into the document; semantic findings (violated
relations, obstructed cocycles) surface later, when the objects are built.

A document repeats its literals ("0" and "1" above all), so `parse_scenario`
keeps one dict for the call, from each literal string already read to its
Scalar, and every scalar position (form, images, cocycle, character, rule
coefficients, psi values and tables, cycle coefficients) reads through it:
each distinct literal is parsed once per call.  The memo holds strings
only, so any other JSON value in a scalar position is refused as before,
and a position's pointer is formatted only when its literal is parsed, so
a bad literal is reported at its first occurrence.  Nothing is kept past
the call.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import NamedTuple

from . import linalg
from .cocycles import Cocycle, Representation, trivial_representation
from .functionals import (
    GroupFunctional,
    StarFunctional,
    build_normal_form,
)
from .linalg import HermitianForm
from .presentations import (
    GROUP,
    STAR_ALGEBRA,
    AlgebraElement,
    Presentation,
    PresentationError,
    Tensor2,
    letter_str,
    word_from_key,
    word_from_strs,
)
from .scalars import Scalar, ScalarError


class ScenarioError(ValueError):
    pass


class ParseError(ScenarioError):
    code = "PARSE_ERROR"

    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__(f"parse error at line {line}, column {col}: {message}")


class SchemaError(ScenarioError):
    code = "SCHEMA_ERROR"

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__(f"at {pointer or '/'}: {message}")


def _require(cond, pointer, message):
    if not cond:
        raise SchemaError(pointer, message)


def _get_dict(doc, key, pointer, required=False, default=None):
    if key not in doc:
        _require(not required, pointer, f"missing required field {key!r}")
        return default
    val = doc[key]
    _require(isinstance(val, dict), f"{pointer}/{key}", "expected an object")
    return val


def _parse_scalar(memo, text, pointer, key=None) -> Scalar:
    """The Scalar of the literal text at pointer, or at pointer/key when key
    is given; memo maps each literal string already parsed to its Scalar."""
    if isinstance(text, str):
        x = memo.get(text)
        if x is not None:
            return x
    if key is not None:
        pointer = f"{pointer}/{key}"
    _require(isinstance(text, str), pointer, "expected a scalar string")
    try:
        x = memo[text] = Scalar.parse(text)
    except ScalarError as exc:
        raise SchemaError(pointer, str(exc)) from exc
    return x


def _parse_vector(memo, items, pointer, dim=None):
    _require(isinstance(items, list), pointer, "expected an array of scalars")
    vec = tuple(_parse_scalar(memo, x, pointer, i) for i, x in enumerate(items))
    if dim is not None:
        _require(len(vec) == dim, pointer,
                 f"expected a vector of size {dim}, got {len(vec)}")
    return vec


def _parse_matrix(memo, rows, pointer, dim=None):
    _require(isinstance(rows, list), pointer, "expected an array of rows")
    mat = tuple(_parse_vector(memo, row, f"{pointer}/{i}")
                for i, row in enumerate(rows))
    if dim is not None:
        _require(len(mat) == dim and all(len(r) == dim for r in mat), pointer,
                 f"expected a {dim}x{dim} matrix")
    else:
        _require(all(len(r) == len(mat[0]) for r in mat) if mat else True,
                 pointer, "ragged matrix")
    return mat


def _letter_strings(tokens, pointer) -> list:
    _require(isinstance(tokens, list)
             and all(isinstance(t, str) for t in tokens),
             pointer, "expected an array of letter strings")
    return tokens


def _parse_word_list(tokens, kind, pointer):
    return word_from_strs(kind, _letter_strings(tokens, pointer))


# bound on word lengths, shared by the schema and --max-word-length
MAX_WORD_LENGTH = 12


class ScenarioOptions(NamedTuple):
    max_word_length: int = 4
    normal_form: dict | None = None
    cycles: dict = MappingProxyType({})  # name -> raw pair list, read-only


class Scenario(NamedTuple):
    raw: dict
    presentation: Presentation
    form: HermitianForm
    representation_images: dict | None
    cocycle_values: dict | None
    functional_raw: dict | None
    options: ScenarioOptions

    # --- semantic builders (may raise domain errors) ----------------

    def build_representation(self) -> Representation:
        if self.representation_images is None:
            return trivial_representation(self.presentation, self.form)
        return Representation(self.presentation, self.form,
                              self.representation_images)

    def build_cocycle(self, representation: Representation) -> Cocycle:
        values = self.cocycle_values or {}
        return Cocycle(representation, values)

    def build_functional(self, cocycle: Cocycle):
        if self.functional_raw is None:
            return None
        if self.presentation.kind == GROUP:
            return GroupFunctional(cocycle, self.functional_raw["psi"])
        return StarFunctional(self.presentation, self.functional_raw["table"])

    def build_cycles(self) -> dict:
        out = {}
        for name, pairs in self.options.cycles.items():
            out[name] = Tensor2(self.presentation, pairs)
        return out

    def build_normal_form(self):
        return build_normal_form(self.presentation, self.options.normal_form)


def parse_scenario(doc: dict) -> Scenario:
    _require(isinstance(doc, dict), "", "scenario must be an object")
    known = {"presentation", "form", "representation", "cocycle",
             "functional", "options"}
    for key in doc:
        _require(key in known, f"/{key}", "unknown scenario field")

    memo = {}
    pres_doc = _get_dict(doc, "presentation", "", required=True)
    presentation = _parse_presentation(memo, pres_doc, "/presentation")

    form_doc = _get_dict(doc, "form", "", required=True)
    gram_raw = form_doc.get("gram")
    _require(gram_raw is not None, "/form", "missing required field 'gram'")
    gram = _parse_matrix(memo, gram_raw, "/form/gram")
    _require(len(gram) >= 1, "/form/gram", "the form needs dimension at least 1")
    try:
        form = HermitianForm(gram)
    except linalg.LinalgError as exc:
        raise SchemaError("/form/gram", str(exc)) from exc
    dim = form.dim

    rep_doc = _get_dict(doc, "representation", "")
    images = None
    if rep_doc is not None:
        images = {}
        gens = set(presentation.generators)
        for g, rows in rep_doc.items():
            _require(g in gens, f"/representation/{g}", "unknown generator")
            images[g] = _parse_matrix(memo, rows, f"/representation/{g}",
                                      dim=dim)
        for g in presentation.generators:
            _require(g in images, "/representation",
                     f"missing image for generator {g!r}")

    coc_doc = _get_dict(doc, "cocycle", "")
    values = None
    if coc_doc is not None:
        if presentation.kind == GROUP:
            allowed = set(presentation.generators)
        else:
            allowed = {letter_str(STAR_ALGEBRA, l)
                       for l in presentation.alphabet()}
        values = {}
        for key, items in coc_doc.items():
            _require(key in allowed, f"/cocycle/{key}",
                     "not a letter that cocycle values may be supplied for")
            values[key] = _parse_vector(memo, items, f"/cocycle/{key}",
                                        dim=dim)

    func_doc = _get_dict(doc, "functional", "")
    functional_raw = None
    if func_doc is not None:
        functional_raw = _parse_functional(memo, func_doc, presentation,
                                           "/functional")

    opt_doc = _get_dict(doc, "options", "")
    options = _parse_options(memo, opt_doc or {}, presentation, "/options")

    return Scenario(raw=doc, presentation=presentation, form=form,
                    representation_images=images, cocycle_values=values,
                    functional_raw=functional_raw, options=options)


def _parse_presentation(memo, doc, pointer) -> Presentation:
    kind = doc.get("kind")
    _require(kind in (GROUP, STAR_ALGEBRA), f"{pointer}/kind",
             f"kind must be {GROUP!r} or {STAR_ALGEBRA!r}")
    gens = doc.get("generators")
    _require(isinstance(gens, list) and gens
             and all(isinstance(g, str) for g in gens),
             f"{pointer}/generators", "expected a nonempty array of names")
    try:
        if kind == GROUP:
            relators_raw = doc.get("relators")
            _require(isinstance(relators_raw, list), f"{pointer}/relators",
                     "expected an array of words")
            relators = [
                _parse_word_list(r, GROUP, f"{pointer}/relators/{i}")
                for i, r in enumerate(relators_raw)]
            extra = set(doc) - {"kind", "generators", "relators"}
            _require(not extra, pointer, f"unknown fields {sorted(extra)}")
            return Presentation(GROUP, gens, relators=relators)
        involution_raw = doc.get("involution")
        character_raw = doc.get("character")
        rules_raw = doc.get("rules")
        _require(isinstance(involution_raw, dict), f"{pointer}/involution",
                 "expected an object mapping generators to letters")
        _require(isinstance(character_raw, dict), f"{pointer}/character",
                 "expected an object mapping generators to scalars")
        _require(isinstance(rules_raw, list), f"{pointer}/rules",
                 "expected an array of rules")
        involution = {}
        for g, tok in involution_raw.items():
            _require(isinstance(tok, str), f"{pointer}/involution/{g}",
                     "expected a letter string")
            involution[g] = tok
        character = {
            g: _parse_scalar(memo, v, f"{pointer}/character", g)
            for g, v in character_raw.items()}
        rules = []
        for i, rule in enumerate(rules_raw):
            rp = f"{pointer}/rules/{i}"
            _require(isinstance(rule, dict), rp, "expected an object")
            lhs = _letter_strings(rule.get("lhs"), f"{rp}/lhs")
            rhs = rule.get("rhs")
            _require(isinstance(rhs, dict), f"{rp}/rhs",
                     "expected an object with coeff and word")
            coeff = _parse_scalar(memo, rhs.get("coeff", "1"), f"{rp}/rhs",
                                  "coeff")
            word = _letter_strings(rhs.get("word"), f"{rp}/rhs/word")
            rules.append((list(lhs), coeff, list(word)))
        extra = set(doc) - {"kind", "generators", "involution", "character",
                            "rules"}
        _require(not extra, pointer, f"unknown fields {sorted(extra)}")
        return Presentation.star_algebra(gens, involution, character, rules)
    except PresentationError as exc:
        raise SchemaError(pointer, str(exc)) from exc


def _parse_functional(memo, doc, presentation, pointer) -> dict:
    if presentation.kind == GROUP:
        psi = doc.get("psi")
        _require(isinstance(psi, dict), f"{pointer}/psi",
                 "expected an object mapping generators to scalars")
        gens = set(presentation.generators)
        values = {}
        for g, v in psi.items():
            _require(g in gens, f"{pointer}/psi/{g}", "unknown generator")
            values[g] = _parse_scalar(memo, v, f"{pointer}/psi", g)
        return {"psi": values}
    table_raw = doc.get("table")
    _require(isinstance(table_raw, dict), f"{pointer}/table",
             "expected an object mapping words to scalars")
    table = {}
    for key, v in table_raw.items():
        tp = f"{pointer}/table/{key}"
        word = word_from_key(STAR_ALGEBRA, key)
        try:
            presentation._check_letters(word)
        except PresentationError as exc:
            raise SchemaError(tp, str(exc)) from exc
        table[word] = _parse_scalar(memo, v, tp)
    return {"table": table}


def _parse_options(memo, doc, presentation, pointer) -> ScenarioOptions:
    known = {"max_word_length", "normal_form", "cycles"}
    extra = set(doc) - known
    _require(not extra, pointer, f"unknown fields {sorted(extra)}")
    max_len = doc.get("max_word_length", 4)
    # a JSON true or false is a bool, which Python counts as an int
    _require(type(max_len) is int and 0 <= max_len <= MAX_WORD_LENGTH,
             f"{pointer}/max_word_length",
             f"expected an integer in 0..{MAX_WORD_LENGTH}")
    nf = doc.get("normal_form")
    if nf is not None:
        _require(isinstance(nf, dict) and isinstance(nf.get("kind"), str),
                 f"{pointer}/normal_form", "expected an object with a kind")
    cycles = {}
    cyc_doc = doc.get("cycles", {})
    _require(isinstance(cyc_doc, dict), f"{pointer}/cycles",
             "expected an object of named tensors")
    for name, pairs_raw in cyc_doc.items():
        cp = f"{pointer}/cycles/{name}"
        _require(isinstance(pairs_raw, list), cp, "expected an array of pairs")
        pairs = []
        for i, pair in enumerate(pairs_raw):
            pp = f"{cp}/{i}"
            _require(isinstance(pair, dict), pp, "expected an object")
            coeff = _parse_scalar(memo, pair.get("coeff", "1"), pp, "coeff")
            left = _parse_element(memo, pair.get("left"), presentation,
                                  f"{pp}/left")
            right = _parse_element(memo, pair.get("right"), presentation,
                                   f"{pp}/right")
            pairs.append((coeff, left, right))
        cycles[name] = pairs
    return ScenarioOptions(max_word_length=max_len, normal_form=nf,
                           cycles=cycles)


def _parse_element(memo, doc, presentation, pointer) -> AlgebraElement:
    _require(isinstance(doc, list), pointer,
             "expected an array of [word, coeff] terms")
    items = []
    for i, term in enumerate(doc):
        tp = f"{pointer}/{i}"
        _require(isinstance(term, list) and len(term) == 2, tp,
                 "expected a [word, coeff] pair")
        tokens, coeff_raw = term
        word = _parse_word_list(tokens, presentation.kind, f"{tp}/0")
        try:
            presentation._check_letters(word)
        except PresentationError as exc:
            raise SchemaError(f"{tp}/0", str(exc)) from exc
        items.append((word, _parse_scalar(memo, coeff_raw, tp, 1)))
    return AlgebraElement.build(presentation, items)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg) from exc
    except RecursionError:
        raise ScenarioError(f"cannot read {path}: its JSON nests too deeply "
                            f"to parse") from None
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(doc)
