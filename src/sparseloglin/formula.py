"""Hierarchical log-linear model specifications.

Two notations are supported and produce identical structures:

* formula text, ``freq ~ a*b + a*c + b*c`` (``*`` crosses factors into
  all subsets, ``:`` names a single interaction which is then closed
  hierarchically, ``1`` is the intercept-only model);
* generator strings, ``[ab][bc][ac]`` or ``|ad|ae|bdh|``, where each
  group is a generator over single-character factor names, each an
  identifier character (a letter or ``_``).

A term is a frozenset of factor names; the empty frozenset is the
intercept.  Term sets are always hierarchically closed: every nonempty
subset of a term is itself a term.
"""

from dataclasses import dataclass
from itertools import combinations

__all__ = ["Term", "INTERCEPT", "ModelFormula", "FormulaError", "parse_formula", "parse_generators"]

Term = frozenset
INTERCEPT = frozenset()


class FormulaError(ValueError):
    """Unparseable model specification."""


def hierarchical_closure(terms):
    """Close a collection of terms under nonempty subsets, plus the intercept."""
    closed = {INTERCEPT}
    for term in terms:
        for k in range(1, len(term) + 1):
            closed.update(frozenset(sub) for sub in combinations(sorted(term), k))
    return frozenset(closed)


def term_sort_key(term):
    """Canonical order: by term size, then lexicographic on factor names."""
    return (len(term), tuple(sorted(term)))


@dataclass(frozen=True)
class ModelFormula:
    """A hierarchical term set with its frequency-column name."""

    response: str
    terms: frozenset

    def __post_init__(self):
        terms = frozenset(Term(t) for t in self.terms) | {INTERCEPT}
        if terms != hierarchical_closure(terms):
            raise FormulaError("term set is not hierarchically closed")
        object.__setattr__(self, "terms", terms)

    @property
    def generators(self):
        """The inclusion-maximal terms."""
        nonempty = [t for t in self.terms if t]
        maximal = [t for t in nonempty if not any(t < u for u in nonempty)]
        return tuple(sorted(maximal, key=term_sort_key))

    @property
    def factors(self):
        """All factor names appearing in any term."""
        names = set()
        for t in self.terms:
            names.update(t)
        return frozenset(names)

    def canonical_terms(self):
        """All terms in canonical order, the intercept first."""
        return sorted(self.terms, key=term_sort_key)

    @classmethod
    def from_generators(cls, generators):
        """The hierarchical closure of ``generators``, with response ``freq``."""
        gens = []
        for g in generators:
            term = Term(g)
            if not term:
                raise FormulaError("empty generator")
            gens.append(term)
        return cls("freq", hierarchical_closure(gens))


def _parse_term(text):
    text = text.strip()
    if text == "1":
        return []
    if "*" in text and ":" in text:
        raise FormulaError(f"term {text!r} mixes '*' and ':'")
    # Both forms yield the same hierarchical closure; the distinction
    # only matters for non-hierarchical models, which are out of scope.
    names = [n.strip() for n in text.split("*" if "*" in text else ":")]
    if any(not n.isidentifier() for n in names):
        raise FormulaError(f"bad factor name in term {text!r}")
    if len(set(names)) != len(names):
        raise FormulaError(f"repeated factor in term {text!r}")
    return [Term(names)]


def parse_formula(text):
    """Parse ``<response> ~ <term> (+ <term>)*`` into a hierarchical model."""
    if "~" not in text:
        raise FormulaError(f"no '~' in formula {text!r}")
    lhs, rhs = text.split("~", 1)
    response = lhs.strip()
    if not response.isidentifier():
        raise FormulaError(f"bad response name {response!r}")
    if not rhs.strip():
        raise FormulaError("empty right-hand side")
    terms = []
    for chunk in rhs.split("+"):
        if not chunk.strip():
            raise FormulaError(f"empty term in formula {text!r}")
        terms.extend(_parse_term(chunk))
    return ModelFormula(response, hierarchical_closure(terms))


def parse_generators(text):
    """Parse bracket or pipe generator notation, e.g. ``[ab][bc]`` or ``|ad|bdh|``.

    Factor names are single identifier characters; each group becomes one
    generator and the result is the hierarchical closure of all groups,
    with response ``freq``.
    """
    text = text.strip()
    if not text:
        raise FormulaError("empty generator string")
    if text.startswith("["):
        groups, depth, cur = [], 0, ""
        for ch in text:
            if ch == "[":
                depth += 1
                if depth > 1:
                    raise FormulaError("nested '[' in generator string")
                cur = ""
            elif ch == "]":
                depth -= 1
                if depth < 0:
                    raise FormulaError("unbalanced ']' in generator string")
                groups.append(cur)
            elif depth == 1:
                cur += ch
            elif not ch.isspace():
                raise FormulaError(f"unexpected {ch!r} outside brackets")
        if depth != 0:
            raise FormulaError("unbalanced '[' in generator string")
    elif text.startswith("|"):
        if "[" in text or "]" in text:
            raise FormulaError("mixed '|' and '[' delimiters")
        groups = [g for g in text.split("|")]
        if groups and groups[0] == "":
            groups = groups[1:]
        if groups and groups[-1] == "":
            groups = groups[:-1]
    else:
        raise FormulaError(f"generator string must start with '[' or '|': {text!r}")

    gens = []
    for g in groups:
        g = g.strip()
        if not g:
            raise FormulaError("empty generator group")
        names = list(g)
        if not all(name.isidentifier() for name in names):
            raise FormulaError(f"bad factor name in generator {g!r}")
        if len(set(names)) != len(names):
            raise FormulaError(f"repeated factor in generator {g!r}")
        gens.append(names)
    return ModelFormula.from_generators(gens)
