import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloglin import FormulaError, ModelFormula, parse_formula, parse_generators
from sparseloglin.formula import INTERCEPT, Term, hierarchical_closure


def term_set(*names):
    return frozenset({INTERCEPT} | {Term(n) for n in names})


class TestParseFormula:
    def test_no_three_way_model(self):
        model = parse_formula("freq ~ a*b + a*c + b*c")
        assert model.response == "freq"
        assert model.terms == term_set("a", "b", "c", "ab", "ac", "bc")

    def test_single_main_effect(self):
        assert parse_formula("freq ~ a").terms == term_set("a")

    def test_colon_term_closed_hierarchically(self):
        assert parse_formula("freq ~ a:b").terms == term_set("a", "b", "ab")

    def test_intercept_only(self):
        assert parse_formula("freq ~ 1").terms == frozenset({INTERCEPT})

    def test_duplicate_terms_merged(self):
        a = parse_formula("freq ~ a*b + a + b")
        b = parse_formula("freq ~ a*b")
        assert a.terms == b.terms

    def test_response_name_kept(self):
        assert parse_formula("count ~ a").response == "count"

    @pytest.mark.parametrize(
        "bad",
        ["freq a*b", "freq ~ ", "freq ~ a*a", "freq ~ a*b:c", "freq ~ a + + b", "1 2 ~ a"],
    )
    def test_rejects(self, bad):
        with pytest.raises(FormulaError):
            parse_formula(bad)


class TestParseGenerators:
    def test_bracket_equals_formula(self):
        assert parse_generators("[ab][bc][ac]").terms == parse_formula("freq ~ a*b + a*c + b*c").terms

    def test_pipe_notation_rochdale_model(self):
        model = parse_generators("|ad|ae|be|ce|ef|acg|dg|fg|bdh|")
        sizes = sorted(len(t) for t in model.terms)
        # intercept + 8 mains + 13 two-way + 2 three-way = 24 free
        # parameters once every factor is binary
        assert len(model.terms) == 24
        assert sizes == [0] + [1] * 8 + [2] * 13 + [3] * 2
        assert Term("acg") in model.terms and Term("bdh") in model.terms

    def test_independence_model(self):
        assert parse_generators("[a][b]").terms == term_set("a", "b")

    def test_generator_characters_split(self):
        model = parse_generators("[acg]")
        assert model.generators == (Term("acg"),)
        assert Term("ac") in model.terms

    @pytest.mark.parametrize("bad", ["[ab][]", "[a[b]]", "[ab", "||", "", "ab", "[aa]"])
    def test_rejects(self, bad):
        with pytest.raises(FormulaError):
            parse_generators(bad)

    @pytest.mark.parametrize("bad", ["[a b][c]", "[a,b]", "|a-b|c|", "|a b|", "[a1]"])
    def test_rejects_non_identifier_factor_characters(self, bad):
        # each character of a group names a factor, so it must be an
        # identifier character, as formula factor names are identifiers
        with pytest.raises(FormulaError, match="bad factor name"):
            parse_generators(bad)


names = st.frozensets(st.sampled_from("abcde"), min_size=1, max_size=4)


class TestClosureProperties:
    @given(st.sets(names, min_size=1, max_size=5))
    @settings(deadline=None)
    def test_closure_is_fixpoint(self, gens):
        once = hierarchical_closure(Term(g) for g in gens)
        assert hierarchical_closure(once) == once

    @given(st.sets(names, min_size=1, max_size=5))
    @settings(deadline=None)
    def test_generators_reconstruct_terms(self, gens):
        model = ModelFormula("freq", hierarchical_closure(Term(g) for g in gens))
        rebuilt = ModelFormula.from_generators(model.generators)
        assert rebuilt.terms == model.terms

    def test_non_closed_term_set_rejected(self):
        with pytest.raises(FormulaError):
            ModelFormula("freq", frozenset({INTERCEPT, Term("ab")}))

    def test_canonical_order_by_size_then_name(self):
        model = parse_generators("[ba][c]")
        assert model.canonical_terms() == [INTERCEPT, Term("a"), Term("b"), Term("c"), Term("ab")]
