"""Parser, printer, and statement syntax."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlattice
from rlattice import (
    Bin,
    Const,
    ConstantKind,
    Eq,
    Imp,
    Lit,
    Lt,
    MixedOperatorError,
    Ne,
    Neg,
    Or,
    ParseError,
    Var,
    Verdict,
    check,
    evaluate,
    format_relation,
    format_statement,
    format_term,
    free_variables,
    model_from_universe,
    parse_goal,
    parse_statement,
    parse_statement_file,
    parse_term,
    search_model,
    verify_model,
)
from rlattice.checker import compile_statement
from rlattice.terms import MAX_TERM_DEPTH, _tokenize, clause, sides
from rlattice.universe import leq


class TestTokenize:
    """The token table: each case is the source and either its tokens as
    `KIND:text@pos` (the END token last) or the error message."""

    @pytest.mark.parametrize("source, expected", [
        # `->` and `!=` before `-`, `!`, `=` and `<`; a lone `-` or `!` is no token
        ("a->b", "IDENT:a@0 PUNC:->@1 IDENT:b@3 END:@4"),
        ("a!=b", "IDENT:a@0 PUNC:!=@1 IDENT:b@3 END:@4"),
        ("a<-b", "unexpected character '-' (at position 2)"),
        ("a=<b", "IDENT:a@0 PUNC:=@1 PUNC:<@2 IDENT:b@3 END:@4"),
        ("!a", "unexpected character '!' (at position 0)"),
        # `#` ends the input, whatever follows it; END sits at the input's end
        ("x = y # é -", "IDENT:x@0 PUNC:=@2 IDENT:y@4 END:@11"),
        ("#", "END:@1"),
        # `v` alone is an operator; longer words starting with v are identifiers
        ("v v1 vx", "OP:v@0 IDENT:v1@2 IDENT:vx@5 END:@7"),
        ("R00'", "CONST:R00@0 OP:'@3 END:@4"),
        ("R2 A_1 9x", "WORD:R2@0 WORD:A_1@3 WORD:9x@7 END:@9"),
        ("empty(", "KEYWORD:empty@0 PUNC:(@5 END:@6"),
        ("full(", "KEYWORD:full@0 PUNC:(@4 END:@5"),
        ("{(A=b)}", "PUNC:{@0 PUNC:(@1 WORD:A@2 PUNC:=@3 IDENT:b@4 PUNC:)@5 PUNC:}@6 END:@7"),
        ("x^y*z+w@u", "IDENT:x@0 OP:^@1 IDENT:y@2 OP:*@3 IDENT:z@4 OP:+@5 IDENT:w@6 OP:@@7"
                      " IDENT:u@8 END:@9"),
        # Unicode spaces are skipped; other non-ASCII characters are errors
        ("x\u3000v\ty", "IDENT:x@0 OP:v@2 IDENT:y@4 END:@5"),
        ("xé", "unexpected character 'é' (at position 1)"),
    ])
    def test_table(self, source, expected):
        try:
            got = " ".join(f"{t.kind}:{t.text}@{t.pos}" for t in _tokenize(source))
        except ParseError as exc:
            got = str(exc)
        assert got == expected


class TestParseTerm:
    def test_parenthesized_mix(self):
        got = parse_term("x ^ (y v z)")
        assert got == Bin("^", Var("x"), Bin("v", Var("y"), Var("z")))

    def test_unparenthesized_mix_rejected(self):
        with pytest.raises(MixedOperatorError):
            parse_term("x ^ y v z")

    def test_postfix_complement_binds_tightest(self):
        got = parse_term("{(t=a),(t=b)}'")
        assert got == Neg(Lit("rows", ("t",), (("a",), ("b",))))
        assert parse_term("x ^ y'") == Bin("^", Var("x"), Neg(Var("y")))

    def test_chain_associates_left(self):
        got = parse_term("x + y + z")
        assert got == Bin("+", Bin("+", Var("x"), Var("y")), Var("z"))

    def test_nested_parens_same_operator(self):
        got = parse_term("x ^ (y ^ z)")
        assert got == Bin("^", Var("x"), Bin("^", Var("y"), Var("z")))

    def test_double_complement(self):
        assert parse_term("x''") == Neg(Neg(Var("x")))

    def test_constants(self):
        assert parse_term("R10") == Const(ConstantKind.R10)

    def test_empty_full_literals(self):
        assert parse_term("empty(t,s)") == Lit("empty", ("t", "s"))
        assert parse_term("full()") == Lit("full", ())

    def test_zero_column_tuple(self):
        assert parse_term("{()}") == Lit("rows", (), ((),))

    def test_tuples_must_share_attributes(self):
        with pytest.raises(ParseError):
            parse_term("{(t=a),(s=1)}")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_term("x ^ ?")
        assert err.value.pos == 4

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_term("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_term("x y")

    def test_v_is_an_operator_not_a_variable(self):
        with pytest.raises(ParseError):
            parse_term("v ^ x")


class TestParseStatement:
    def test_equation(self):
        assert parse_statement("x ^ y = y ^ x") == Eq(
            Bin("^", Var("x"), Var("y")), Bin("^", Var("y"), Var("x"))
        )

    def test_complement_axiom(self):
        got = parse_statement("x' ^ x = x ^ R00")
        assert got == Eq(Bin("^", Neg(Var("x")), Var("x")),
                         Bin("^", Var("x"), Const(ConstantKind.R00)))

    def test_implication(self):
        got = parse_statement("R00 ^ y = R00 ^ z -> x ^ (y v z) = (x ^ y) v (x ^ z)")
        assert isinstance(got, Imp)
        assert len(got.premises) == 1

    def test_inequation_and_order(self):
        assert isinstance(parse_statement("x != y"), Ne)
        assert isinstance(parse_statement("x < y"), Lt)

    def test_multi_premise(self):
        got = parse_statement("x = y & y = z -> x = z")
        assert isinstance(got, Imp) and len(got.premises) == 2

    def test_dangling_ampersand(self):
        with pytest.raises(ParseError):
            parse_statement("x = y & y = z")

    def test_no_nested_implication(self):
        with pytest.raises(ParseError):
            parse_statement("x = y -> y = z -> x = z")


class TestParseGoal:
    def test_disjunction(self):
        got = parse_goal("x v R00 = R00 | x v R00 = R00'")
        assert isinstance(got, Or) and len(got.alts) == 2

    def test_plain_statement_passes_through(self):
        assert isinstance(parse_goal("x = y"), Eq)

    def test_statement_parser_rejects_disjunction(self):
        with pytest.raises(ParseError):
            parse_statement("x = y | x = z")

    def test_no_disjunction_of_implication(self):
        with pytest.raises(ParseError):
            parse_goal("x = y -> y = z | x = z")


class TestFreeVariables:
    def test_first_appearance_order(self):
        assert free_variables(parse_statement("x ^ y = y ^ x")) == ("x", "y")

    def test_single(self):
        assert free_variables(parse_statement("x ^ R10 = R10")) == ("x",)

    def test_conditional(self):
        sdc = parse_statement("R00 ^ (x v y) = R00 ^ (x v z) -> x ^ (y v z) = (x ^ y) v (x ^ z)")
        assert free_variables(sdc) == ("x", "y", "z")


# Terms over every operator and constant, without literals.
variable_terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("z"), *(Const(k) for k in ConstantKind)]),
    lambda sub: st.one_of(st.builds(Neg, sub),
                          st.builds(Bin, st.sampled_from(["^", "v", "*", "+", "@"]), sub, sub)),
    max_leaves=8,
)


class TestClauseAndSides:
    def test_clause_shapes(self):
        a, b, c = (parse_statement(f"{v} = R00") for v in "xyz")
        assert clause(a) == ((), (a,))
        assert clause(Imp((a, b), c)) == ((a, b), (c,))
        assert clause(Or((a, b, c))) == ((), (a, b, c))
        with pytest.raises(TypeError):
            clause(Var("x"))

    def test_order_inequation_and_cylindrification(self):
        x, y = Var("x"), Var("y")
        r11 = Const(ConstantKind.R11)
        assert sides(parse_statement("x < y")) == (Bin("^", x, y), x, True)
        assert sides(parse_statement("x != y'")) == (x, Neg(y), False)
        cyl = Bin("+", Bin("v", y, r11), x)
        assert sides(parse_statement("(y @ x)' = x")) == (Neg(cyl), x, True)
        assert sides(parse_statement("x < y @ x")) == (Bin("^", x, cyl), x, True)
        with pytest.raises(TypeError):
            sides(Imp((parse_statement("x = y"),), parse_statement("y = x")))

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from([Eq, Ne, Lt]), lhs=variable_terms, rhs=variable_terms,
           uid=st.sampled_from(["u1", "u2"]), data=st.data())
    def test_sides_hold_exactly_when_the_atom_holds(self, u1, u2, rels1, rels2,
                                                   kind, lhs, rhs, uid, data):
        """Against the relation-level operations and order of `rlattice.universe`."""
        u, rels = (u1, rels1) if uid == "u1" else (u2, rels2)
        env = {name: data.draw(st.sampled_from(rels), label=name) for name in "xyz"}
        a, b = evaluate(u, lhs, env), evaluate(u, rhs, env)
        holds = {Eq: a == b, Ne: a != b, Lt: leq(u, a, b)}[kind]
        left, right, equal = sides(kind(lhs, rhs))
        assert ((evaluate(u, left, env) == evaluate(u, right, env)) == equal) == holds


class TestStatementFiles:
    def test_comments_and_blanks(self):
        text = "# a comment\n\nx = y\nx ^ y = y ^ x  # trailing\n"
        got = parse_statement_file(text)
        assert len(got) == 2

    def test_error_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_statement_file("x = y\nx ^^ y = y\n")
        assert "line 2" in str(err.value)

    def test_error_keeps_its_class_and_one_position(self):
        with pytest.raises(MixedOperatorError) as err:
            parse_statement_file("x = y\nx ^ y v z = y\n")
        assert str(err.value) == (
            "line 2: operator 'v' mixed with '^'; parenthesize one side (at position 6)")
        assert err.value.pos == 6


# ---- nesting bound ----------------------------------------------------------

NESTED = {
    "parentheses": lambda d: "(" * d + "x" + ")" * d,
    "complements": lambda d: "x" + "'" * d,
    "binary chain": lambda d: " v ".join(["x"] * (d + 1)),
}


class TestNestingBound:
    @pytest.mark.parametrize("shape", NESTED)
    def test_at_bound_parses(self, shape):
        parse_statement(NESTED[shape](MAX_TERM_DEPTH) + " = x")

    @pytest.mark.parametrize("shape", NESTED)
    @pytest.mark.parametrize("extra", [1, 800])
    def test_beyond_bound_rejected(self, shape, extra):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_statement(NESTED[shape](MAX_TERM_DEPTH + extra) + " = x")

    def test_parentheses_and_operators_counted_apart(self):
        d = MAX_TERM_DEPTH
        parse_term("(" * d + NESTED["complements"](d) + ")" * d)
        parse_term(format_term(parse_term(" v ".join(["x"] * (d + 1)))))
        with pytest.raises(ParseError):
            parse_term("(" * d + NESTED["complements"](d) + ")" * d + "'")

    @pytest.mark.parametrize("shape, axiom", [("complements", "x'' = x"),
                                              ("binary chain", "x v x = x")])
    def test_at_bound_runs_everywhere(self, u1, rels1, shape, axiom):
        statement = parse_statement(NESTED[shape](MAX_TERM_DEPTH) + " = x")
        assert check(u1, statement).verdict is Verdict.HOLDS
        assert all(evaluate(u1, statement.lhs, {"x": r}) == r for r in rels1)
        assert verify_model(model_from_universe(u1), [statement])[0].verdict is Verdict.HOLDS
        # grounded as a goal: the axiom makes it true in every model
        outcome = search_model([axiom], [statement], range(2, 4))
        assert not outcome.found and outcome.sizes_excluded == (2, 3)


# ---- round-trip property -----------------------------------------------------

attr_names = st.sampled_from(["t", "s", "u0", "ab"])
values = st.sampled_from(["a", "b", "1", "2", "x1"])


@st.composite
def literals(draw):
    shape = draw(st.sampled_from(["rows", "empty", "full"]))
    attrs = tuple(draw(st.lists(attr_names, unique=True, max_size=2)))
    if shape != "rows":
        return Lit(shape, attrs)
    nrows = draw(st.integers(min_value=1, max_value=2))
    rows = tuple(
        tuple(draw(values) for _ in attrs) for _ in range(nrows)
    )
    return Lit("rows", attrs, rows)


def terms_strategy():
    base = st.one_of(
        st.sampled_from([Var("x"), Var("y"), Var("z"), Var("r")]),
        st.sampled_from([Const(k) for k in ConstantKind]),
        literals(),
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from(["^", "v", "*", "+", "@"]), children, children)
            .map(lambda t: Bin(*t)),
        ),
        max_leaves=12,
    )


@st.composite
def statements(draw):
    atom = st.builds(
        draw(st.sampled_from([Eq, Ne, Lt])), terms_strategy(), terms_strategy()
    )
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return draw(atom)
    if kind == 1:
        prems = tuple(draw(st.lists(atom, min_size=1, max_size=3)))
        return Imp(prems, draw(atom))
    return Or(tuple(draw(st.lists(atom, min_size=2, max_size=3))))


def reparse(s):
    text = format_statement(s)
    return parse_goal(text) if isinstance(s, Or) else parse_statement(text)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(terms_strategy())
    def test_terms(self, t):
        assert parse_term(format_term(t)) == t

    @settings(max_examples=200, deadline=None)
    @given(statements())
    def test_statements(self, s):
        assert reparse(s) == s


# One of each statement class, with variables, constants and a literal,
# whose hashes all depend on the process's string hash seed.
HASHED_TEXTS = [
    "x ^ (y v z) = (x ^ y) v (x ^ z)",
    "{(t=a)} ^ x != R10",
    "x < x v (y @ z)",
    "x ^ y = x & y ^ x = y -> x = y",
    "x v R00 = R00 | x v R00 = R00'",
]

# Run under two hash seeds: the first pickles each statement, after
# hashing and compiling it, and a deep copy of it; the second loads
# both and requires them to act as a fresh parse would.
DUMP = """
import copy, pickle, sys
from rlattice import parse_goal
from rlattice.checker import compile_statement
stmts = [parse_goal(t) for t in sys.argv[1:]]
for s in stmts:
    compile_statement(s)
sys.stdout.buffer.write(pickle.dumps((stmts, [copy.deepcopy(s) for s in stmts])))
"""
LOAD = """
import pickle, sys
from rlattice import parse_goal
from rlattice.checker import compile_statement
plain, copied = pickle.loads(sys.stdin.buffer.read())
for text, a, b in zip(sys.argv[1:], plain, copied):
    fresh = parse_goal(text)
    code = compile_statement(fresh)
    assert a == b == fresh and hash(a) == hash(b) == hash(fresh), text
    assert compile_statement(a) is code and compile_statement(b) is code, text
print(len(plain))
"""


class TestStatementHash:
    @settings(max_examples=100, deadline=None)
    @given(statements())
    def test_equal_statements_hash_and_compile_alike(self, s):
        again = reparse(s)
        assert hash(s) == hash(again)
        # the dataclass's structural hash, over every field
        assert hash(s) == hash(tuple(getattr(s, f.name) for f in dataclasses.fields(s)))
        assert compile_statement(reparse(s)) is compile_statement(again)

    def test_hash_not_pickled_or_copied(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(rlattice.__file__)))

        def run(script, seed, data=b""):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", script, *HASHED_TEXTS], input=data,
                                  env=env, capture_output=True, timeout=60)
            assert done.returncode == 0, done.stderr.decode()
            return done.stdout

        assert run(LOAD, 2, run(DUMP, 1)) == b"5\n"


class TestInterning:
    """The same text parses to the same statement object, and a constant
    hashes by identity; neither changes what a statement equals or how it
    survives pickling and copying."""

    @pytest.mark.parametrize("text", HASHED_TEXTS)
    def test_same_text_same_object(self, text):
        assert parse_goal(text) is parse_goal(text)
        if "|" not in text:
            assert parse_statement(text) is parse_statement(text)
            assert parse_statement(text) == parse_goal(text)

    @pytest.mark.parametrize("parse, text", [(parse_statement, "x = y | x = z"),
                                             (parse_goal, "x = y ->"), (parse_goal, "  ")])
    def test_errors_not_cached(self, parse, text):
        raised = []
        for _ in range(3):
            with pytest.raises(ParseError) as err:
                parse(text)
            raised.append(err.value)
        assert len({id(e) for e in raised}) == 3
        assert len({str(e) for e in raised}) == 1

    def test_constants_survive_pickle_and_copy(self):
        for kind in ConstantKind:
            assert pickle.loads(pickle.dumps(kind)) is kind
            assert copy.copy(kind) is kind and copy.deepcopy(kind) is kind
            assert {k: k.value for k in ConstantKind}[pickle.loads(pickle.dumps(kind))] == kind.value
        for text in HASHED_TEXTS:
            s = parse_goal(text)
            for again in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
                assert again is not s and again == s and hash(again) == hash(s), text
                assert compile_statement(again) is compile_statement(s)


class TestFormatRelation:
    def test_empty_relation_literal(self, u1):
        assert format_relation(u1.relation(["t"], [])) == "empty(t)"

    def test_rows_literal(self, u2):
        r = u2.relation(["t", "s"], [["a", "1"], ["b", "2"]])
        assert format_relation(r) == "{(t=a,s=1),(t=b,s=2)}"

    def test_r01_prints_as_empty_tuple(self, u1):
        from rlattice import ConstantKind, constant
        assert format_relation(constant(u1, ConstantKind.R01)) == "{()}"

    def test_roundtrip_through_parser(self, u2, rels2):
        from rlattice import evaluate
        for r in rels2:
            lit = parse_term(format_relation(r))
            assert evaluate(u2, lit, {}) == r
