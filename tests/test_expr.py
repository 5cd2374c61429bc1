import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_surface.expr import (
    BinOp,
    Call,
    Const,
    DomainEvalError,
    FUNCTIONS,
    ExprSyntaxError,
    ImmersionFileError,
    Neg,
    Num,
    Param,
    eval_jet2,
    eval_jets,
    parse_expression,
    parse_immersion_file,
    unparse,
)
from dirac_surface.corpus import corpus_path


def ev(text, s, params=("u", "v")):
    return eval_jet2(parse_expression(text, params), s)


def test_parse_cos_param():
    ast = parse_expression("cos(u)", ("u", "v"))
    assert ast == Call("cos", (Param(0),))


def test_syntax_error_column():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression("u + * v", ("u", "v"))
    assert exc.value.column == 5
    assert "column 5" in str(exc.value)


def test_power_right_associative():
    assert ev("2^3^2", (0.0, 0.0)).value == 512.0


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than * /
    assert ev("-2^2", (0.0, 0.0)).value == -4.0
    assert ev("2*u+v", (3.0, 1.0)).value == 7.0
    assert ev("-u^2", (3.0, 0.0)).value == -9.0
    ast = parse_expression("1 - 2 - 3", ("u", "v"))
    assert eval_jet2(ast, (0, 0)).value == -4.0


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'w'"):
        parse_expression("u + w", ("u", "v"))


def test_arity_mismatch():
    with pytest.raises(ExprSyntaxError, match="atan2 takes 2"):
        parse_expression("atan2(u)", ("u", "v"))
    with pytest.raises(ExprSyntaxError, match="sin takes 1"):
        parse_expression("sin(u, v)", ("u", "v"))


def test_pi_constant():
    assert ev("pi", (0, 0)).value == math.pi
    assert ev("cos(pi)", (0, 0)).value == -1.0


def test_jet_cos_at_zero():
    jet = ev("cos(u)", (0.0, 0.3))
    assert jet.value == 1.0
    assert jet.grad == (0.0, 0.0)
    assert jet.hess[0] == -1.0


def test_jet_product():
    jet = ev("u*v", (2.0, 3.0))
    assert jet.value == 6.0
    assert jet.grad == (3.0, 2.0)
    assert jet.hess == (0.0, 1.0, 0.0)


def _fd_jet(text, s, h1=1e-4, h2=1e-3):
    """Central-difference oracle for the gradient and Hessian."""
    f = lambda u, v: ev(text, (u, v)).value
    u, v = s
    grad = (
        (f(u + h1, v) - f(u - h1, v)) / (2 * h1),
        (f(u, v + h1) - f(u, v - h1)) / (2 * h1),
    )
    hess = (
        (f(u + h2, v) - 2 * f(u, v) + f(u - h2, v)) / h2**2,
        (f(u + h2, v + h2) - f(u + h2, v - h2) - f(u - h2, v + h2) + f(u - h2, v - h2))
        / (4 * h2**2),
        (f(u, v + h2) - 2 * f(u, v) + f(u, v - h2)) / h2**2,
    )
    return grad, hess


def test_jet_exp_square_matches_fd():
    jet = ev("exp(u^2)", (0.5, 0.0))
    grad, hess = _fd_jet("exp(u^2)", (0.5, 0.0))
    assert jet.grad[0] == pytest.approx(grad[0], rel=1e-6)
    assert jet.hess[0] == pytest.approx(hess[0], rel=1e-5)


_SMOOTH_EXPRS = [
    "sin(u)*cos(v) + u^2",
    "exp(0.3*u)*tanh(v)",
    "atan2(v + 2, u + 3)",
    "sqrt(u^2 + v^2 + 1)",
    "log(2 + sinh(u) * 0.1) - v/3",
    "u^3 - 2*u*v + cos(u*v)",
    "tan(0.5*u) + cosh(v)*atan(u - v)",
    "1/(2 + u*v) + (1.5 + u)^1.7",
    "atan2(3 + v, u)",
    "atan2(v + 1, u - 2)",
]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(_SMOOTH_EXPRS),
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
)
def test_jets_match_finite_differences(text, u, v):
    jet = ev(text, (u, v))
    grad, hess = _fd_jet(text, (u, v))
    scale = max(1.0, abs(jet.value))
    for a, b in zip(jet.grad, grad):
        assert abs(a - b) <= 1e-5 * max(scale, abs(a))
    for a, b in zip(jet.hess, hess):
        assert abs(a - b) <= 1e-4 * max(scale, abs(a), 1.0)
    # third partials against central differences of the exact Hessian:
    # t112 and t122 each have two difference estimates
    h = 1e-4
    dh = [
        [(x - y) / (2 * h) for x, y in zip(ev(text, p).hess, ev(text, m).hess)]
        for p, m in (((u + h, v), (u - h, v)), ((u, v + h), (u, v - h)))
    ]
    t111, t112, t122, t222 = jet.third
    for a, b in (
        (t111, dh[0][0]),
        (t112, dh[1][0]),
        (t112, dh[0][1]),
        (t122, dh[1][1]),
        (t122, dh[0][2]),
        (t222, dh[1][2]),
    ):
        assert abs(a - b) <= 1e-5 * max(scale, abs(a), 1.0)


def test_domain_errors():
    with pytest.raises(DomainEvalError, match=r"division by zero at s = \(0\.0, 0\.5\)"):
        ev("1/u", (0.0, 0.5))
    with pytest.raises(DomainEvalError, match="sqrt"):
        ev("sqrt(u)", (-1.0, 0.0))
    with pytest.raises(DomainEvalError, match="log"):
        ev("log(u)", (-1.0, 0.0))


def test_integer_power_of_negative_base():
    jet = ev("u^2", (-0.5, 0.0))
    assert jet.value == 0.25
    assert jet.grad[0] == -1.0
    with pytest.raises(DomainEvalError):
        ev("u^0.5", (-0.5, 0.0))


# --- canonical printing ----------------------------------------------------

# number literals are non-negative in the grammar; negation is a Neg node
_ast_leaf = st.one_of(
    st.builds(Num, st.floats(0, 5, allow_nan=False).map(lambda x: round(x, 3) + 0.0)),
    st.just(Const("pi")),
    st.builds(Param, st.integers(0, 1)),
)


def _ast_nodes(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        *(
            st.builds(lambda *args, name=name: Call(name, args), *[children] * arity)
            for name, arity in FUNCTIONS.items()
        ),
    )


@settings(max_examples=150, deadline=None)
@given(st.recursive(_ast_leaf, _ast_nodes, max_leaves=12))
def test_unparse_round_trip(ast):
    text = unparse(ast, ("u", "v"))
    assert parse_expression(text, ("u", "v")) == ast


def _refused_index(ast, S):
    """The index ``eval_jets`` refuses ``S`` with, None when it returns."""
    try:
        jets = eval_jets(ast, S)
    except DomainEvalError as exc:
        return exc.index
    assert jets.shape == np.shape(S)[:-1] + (10,)
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.recursive(_ast_leaf, _ast_nodes, max_leaves=12),
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
)
def test_point_and_stack_evaluators_refuse_alike(ast, u, v):
    """One point runs on plain floats through the C library, a stack
    through numpy: both refuse the same points, overflow included, and
    neither warns.  The messages may differ, since the float path stops
    at its first error and numpy runs on to a later domain check."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = _refused_index(ast, (u, v))
        row = _refused_index(ast, [[u, v]])
    assert point in (None, 0)
    assert row == point


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(_SMOOTH_EXPRS),
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
)
def test_point_and_stack_jets_agree(text, u, v):
    ast = parse_expression(text, ("u", "v"))
    point = eval_jets(ast, (u, v))
    (row,) = eval_jets(ast, [[u, v]])
    assert np.max(np.abs(point - row)) <= 1e-13 * np.max(np.abs(point))


def test_stack_jets_of_a_constant_have_the_stack_shape():
    jets = eval_jets(parse_expression("2*pi", ("u", "v")), np.zeros((3, 2)))
    assert jets.shape == (3, 10)
    assert np.all(jets[:, 0] == 2 * math.pi) and not np.any(jets[:, 1:])


# --- immersion files -------------------------------------------------------


def test_bundled_clifford_file():
    spec = parse_immersion_file(corpus_path("clifford").read_text())
    assert spec.periodic == (True, True)
    assert spec.domain[0] == pytest.approx((0.0, 2 * math.pi))
    assert spec.domain[1] == pytest.approx((0.0, 2 * math.pi))
    assert spec.frame_rotation is None


def test_missing_key_message():
    text = "\n".join(
        [
            "name: broken",
            "params: u v",
            "x1: u",
            "x2: v",
            "x4: 0",
            "domain: u 0 1 v 0 1",
            "periodic: false false",
        ]
    )
    with pytest.raises(ImmersionFileError, match="missing key: x3"):
        parse_immersion_file(text)


def test_duplicate_key():
    text = "\n".join(
        [
            "name: broken",
            "params: u v",
            "x1: u",
            "x1: v",
        ]
    )
    with pytest.raises(ImmersionFileError, match="duplicate key: x1"):
        parse_immersion_file(text)


def test_frame_rotation_parsed_as_parameter():
    text = "\n".join(
        [
            "name: rotated",
            "params: u v",
            "x1: u",
            "x2: v",
            "x3: 0",
            "x4: 0",
            "domain: u 0 1 v 0 1",
            "periodic: false false",
            "frame_rotation: u",
        ]
    )
    spec = parse_immersion_file(text)
    assert spec.frame_rotation == Param(0)


def test_malformed_domain():
    text = "\n".join(
        [
            "name: broken",
            "params: u v",
            "x1: u",
            "x2: v",
            "x3: 0",
            "x4: 0",
            "domain: u 0 v 0 1",
            "periodic: false false",
        ]
    )
    with pytest.raises(ImmersionFileError, match="malformed domain"):
        parse_immersion_file(text)


def test_domain_error_in_constant_names_no_point():
    text = "name: c\nparams: u v\nx1: u\nx2: v\nx3: 0\nx4: 0\n" \
        "domain: u log(0) 1 v -1 1\nperiodic: false false\n"
    with pytest.raises(ImmersionFileError) as info:
        parse_immersion_file(text)
    assert str(info.value).endswith("log of a non-positive value")


def test_domain_accepts_constant_expressions():
    text = "\n".join(
        [
            "name: widths",
            "params: u v",
            "x1: u",
            "x2: v",
            "x3: 0",
            "x4: 0",
            "domain: u 0 2*pi v -pi pi",
            "periodic: true true",
        ]
    )
    spec = parse_immersion_file(text)
    assert spec.domain[0][1] == pytest.approx(2 * math.pi)
    assert spec.domain[1][0] == pytest.approx(-math.pi)


def test_comments_and_blank_lines():
    spec = parse_immersion_file(
        "# header\nname: c  # trailing\nparams: u v\nx1: u\nx2: v\nx3: 0\n"
        "x4: 0\n\ndomain: u 0 1 v 0 1\nperiodic: false true\n"
    )
    assert spec.name == "c"
    assert spec.periodic == (False, True)
