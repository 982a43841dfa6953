import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigauto import (
    BOTTOM_STATE,
    EmaGridClassifier,
    EmptyInputError,
    InstantsMatrix,
    Isa,
    LookaheadWordClassifier,
    PluginParams,
    RejectedInputError,
    SigautoError,
    Signal,
    StalenessError,
    as_observation,
    build_isa,
    init_isa,
    is_new_state,
    move,
    next_isa,
    step_stream,
    unmove,
)

from conftest import E1, random_walk


class Pair(NamedTuple):
    x: float
    y: float


class TestSignal:
    def test_scalars_become_one_tuples(self):
        sig = Signal([1.0, 2.0])
        assert sig[0] == (1.0,)
        assert sig.dim == 1
        assert sig.last_instant == 1

    def test_rejects_nan(self):
        with pytest.raises(RejectedInputError):
            Signal([float("nan")])

    def test_rejects_infinity_on_append(self):
        sig = Signal([1.0])
        with pytest.raises(RejectedInputError):
            sig.append(float("inf"))

    def test_rejects_dimension_change(self):
        sig = Signal([(1.0, 2.0)])
        with pytest.raises(RejectedInputError):
            sig.append((1.0,))

    def test_slicing_returns_tuples(self):
        sig = Signal(E1)
        assert sig[1:3] == ((1.0,), (5.0,))

    def test_empty_dim_raises(self):
        with pytest.raises(EmptyInputError):
            Signal().dim

    def test_float_tuple_is_stored_as_given(self):
        row = (1.5, -2.0)
        sig = Signal([(0.0, 0.0)])
        sig.append(row)
        assert sig[1] is row
        assert as_observation(row, 2) is row

    @pytest.mark.parametrize("value", [
        [1.0, 2.0],
        (1, 2.0),
        (np.float64(1.0), 2.0),
        np.array([1.0, 2.0]),
        Pair(1.0, 2.0),
    ], ids=["list", "int", "numpy scalar", "numpy array", "tuple subclass"])
    def test_other_inputs_are_copied_to_float_tuples(self, value):
        sig = Signal()
        sig.append(value)
        row = sig[0]
        assert row == (1.0, 2.0)
        assert row is not value
        assert type(row) is tuple and all(type(x) is float for x in row)

    def test_a_list_changed_after_append_leaves_the_row(self):
        value = [1.0, 2.0]
        sig = Signal([value])
        value[0] = 7.0
        assert sig[0] == (1.0, 2.0)

    @pytest.mark.parametrize("value, message", [
        ((), "observation has no coordinates"),
        ([], "observation has no coordinates"),
        ((1.0, "a"), "observation is not numeric: (1.0, 'a')"),
        (None, "observation is not numeric: None"),
        ((float("nan"), 1.0), "observation contains a non-finite value: (nan, 1.0)"),
        ([1.0, float("inf")], "observation contains a non-finite value: (1.0, inf)"),
        ((1.0, float("-inf")), "observation contains a non-finite value: (1.0, -inf)"),
        ((1.0,), "observation has 1 coordinates, expected 2"),
        ((1.0, 2.0, 3.0), "observation has 3 coordinates, expected 2"),
        # non-finite is found before the width
        ((float("nan"), 1.0, 2.0), "observation contains a non-finite value: (nan, 1.0, 2.0)"),
        ([float("inf")], "observation contains a non-finite value: (inf,)"),
        # booleans, strings, bytes and mappings are not numbers
        (True, "observation is not numeric: True"),
        ([False, 1.0], "observation is not numeric: [False, 1.0]"),
        ((1.0, True), "observation is not numeric: (1.0, True)"),
        ("12", "observation is not numeric: '12'"),
        (b"12", "observation is not numeric: b'12'"),
        (bytearray(b"12"), "observation is not numeric: bytearray(b'12')"),
        ({"1": 2, "3": 4}, "observation is not numeric: {'1': 2, '3': 4}"),
    ])
    def test_rejections_keep_their_messages(self, value, message):
        sig = Signal([(0.0, 0.0)])
        with pytest.raises(RejectedInputError) as caught:
            sig.append(value)
        assert str(caught.value) == message
        assert len(sig) == 1

    def test_numeric_strings_inside_a_row_are_read(self):
        sig = Signal([["1.5", " -2 "]])
        assert sig[0] == (1.5, -2.0)

    @pytest.mark.parametrize("bad", [
        (math.nan,), [math.nan], (math.inf,), (-math.inf,), (1.0, 2.0), [0.5, 0.5],
        ("a",), (None,), "1.5", None, (1.5 + 0j,), (0.5 + 0j,), (), True, (False,),
        np.float64(math.nan), np.float32(1.5)], ids=repr)
    def test_a_refused_row_is_refused_again_and_never_stored(self, bad):
        sig = Signal([(0.5,), (1.5,)])
        for _ in range(2):
            with pytest.raises(RejectedInputError):
                sig.append(bad)
        assert list(sig) == [(0.5,), (1.5,)]
        assert all(row is not bad for row in sig)


def e1_isa(upto=len(E1)):
    params = PluginParams(lam=1.0, grid_width=1.0)
    sig = Signal(E1[:upto])
    return build_isa(sig, EmaGridClassifier(params)), sig


class TestInstantsMatrixPop:
    @staticmethod
    def view(theta, p, q):
        return ([(a, b, list(c)) for a, b, c in theta.cells()], theta.incoming_instants(),
                theta.has_outgoing(p))

    @pytest.mark.parametrize("p, q", [
        ("a", "c"),  # a new cell, to a new target
        ("c", "a"),  # a new cell (and row) whose target "b" also reaches
        ("a", "a"),  # a self-loop
        ("a", "b"),  # an instant appended to an existing cell
    ])
    def test_append_then_pop_restores_the_matrix(self, p, q):
        theta = InstantsMatrix()
        for a, b, i in (("a", "b", 0), ("b", "a", 1), ("a", "b", 2), ("b", "b", 3)):
            theta.append(a, b, i)
        before = InstantsMatrix()
        for a, b, c in theta.cells():
            for i in c:
                before.append(a, b, i)
        seen = self.view(theta, p, q)
        theta.append(p, q, 9)
        assert theta.has_outgoing(p) and 9 in theta.incoming_instants()[q]
        assert theta.pop(p, q) == 9
        assert self.view(theta, p, q) == seen
        assert theta == before

    @pytest.mark.parametrize("instant", [2, 1])
    def test_an_instant_not_after_the_cell_is_refused(self, instant):
        theta = InstantsMatrix()
        theta.append("a", "b", 0)
        theta.append("a", "b", 2)
        with pytest.raises(SigautoError, match=f"instant {instant} not after 2 in cell"):
            theta.append("a", "b", instant)
        assert theta.cell("a", "b") == (0, 2)


class TestMoveAndUnmove:
    @staticmethod
    def view(isa):
        return (list(isa.states), list(isa.new_state_instants),
                [(p, q, list(c)) for p, q, c in isa.theta.cells()], isa.current, isa.n)

    # E1's automaton is at "5" after instant 2 ("5" new) and after instant 4.
    @pytest.mark.parametrize("upto, label", [
        (0, "1"),  # the first move, out of __bottom__
        (5, "5"),  # a self-loop
        (5, "1"),  # an instant appended to an existing cell
        (5, "9"),  # a new state, by a new cell of an existing row
        (3, "1"),  # a new row, out of the new state
        (3, "9"),  # a new state, by a new row
    ])
    def test_unmove_is_the_exact_inverse_of_move(self, upto, label):
        isa = e1_isa(upto)[0] if upto else Isa()
        left, before = isa.current, self.view(isa)
        move(isa, label, None)
        assert (isa.current, isa.n) == (label, upto)
        assert isa.theta.cell(left, label)[-1] == upto
        assert (label in before[0]) == (upto not in isa.new_state_instants)
        unmove(isa, left)
        assert self.view(isa) == before
        assert isa == (e1_isa(upto)[0] if upto else Isa())

    def test_bottom_label_is_refused(self):
        isa = e1_isa()[0]
        with pytest.raises(SigautoError, match="reserved bottom state"):
            move(isa, BOTTOM_STATE, None)
        assert isa == e1_isa()[0]


class TestInitIsa:
    def test_base_case(self, count_params):
        isa = init_isa((1.0,), EmaGridClassifier(count_params))
        assert set(isa.states) == {BOTTOM_STATE, "1"}
        assert isa.current == "1"
        assert isa.theta.cell(BOTTOM_STATE, "1") == (0,)
        assert isa.n == 0

    def test_non_finite_rejected(self, count_params):
        with pytest.raises(RejectedInputError):
            init_isa((float("nan"),), EmaGridClassifier(count_params))

    def test_negative_value_floors_down(self, count_params):
        # floor(-0.2 / 1) = -1
        isa = init_isa((-0.2,), EmaGridClassifier(count_params))
        assert isa.current == "-1"
        assert isa.theta.cell(BOTTOM_STATE, "-1") == (0,)


class TestNextIsa:
    def test_e1_final_structure(self):
        isa, _ = e1_isa()
        assert set(isa.states) == {BOTTOM_STATE, "1", "5"}
        assert isa.current == "5"
        assert isa.theta.cell(BOTTOM_STATE, "1") == (0,)
        assert isa.theta.cell("1", "1") == (1,)
        assert isa.theta.cell("1", "5") == (2, 4)
        assert isa.theta.cell("5", "1") == (3,)

    def test_new_state_case_at_i2(self):
        isa, _ = e1_isa(upto=3)
        assert isa.current == "5"
        assert isa.theta.cell("1", "5") == (2,)
        assert not isa.theta.has_outgoing("5")
        assert is_new_state(isa)

    def test_self_loop_keeps_state_set(self, count_params):
        isa, _ = e1_isa(upto=2)
        assert set(isa.states) == {BOTTOM_STATE, "1"}
        assert isa.theta.cell("1", "1") == (1,)

    def test_staleness_error(self, count_params):
        sig = Signal([1.0, 2.0])
        isa = build_isa(sig, EmaGridClassifier(count_params))
        with pytest.raises(StalenessError):
            next_isa(isa, sig, EmaGridClassifier(count_params))


class TestBuildIsa:
    def test_equals_incremental_fold(self, count_params):
        sig = Signal(E1)
        built = build_isa(sig, EmaGridClassifier(count_params))
        classifier = EmaGridClassifier(count_params)
        folded = init_isa(sig[0], classifier)
        for _ in range(1, len(sig)):
            next_isa(folded, sig, classifier)
        assert built == folded

    def test_single_element(self, count_params):
        sig = Signal([2.5])
        assert build_isa(sig, EmaGridClassifier(count_params)) == init_isa(
            (2.5,), EmaGridClassifier(count_params)
        )

    def test_constant_signal(self, count_params):
        sig = Signal([3.0] * 100)
        isa = build_isa(sig, EmaGridClassifier(count_params))
        assert set(isa.states) == {BOTTOM_STATE, "3"}
        assert isa.theta.cell(BOTTOM_STATE, "3") == (0,)
        assert isa.theta.cell("3", "3") == tuple(range(1, 100))

    def test_empty_signal(self, count_params):
        with pytest.raises(EmptyInputError):
            build_isa(Signal(), EmaGridClassifier(count_params))


def test_every_step_refuses_a_lookahead_classifier(count_params):
    """A step hands its classifier one row and no window, so a word
    classifier refuses each step, and the automaton stays as it was."""
    sig, word = Signal(E1), LookaheadWordClassifier(PluginParams(horizon=2))
    isa = build_isa(Signal(E1[:2]), EmaGridClassifier(count_params))
    steps = [lambda: build_isa(sig, word), lambda: init_isa(sig[0], word),
             lambda: next_isa(isa, sig, word), lambda: step_stream(isa, sig, word, ())]
    for step in steps:
        with pytest.raises(RejectedInputError, match="window has 0 observations, expected 2$"):
            step()
    assert isa == build_isa(Signal(E1[:2]), EmaGridClassifier(count_params))


class TestIsNewState:
    def test_e1_instants(self):
        for upto, expected in ((3, True), (5, False), (1, True)):
            isa, _ = e1_isa(upto=upto)
            assert is_new_state(isa) is expected


class TestAutomatonStats:
    """The growth of the state set, read from the automaton itself."""

    def test_e1(self):
        isa, _ = e1_isa()
        assert isa.new_state_instants == [0, 2]

    def test_constant(self, count_params):
        isa = build_isa(Signal([1.0] * 100), EmaGridClassifier(count_params))
        assert isa.new_state_instants == [0]

    def test_strictly_monotone(self, count_params):
        isa = build_isa(Signal([float(k) for k in range(10)]),
                        EmaGridClassifier(count_params))
        assert isa.new_state_instants == list(range(10))


signals = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)
lams = st.sampled_from([1.0, 0.5, 0.25])
widths = st.sampled_from([1.0, 0.5, 2.0])


@settings(max_examples=60, deadline=None)
@given(values=signals, lam=lams, width=widths)
def test_partition_invariant(values, lam, width):
    """Cells are pairwise disjoint and their union is exactly {0..n}."""
    params = PluginParams(lam=lam, grid_width=width)
    isa = build_isa(Signal(values), EmaGridClassifier(params))
    seen = []
    for _, _, instants in isa.theta.cells():
        assert list(instants) == sorted(instants)
        seen.extend(instants)
    assert len(seen) == len(values)
    assert set(seen) == set(range(len(values)))


@settings(max_examples=60, deadline=None)
@given(values=signals, lam=lams, width=widths)
def test_step_invariants_along_the_fold(values, lam, width):
    """State set grows by at most one per step; at most one dangling state and
    it is the current one; the pre-initial state keeps exactly one cell."""
    params = PluginParams(lam=lam, grid_width=width)
    sig = Signal(values)
    classifier = EmaGridClassifier(params)
    isa = init_isa(sig[0], classifier)
    previous_count = len(isa.states)
    for _ in range(1, len(sig)):
        next_isa(isa, sig, classifier)
        assert len(isa.states) - previous_count in (0, 1)
        previous_count = len(isa.states)
        dangling = [
            s for s in isa.states
            if s != BOTTOM_STATE and not isa.theta.has_outgoing(s)
        ]
        assert len(dangling) <= 1
        if dangling:
            assert dangling == [isa.current]
        assert isa.theta.row(BOTTOM_STATE) == {next(iter(isa.theta.row(BOTTOM_STATE))): [0]}
        assert BOTTOM_STATE not in isa.theta.incoming_instants()


@settings(max_examples=40, deadline=None)
@given(values=signals, lam=lams, width=widths)
def test_incremental_equals_scratch(values, lam, width):
    params = PluginParams(lam=lam, grid_width=width)
    sig = Signal(values)
    scratch = build_isa(sig, EmaGridClassifier(params))
    classifier = EmaGridClassifier(params)
    folded = init_isa(sig[0], classifier)
    for _ in range(1, len(sig)):
        next_isa(folded, sig, classifier)
    assert scratch == folded


def test_determinism_same_signal_same_params(count_params):
    walk = random_walk(500, seed=13)
    a = build_isa(Signal(walk), EmaGridClassifier(count_params))
    b = build_isa(Signal(walk), EmaGridClassifier(count_params))
    assert a == b
