"""Division by a constant: the narrow circuit against the generic divider,
and the whole solver against an enumerative oracle.

``BitBlaster`` lowers ``udiv``/``urem`` by a constant to a bit slice
(powers of two) or to a restoring divider with a remainder register only
``c.bit_length() + 1`` bits wide. The miters here prove that circuit
equal to the generic 32-stage divider: the generic one is obtained by
dividing by a variable ``y`` that is asserted equal to the constant, so
the blaster cannot see the constant when it builds the circuit.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import bv_oracle
from repro.solver import Solver
from repro.solver import expr as E
from repro.solver.bitblast import BitBlaster
from repro.solver.sat import UNSAT


def _miter(width, c, fixed_high_bits=0, rng=None):
    """Solve ``udiv(x, c) != udiv(x, y) or urem(x, c) != urem(x, y)``
    under ``y == c``; UNSAT means the two circuits agree on every x.

    With *fixed_high_bits*, the top bits of x are pinned to a random
    value (a cube), for widths where the full miter is beyond this
    solver's reach; the low bits stay free."""
    # x is a concat of 1-bit variables created most significant first:
    # the solver's initial decisions then follow the divider's stages.
    bits = [E.var(f"cd_x{width}_{i}", 1) for i in range(width)]
    x = E.concat(*reversed(bits))
    y = E.var(f"cd_y{width}", width)
    k = E.const(c, width)
    bb = BitBlaster()
    for bit in reversed(bits):
        bb.blast(bit)
    bb.assert_true(E.eq(y, k))
    differs = E.or_(E.ne(E.udiv(x, k), E.udiv(x, y)),
                    E.ne(E.urem(x, k), E.urem(x, y)))
    assumptions = [bb.literal_for(differs)]
    if fixed_high_bits:
        high = rng.getrandbits(fixed_high_bits)
        for j in range(fixed_high_bits):
            bit = bits[width - fixed_high_bits + j]
            assumptions.append(bb.literal_for(
                E.eq(bit, E.const((high >> j) & 1, 1))))
    return bb.sat.solve(assumptions)


def _sampled(width, seed):
    rng = random.Random(seed)
    powers = [1, 2, 1 << (width // 2), 1 << (width - 1)]
    return powers + [(1 << width) - 1, 3, 48] + [
        rng.randrange(3, 1 << width) for _ in range(2)]


class TestNarrowCircuit:
    def test_power_of_two_is_a_slice(self):
        x = E.var("cd_pow", 32)
        bb = BitBlaster()
        bb.blast(x)
        before = bb.sat.num_vars
        for shift in range(32):
            k = E.const(1 << shift, 32)
            bb.blast(E.udiv(x, k))
            bb.blast(E.urem(x, k))
        assert bb.sat.num_vars == before

    def test_register_is_narrow(self):
        """remu by 48 on a 32-bit input: the generic divider needs
        thousands of variables, the narrow one a few hundred."""
        x = E.var("cd_n", 32)
        y = E.var("cd_ny", 32)
        narrow, generic = BitBlaster(), BitBlaster()
        narrow.blast(E.urem(x, E.const(48, 32)))
        generic.blast(E.urem(x, y))
        assert narrow.sat.num_vars * 5 < generic.sat.num_vars

    def test_udiv_and_urem_share_one_divider(self):
        x, y = E.var("cd_sx", 16), E.var("cd_sy", 16)
        bb = BitBlaster()
        bb.blast(E.urem(x, y))
        after_urem = bb.sat.num_vars
        bb.blast(E.udiv(x, y))
        assert bb.sat.num_vars == after_urem


class TestMiter:
    def test_every_constant_at_width_8(self):
        failed = [c for c in range(1, 256) if _miter(8, c) != UNSAT]
        assert failed == []

    @pytest.mark.parametrize("c", _sampled(16, seed=16))
    def test_sampled_constants_at_width_16(self, c):
        assert _miter(16, c) == UNSAT

    @pytest.mark.parametrize("c", _sampled(32, seed=32))
    def test_sampled_constants_at_width_32_on_cubes(self, c):
        rng = random.Random(c)
        for _ in range(2):
            assert _miter(32, c, fixed_high_bits=24, rng=rng) == UNSAT


# ---------------------------------------------------------------------------
# Random QF_BV queries against the enumerative oracle
# ---------------------------------------------------------------------------

_CMPS = [E.eq, E.ne, E.ult, E.ule, E.slt, E.sle]
_BINOPS = [E.add, E.sub, E.mul, E.and_, E.or_, E.xor, E.shl, E.lshr,
           E.ashr, E.udiv, E.urem]


def _terms(width, variables):
    """Terms of *width* over *variables*, biased towards division by a
    constant (narrow, wide after zero-extension, and powers of two)."""
    consts = st.integers(0, (1 << width) - 1).map(lambda v: E.const(v, width))
    divisors = st.one_of(st.integers(1, (1 << width) - 1),
                         st.integers(0, width - 1).map(lambda k: 1 << k))
    leaves = st.one_of(st.sampled_from(variables), consts)

    def extend(inner):
        by_const = st.builds(
            lambda op, t, c: op(t, E.const(c, width)),
            st.sampled_from([E.udiv, E.urem]), inner, divisors)
        wide = st.builds(
            lambda op, t, c: E.extract(op(E.zext(t, 32), E.const(c, 32)),
                                       width - 1, 0),
            st.sampled_from([E.udiv, E.urem]), inner,
            st.integers(1, (1 << 32) - 1))
        binary = st.builds(lambda op, a, b: op(a, b),
                           st.sampled_from(_BINOPS), inner, inner)
        unary = st.builds(lambda op, a: op(a),
                          st.sampled_from([E.not_, E.neg]), inner)
        ite = st.builds(lambda cmp, a, b, t, e: E.ite(cmp(a, b), t, e),
                        st.sampled_from(_CMPS), inner, inner, inner, inner)
        return st.one_of(by_const, by_const, wide, binary, unary, ite)

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def _queries(draw):
    width = draw(st.sampled_from([3, 5, 8]))
    variables = [E.var(f"or_a{width}", width), E.var(f"or_b{width}", width)]
    terms = _terms(width, variables)
    n = draw(st.integers(1, 3))
    return [draw(st.sampled_from(_CMPS))(draw(terms), draw(terms))
            for _ in range(n)]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(constraints=_queries())
def test_solver_agrees_with_enumeration(constraints):
    """SAT/UNSAT agree with brute force, and every model is valid."""
    variables, ok = bv_oracle.satisfying(constraints)
    result = Solver().check(constraints)
    assert result.is_sat == bool(ok.any())
    if result.is_sat:
        assert ok[bv_oracle.assignment_index(variables, result.model)]
        for c in constraints:
            assert c.evaluate(result.model, default=0) == 1


class TestOracle:
    def test_oracle_matches_evaluate_on_every_assignment(self):
        a, b = E.var("oo_a", 4), E.var("oo_b", 4)
        for node in [E.udiv(a, b), E.urem(a, b), E.ashr(a, b),
                     E.shl(a, b), E.lshr(a, b), E.sext(a, 8), E.neg(a),
                     E.mul(a, b), E.slt(a, b), E.sle(a, b),
                     E.ite(E.ult(a, b), a, b),
                     E.urem(E.zext(E.concat(a, b), 32), E.const(48, 32)),
                     E.udiv(E.zext(E.concat(a, b), 32), E.const(48, 32))]:
            got = bv_oracle.values(node, [a, b])
            for i in range(256):
                model = {a: i & 15, b: i >> 4}
                assert int(got[i]) == node.evaluate(model), (node, model)

    def test_unsat_and_sat_counts(self):
        a = E.var("oo_c", 8)
        _, ok = bv_oracle.satisfying([E.eq(E.urem(a, E.const(48, 8)),
                                           E.const(5, 8))])
        assert int(ok.sum()) == len([v for v in range(256) if v % 48 == 5])
        _, ok = bv_oracle.satisfying([E.ult(a, E.const(4, 8)),
                                      E.ugt(a, E.const(250, 8))])
        assert not ok.any()
