"""Enumerative QF_BV oracle for queries over at most 16 symbolic bits.

An independent check on :class:`repro.solver.Solver`: it shares no code
with the bit-blaster or the SAT solver, and not even the concrete
evaluator (:meth:`BitVec.evaluate`). Every operator is re-implemented
over numpy arrays, and a query is decided by evaluating it on all
``2**bits`` assignments of its variables at once.

Widths up to 32 bits are supported (products of two 32-bit values still
fit in ``uint64``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.solver import expr as E

MAX_BITS = 16
MAX_WIDTH = 32


def _mask(width: int) -> np.uint64:
    return np.uint64((1 << width) - 1)


def _signed(v: np.ndarray, width: int) -> np.ndarray:
    s = v.astype(np.int64)
    return s - (((s >> (width - 1)) & 1) << width)


def _eval(node: E.BitVec, env: Dict[E.BitVec, np.ndarray],
          memo: Dict[int, np.ndarray], n: int) -> np.ndarray:
    got = memo.get(id(node))
    if got is not None:
        return got
    op, w = node.op, node.width
    if w > MAX_WIDTH:
        raise ValueError(f"oracle supports widths up to {MAX_WIDTH}")
    if op == E.CONST:
        out = np.full(n, node.value, dtype=np.uint64)
    elif op == E.VAR:
        out = env[node]
    else:
        a = [_eval(arg, env, memo, n) for arg in node.args]
        m = _mask(w)
        aw = node.args[0].width
        if op == E.ADD:
            out = (a[0] + a[1]) & m
        elif op == E.SUB:
            out = (a[0] - a[1]) & m
        elif op == E.MUL:
            out = (a[0] * a[1]) & m
        elif op in (E.UDIV, E.UREM):
            zero = a[1] == 0
            safe = np.where(zero, np.uint64(1), a[1])
            if op == E.UDIV:
                out = np.where(zero, m, a[0] // safe)
            else:
                out = np.where(zero, a[0], a[0] % safe)
        elif op == E.AND:
            out = a[0] & a[1]
        elif op == E.OR:
            out = a[0] | a[1]
        elif op == E.XOR:
            out = a[0] ^ a[1]
        elif op == E.NOT:
            out = ~a[0] & m
        elif op == E.NEG:
            out = (np.uint64(0) - a[0]) & m
        elif op in (E.SHL, E.LSHR):
            big = a[1] >= aw
            amount = np.where(big, np.uint64(0), a[1])
            moved = (a[0] << amount) & m if op == E.SHL else a[0] >> amount
            out = np.where(big, np.uint64(0), moved)
        elif op == E.ASHR:
            amount = np.minimum(a[1], np.uint64(aw - 1)).astype(np.int64)
            out = (_signed(a[0], aw) >> amount).astype(np.uint64) & m
        elif op == E.CONCAT:
            out = np.zeros(n, dtype=np.uint64)
            for arg, val in zip(node.args, a):
                out = (out << np.uint64(arg.width)) | val
        elif op == E.EXTRACT:
            out = (a[0] >> np.uint64(node.value & 0xFFFF)) & m
        elif op == E.ZEXT:
            out = a[0]
        elif op == E.SEXT:
            out = _signed(a[0], aw).astype(np.uint64) & m
        elif op == E.EQ:
            out = (a[0] == a[1]).astype(np.uint64)
        elif op == E.ULT:
            out = (a[0] < a[1]).astype(np.uint64)
        elif op == E.ULE:
            out = (a[0] <= a[1]).astype(np.uint64)
        elif op == E.SLT:
            out = (_signed(a[0], aw) < _signed(a[1], aw)).astype(np.uint64)
        elif op == E.SLE:
            out = (_signed(a[0], aw) <= _signed(a[1], aw)).astype(np.uint64)
        elif op == E.ITE:
            out = np.where(a[0] == 1, a[1], a[2])
        else:
            raise ValueError(f"oracle: unsupported op {op!r}")
    memo[id(node)] = out
    return out


def free_variables(constraints: Sequence[E.BitVec]) -> List[E.BitVec]:
    """The variables of *constraints*, in a canonical order."""
    found = set()
    for c in constraints:
        found |= c.variables()
    return sorted(found, key=lambda v: (v.name, v.width))


def _environment(variables: Sequence[E.BitVec]):
    bits = sum(v.width for v in variables)
    if bits > MAX_BITS:
        raise ValueError(f"{bits} symbolic bits; the oracle enumerates "
                         f"at most {MAX_BITS}")
    n = 1 << bits
    index = np.arange(n, dtype=np.uint64)
    env: Dict[E.BitVec, np.ndarray] = {}
    offset = 0
    for v in variables:
        env[v] = (index >> np.uint64(offset)) & _mask(v.width)
        offset += v.width
    return env, n


def values(node: E.BitVec, variables: Sequence[E.BitVec]) -> np.ndarray:
    """*node*'s value under every assignment of *variables* (indexed as
    :func:`assignment_index` numbers them)."""
    env, n = _environment(variables)
    return _eval(node, env, {}, n)


def satisfying(constraints: Sequence[E.BitVec]):
    """Decide *constraints* by enumeration.

    Returns ``(variables, ok)``: ``ok[i]`` is True when assignment ``i``
    satisfies every constraint (see :func:`assignment_index`).
    """
    variables = free_variables(constraints)
    env, n = _environment(variables)
    ok = np.ones(n, dtype=bool)
    memo: Dict[int, np.ndarray] = {}
    for c in constraints:
        ok &= _eval(c, env, memo, n) == 1
    return variables, ok


def assignment_index(variables: Sequence[E.BitVec],
                     model: Dict[E.BitVec, int]) -> int:
    """The enumeration index of *model*: variable ``k`` of *variables*
    takes the bits above the widths of variables ``0..k-1``. Absent
    variables read as 0."""
    index = 0
    offset = 0
    for v in variables:
        index |= (model.get(v, 0) & ((1 << v.width) - 1)) << offset
        offset += v.width
    return index
