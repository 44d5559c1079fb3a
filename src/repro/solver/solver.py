"""Top-level bitvector solver used by the symbolic virtual machine.

One :class:`Solver` owns one incremental :class:`BitBlaster`. Constraints
are lowered to single SAT literals and passed as *assumptions*, never
asserted, so the same encoding serves every path-feasibility and
concretization query the executor issues — the pattern KLEE uses with its
incremental backends.

Two caches sit in front of the SAT solver, mirroring KLEE's counterexample
cache:

* a *query cache* keyed on the exact constraint set,
* a *model cache*: before solving, recent satisfying models are replayed
  against the new query, which answers most branch-feasibility checks in
  symbolic-execution workloads without touching the SAT solver.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import SolverError
from repro.solver import expr as E
from repro.solver.bitblast import FALSE_LIT, TRUE_LIT, BitBlaster
from repro.solver.simplify import simplify

SAT = "sat"
UNSAT = "unsat"


@dataclass
class CheckResult:
    """Outcome of a satisfiability query."""

    status: str
    model: Dict[E.BitVec, int] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


@dataclass
class SolverStats:
    queries: int = 0
    sat_queries: int = 0
    unsat_queries: int = 0
    query_cache_hits: int = 0
    query_cache_evictions: int = 0
    model_cache_hits: int = 0
    solver_time: float = 0.0


#: Default bound on the query cache. Long campaigns (fuzzing loops, DSE
#: fork trees) issue millions of distinct feasibility queries; an
#: unbounded cache is a slow memory leak.
DEFAULT_QUERY_CACHE_SIZE = 4096


class Solver:
    """Incremental QF_BV solver with KLEE-style caching."""

    def __init__(self, model_cache_size: int = 32, simplify_queries: bool = True,
                 query_cache_size: int = DEFAULT_QUERY_CACHE_SIZE):
        if query_cache_size < 1:
            raise SolverError("query_cache_size must be >= 1")
        self._blaster = BitBlaster()
        #: LRU-ordered: most recently used keys at the end.
        self._query_cache: "OrderedDict[frozenset, CheckResult]" = OrderedDict()
        self._query_cache_size = query_cache_size
        self._recent_models: List[Dict[E.BitVec, int]] = []
        self._model_cache_size = model_cache_size
        self._simplify = simplify_queries
        #: constraint -> simplify(constraint). A path condition is
        #: re-normalised on every query, so most lookups hit; bounded
        #: like the query cache.
        self._simplified: Dict[E.BitVec, E.BitVec] = {}
        self.stats = SolverStats()

    # -- core API -------------------------------------------------------------

    def check(self, constraints: Iterable[E.BitVec]) -> CheckResult:
        """Check the conjunction of boolean *constraints*.

        Returns a :class:`CheckResult`; on SAT the model assigns every
        variable occurring in the constraints (absent variables are
        unconstrained and reported as 0).
        """
        conj = self._normalise(constraints)
        if conj is None:
            return CheckResult(UNSAT)
        if not conj:
            return CheckResult(SAT)
        key = frozenset(conj)
        cached = self._query_cache.get(key)
        if cached is not None:
            self.stats.query_cache_hits += 1
            self._query_cache.move_to_end(key)
            return cached
        self.stats.queries += 1
        result = self._check_uncached(conj)
        self._query_cache[key] = result
        while len(self._query_cache) > self._query_cache_size:
            self._query_cache.popitem(last=False)
            self.stats.query_cache_evictions += 1
        return result

    def is_satisfiable(self, constraints: Iterable[E.BitVec]) -> bool:
        return self.check(constraints).is_sat

    def eval_one(self, value: E.BitVec, constraints: Iterable[E.BitVec]) -> Optional[int]:
        """One concrete value of *value* consistent with *constraints*.

        Returns None when the constraints are unsatisfiable.
        """
        if value.is_const:
            return value.value
        result = self.check(constraints)
        if not result.is_sat:
            return None
        return value.evaluate(result.model, default=0)

    def eval_upto(self, value: E.BitVec, constraints: Sequence[E.BitVec],
                  limit: int) -> List[int]:
        """Up to *limit* distinct concrete values of *value*.

        This is the completeness side of HardSnap's concretization policy:
        enumerate feasible concrete values of a symbolic expression at the
        VM boundary.
        """
        if value.is_const:
            return [value.value]
        found: List[int] = []
        extra: List[E.BitVec] = list(constraints)
        while len(found) < limit:
            got = self.eval_one(value, extra)
            if got is None:
                break
            found.append(got)
            extra.append(E.ne(value, E.const(got, value.width)))
        return found

    def must_be_true(self, cond: E.BitVec, constraints: Sequence[E.BitVec]) -> bool:
        """True when *cond* holds in every model of *constraints*."""
        return not self.is_satisfiable(list(constraints) + [E.not_(cond)])

    def may_be_true(self, cond: E.BitVec, constraints: Sequence[E.BitVec]) -> bool:
        """True when some model of *constraints* satisfies *cond*."""
        return self.is_satisfiable(list(constraints) + [cond])

    # -- internals ---------------------------------------------------------------

    def _normalise(self, constraints: Iterable[E.BitVec]) -> Optional[List[E.BitVec]]:
        """Simplify and filter a constraint set.

        Returns None when a constraint is trivially false, else a list of
        non-trivial boolean expressions.
        """
        out: List[E.BitVec] = []
        seen = set()
        for c in constraints:
            if c.width != 1:
                raise SolverError(f"constraint must be boolean, got width {c.width}")
            if self._simplify:
                c = self._simplify_cached(c)
            if c.is_const:
                if c.value == 0:
                    return None
                continue
            if c not in seen:
                seen.add(c)
                out.append(c)
        return out

    def _simplify_cached(self, c: E.BitVec) -> E.BitVec:
        memo = self._simplified
        out = memo.get(c)
        if out is None:
            out = memo[c] = simplify(c)
            if len(memo) > self._query_cache_size:
                del memo[next(iter(memo))]  # oldest entry
        return out

    def _check_uncached(self, conj: List[E.BitVec]) -> CheckResult:
        # Model-cache replay: any recent model satisfying all constraints
        # answers the query as SAT without search.
        for model in self._recent_models:
            if self._model_satisfies(model, conj):
                self.stats.model_cache_hits += 1
                self.stats.sat_queries += 1
                return CheckResult(SAT, dict(model))
        start = time.perf_counter()
        assumptions: List[int] = []
        status = SAT
        for c in conj:
            literal = self._blaster.literal_for(c)
            if literal is FALSE_LIT:
                status = UNSAT
                break
            if literal is TRUE_LIT:
                continue
            assumptions.append(literal)  # type: ignore[arg-type]
        if status == SAT:
            status = self._blaster.sat.solve(assumptions)
        self.stats.solver_time += time.perf_counter() - start
        if status == UNSAT:
            self.stats.unsat_queries += 1
            return CheckResult(UNSAT)
        self.stats.sat_queries += 1
        model = self._extract_model(conj)
        self._remember_model(model)
        return CheckResult(SAT, model)

    def _extract_model(self, conj: List[E.BitVec]) -> Dict[E.BitVec, int]:
        model: Dict[E.BitVec, int] = {}
        for c in conj:
            for v in c.variables():
                if v not in model:
                    model[v] = self._blaster.model_value(v)
        return model

    @staticmethod
    def _model_satisfies(model: Dict[E.BitVec, int],
                         conj: List[E.BitVec]) -> bool:
        # One pass over the conjunction: the memo is shared by all its
        # constraints, so a sub-DAG common to the path condition is
        # evaluated once per model. The newest constraint (usually the
        # branch condition) goes first, as it is the likeliest to fail.
        memo: Dict[int, int] = {}
        for c in reversed(conj):
            if c.evaluate(model, default=0, memo=memo) != 1:
                return False
        return True

    def _remember_model(self, model: Dict[E.BitVec, int]) -> None:
        self._recent_models.insert(0, model)
        del self._recent_models[self._model_cache_size:]

