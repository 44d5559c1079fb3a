"""A CDCL SAT solver.

This is the decision core underneath the bitvector solver: clauses arrive
from the Tseitin encoder in :mod:`repro.solver.bitblast`. The implementation
follows the MiniSat lineage:

* two-watched-literal propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style exponential variable activities with decay,
* phase saving,
* Luby-sequence restarts,
* incremental solving under assumptions (used by the BV solver to reuse
  one encoding across many branch-feasibility queries).

Literal encoding: variable ``v`` (1-based) has positive literal ``2*v`` and
negative literal ``2*v + 1``; ``lit ^ 1`` negates. This keeps watch lists in
flat Python lists indexed by literal.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

SAT = "sat"
UNSAT = "unsat"


def lit(variable: int, positive: bool = True) -> int:
    """Build a literal for a 1-based variable index."""
    return variable * 2 + (0 if positive else 1)


def lit_var(literal: int) -> int:
    return literal >> 1


def lit_sign(literal: int) -> bool:
    """True when the literal is positive."""
    return literal & 1 == 0


def _luby(x: int) -> int:
    """The x-th element (0-based) of the Luby restart sequence.

    Iterative formulation from MiniSat: find the finite subsequence that
    contains index ``x`` and the position of ``x`` within it.
    """
    size = 1
    seq = 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


class SatSolver:
    """CDCL solver over clauses of integer literals."""

    def __init__(self, restart_base: int = 100, activity_decay: float = 0.95):
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        # assigns[v]: None unassigned, True/False otherwise.
        self.assigns: List[Optional[bool]] = [None]
        self.level: List[int] = [0]
        self.reason: List[Optional[List[int]]] = [None]
        self.activity: List[float] = [0.0]
        self.phase: List[bool] = [False]
        self.watches: Dict[int, List[List[int]]] = {}
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.prop_head = 0
        self.var_inc = 1.0
        self.activity_decay = activity_decay
        self.restart_base = restart_base
        self.ok = True
        # statistics
        self.stats = {"decisions": 0, "propagations": 0, "conflicts": 0,
                      "learned": 0, "restarts": 0}

    # -- variable / clause management --------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable, returning its 1-based index."""
        self.num_vars += 1
        v = self.num_vars
        self.assigns.append(None)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        self.watches[lit(v, True)] = []
        self.watches[lit(v, False)] = []
        return v

    def ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.new_var()

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        Must be called at decision level 0.
        """
        assert not self.trail_lim, "add_clause only at level 0"
        seen = set()
        clause: List[int] = []
        for l in literals:
            if l ^ 1 in seen:
                return True  # tautology
            if l in seen:
                continue
            value = self._lit_value(l)
            if value is True:
                return True  # already satisfied at level 0
            if value is False:
                continue  # falsified at level 0: drop the literal
            seen.add(l)
            clause.append(l)
        if not clause:
            self.ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self.ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                return False
            return True
        self.clauses.append(clause)
        self._watch_clause(clause)
        return True

    def _watch_clause(self, clause: List[int]) -> None:
        self.watches[clause[0] ^ 1].append(clause)
        self.watches[clause[1] ^ 1].append(clause)

    # -- assignment helpers --------------------------------------------------

    def _lit_value(self, literal: int) -> Optional[bool]:
        v = self.assigns[lit_var(literal)]
        if v is None:
            return None
        return v if lit_sign(literal) else not v

    def _enqueue(self, literal: int, reason: Optional[List[int]]) -> bool:
        value = self._lit_value(literal)
        if value is not None:
            return value
        v = lit_var(literal)
        self.assigns[v] = lit_sign(literal)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(literal)
        return True

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None.

        The hot loop of the solver, so literal values and enqueueing
        are inlined: a literal ``l`` is true when
        ``assigns[l >> 1] == (l & 1 == 0)``.
        """
        assigns = self.assigns
        trail = self.trail
        watches = self.watches
        level = self.level
        reason = self.reason
        depth = len(self.trail_lim)
        propagations = 0
        conflict: Optional[List[int]] = None
        while self.prop_head < len(trail):
            p = trail[self.prop_head]
            self.prop_head += 1
            false_lit = p ^ 1
            watchers = watches[p]
            kept: List[List[int]] = []
            watches[p] = kept
            i = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                # Normalise: ensure the falsified watch is clause[1].
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                first = clause[0]
                value = assigns[first >> 1]
                if value is not None and value == (first & 1 == 0):
                    kept.append(clause)
                    continue
                # Look for a new literal to watch.
                for k in range(2, len(clause)):
                    other = clause[k]
                    value_k = assigns[other >> 1]
                    if value_k is None or value_k == (other & 1 == 0):
                        clause[1], clause[k] = other, false_lit
                        watches[other ^ 1].append(clause)
                        break
                else:
                    # Clause is unit or conflicting.
                    kept.append(clause)
                    propagations += 1
                    if value is not None:
                        # Conflict: keep the remaining watchers.
                        kept.extend(watchers[i:])
                        conflict = clause
                        break
                    v = first >> 1
                    assigns[v] = first & 1 == 0
                    level[v] = depth
                    reason[v] = clause
                    trail.append(first)
            if conflict is not None:
                break
        self.stats["propagations"] += propagations
        return conflict

    # -- conflict analysis -----------------------------------------------------

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(1, self.num_vars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, conflict: List[int]) -> tuple[List[int], int]:
        """First-UIP analysis. Returns (learned clause, backjump level)."""
        learned: List[int] = [0]  # slot 0 reserved for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        p: Optional[int] = None
        index = len(self.trail) - 1
        clause: Optional[List[int]] = conflict
        current_level = self._decision_level()
        while True:
            assert clause is not None
            start = 0 if p is None else 1
            for q in clause[start:]:
                v = lit_var(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Find the next literal on the trail to resolve on.
            while not seen[lit_var(self.trail[index])]:
                index -= 1
            p = self.trail[index]
            v = lit_var(p)
            clause = self.reason[v]
            seen[v] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            # The resolved clause has p as clause[0]; skip it via start=1.
            if clause is not None and clause[0] != p:
                clause = [p] + [l for l in clause if l != p]
        learned[0] = p ^ 1  # type: ignore[operator]
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the learned clause.
        max_i = 1
        for i in range(2, len(learned)):
            if self.level[lit_var(learned[i])] > self.level[lit_var(learned[max_i])]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self.level[lit_var(learned[1])]

    def _cancel_until(self, target_level: int) -> None:
        if self._decision_level() <= target_level:
            return
        bound = self.trail_lim[target_level]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            literal = self.trail[i]
            v = lit_var(literal)
            self.phase[v] = self.assigns[v]  # type: ignore[assignment]
            self.assigns[v] = None
            self.reason[v] = None
        del self.trail[bound:]
        del self.trail_lim[target_level:]
        self.prop_head = len(self.trail)

    def _pick_branch_var(self) -> Optional[int]:
        best = None
        best_act = -1.0
        for v in range(1, self.num_vars + 1):
            if self.assigns[v] is None and self.activity[v] > best_act:
                best = v
                best_act = self.activity[v]
        return best

    # -- main search -------------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = ()) -> str:
        """Solve under *assumptions* (a sequence of literals).

        Returns :data:`SAT` or :data:`UNSAT`. On SAT, :meth:`model_value`
        reads the model. The solver state is reset to level 0 afterwards so
        it can be reused incrementally.
        """
        if not self.ok:
            return UNSAT
        assumptions = list(assumptions)
        result = self._search(assumptions)
        self._cancel_until(0)
        return result

    def _search(self, assumptions: List[int]) -> str:
        conflicts_until_restart = self.restart_base * _luby(0)
        restart_count = 1
        conflict_count = 0
        self._model: List[Optional[bool]] = []
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats["conflicts"] += 1
                conflict_count += 1
                if self._decision_level() == 0:
                    self.ok = False
                    return UNSAT
                learned, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        return UNSAT
                else:
                    self.clauses.append(learned)
                    self._watch_clause(learned)
                    self.stats["learned"] += 1
                    self._enqueue(learned[0], learned)
                self.var_inc /= self.activity_decay
                if conflict_count >= conflicts_until_restart:
                    self.stats["restarts"] += 1
                    restart_count += 1
                    conflicts_until_restart = self.restart_base * _luby(restart_count)
                    conflict_count = 0
                    self._cancel_until(self._assumption_floor(assumptions))
                continue
            # Place pending assumptions as decisions.
            placed_all, failed = self._place_assumptions(assumptions)
            if failed:
                return UNSAT
            if not placed_all:
                continue
            v = self._pick_branch_var()
            if v is None:
                self._model = list(self.assigns)
                return SAT
            self.stats["decisions"] += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit(v, self.phase[v]), None)

    def _assumption_floor(self, assumptions: List[int]) -> int:
        """Lowest decision level that still has all placed assumptions."""
        return min(self._decision_level(), len(assumptions))

    def _place_assumptions(self, assumptions: List[int]) -> tuple[bool, bool]:
        """Ensure the next unplaced assumption becomes a decision.

        Returns (all_placed, conflict_with_assumption).
        """
        while self._decision_level() < len(assumptions):
            a = assumptions[self._decision_level()]
            value = self._lit_value(a)
            if value is True:
                # Already implied: open an empty decision level so the
                # level-to-assumption indexing stays aligned.
                self.trail_lim.append(len(self.trail))
                continue
            if value is False:
                return False, True
            self.trail_lim.append(len(self.trail))
            self._enqueue(a, None)
            return False, False  # propagate before placing more
        return True, False

    # -- model access ----------------------------------------------------------

    def model_value(self, variable: int) -> bool:
        """Value of *variable* in the last SAT model (False if unassigned)."""
        value = self._model[variable] if variable < len(self._model) else None
        return bool(value)
