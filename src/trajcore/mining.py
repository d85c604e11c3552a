"""Subsequence order, abstractions, and the core of listed sequences.

Symbols are plain hashable values: concrete ``(state, action)`` pairs
(including terminal pseudo-pairs) or abstract names (strings).  A sequence is
a tuple of symbols.  Mixing the two alphabets inside one computation is never
meaningful and is not supported.  Every item becomes a symbol through
:meth:`Abstraction.image`.  A pair is a 2-item tuple or list of Python or
NumPy integers, and its symbol is a tuple of Python ints; under the identity
any other item (``(1, 2, 3)``, ``(0.5, 1)``) is its own symbol, a list read
as a tuple.  A mapping's keys must be pairs.

:func:`core` interns the listed sequences through a
:class:`~trajcore.graph.Symbols` table (:meth:`~trajcore.graph.Symbols.words`),
one dict pass per sequence, or, for a :class:`~trajcore.mdp.SuccessSet`
under an abstraction without a mapping, one translation of the set's
encoding.  The words are strings of code points, one character per symbol
id, which are deduplicated in arrival order and sorted as strings, so
words that arrive nearly sorted, as a success set's do, reach the sort as
few runs.  :func:`core` builds
the minimal DAG of the distinct words top-down, one expansion per distinct
suffix set (:func:`~trajcore.graph.sequence_graph`), and mines it with the
same maximal-subsequence search as the support graph of an MDP (see
:mod:`trajcore.graph`).  :func:`common_subsequences` (every common
subsequence) and :func:`maximal_elements` are the exhaustive reference, and
:func:`brute_force_core` is a deliberately independent oracle built on raw
power-set enumeration; both cross-check the fast path.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Iterable, Mapping, Sequence

from .errors import (
    BudgetExceeded,
    ConsistencyError,
    EmptySuccessSet,
    OracleScaleError,
    UnmappedSymbol,
)
from .graph import (
    DEFAULT_SEQ_BUDGET,
    CoreSet,
    Symbol,
    Symbols,
    SymbolSeq,
    canonical_member_order,
    sequence_graph,
)
from .mdp import TERMINAL, SuccessSet, Trajectory, _pair


@dataclass(frozen=True)
class Abstraction:
    """Map from concrete (state, action) pairs to an abstract alphabet.

    ``mapping=None`` is the identity abstraction.  With ``collapse_runs``,
    maximal runs of equal abstract symbols are collapsed to a single symbol
    after mapping.
    """

    mapping: Mapping[tuple[int, int], str] | None = None
    collapse_runs: bool = False
    label: str = ""

    def __post_init__(self):
        if self.mapping is not None:
            mapping = {_pair(key): str(v) for key, v in self.mapping.items()}
            if None in mapping:
                raise TypeError("abstraction keys must be (state, action) pairs of integers")
            object.__setattr__(self, "mapping", mapping)
        if not self.label:
            object.__setattr__(
                self, "label", "identity" if self.mapping is None else "abstract"
            )

    def image(self, item) -> Symbol:
        """The symbol of ``item`` by the pair rule; :class:`UnmappedSymbol` if a map has none."""
        pair = _pair(item)
        if self.mapping is None:
            return pair or (tuple(item) if isinstance(item, list) else item)
        try:
            return self.mapping[pair]
        except KeyError:
            raise UnmappedSymbol(pair or item) from None

    def terminal_symbols(self) -> frozenset[Symbol]:
        """Symbols that stand for goal-terminal pairs under this abstraction."""
        cached = self.__dict__.get("_terminal_symbols")
        if cached is None:
            cached = frozenset(v for (s, a), v in (self.mapping or {}).items() if a == TERMINAL)
            self.__dict__["_terminal_symbols"] = cached
        return cached

    def is_terminal_symbol(self, sym: Symbol) -> bool:
        """A concrete terminal pair, or a name this map gives a ``(s, TERMINAL)`` pair."""
        pair = _pair(sym)
        if pair is not None:
            return pair[1] == TERMINAL
        return sym in self.terminal_symbols()


IDENTITY = Abstraction()


def is_subsequence(u: Sequence, v: Sequence) -> bool:
    """True iff ``u`` embeds order-preservingly (not necessarily contiguously) in ``v``."""
    i = 0
    n = len(u)
    if n == 0:
        return True
    for sym in v:
        if sym == u[i]:
            i += 1
            if i == n:
                return True
    return False


def apply_abstraction(traj: Trajectory | Sequence, phi: Abstraction = IDENTITY) -> SymbolSeq:
    """Elementwise image of a trajectory (or raw symbol sequence) under ``phi``."""
    out = tuple(map(phi.image, traj.pairs() if isinstance(traj, Trajectory) else traj))
    if phi.collapse_runs:
        out = tuple(sym for sym, _ in groupby(out))
    return out


def lcs_pair(x: Sequence, y: Sequence) -> tuple[int, SymbolSeq]:
    """Length of a longest common subsequence of two sequences, plus a witness.

    The witness is the lexicographically least among all longest common
    subsequences (canonical backtrack order).  O(|x|*|y|) table plus an
    O(L*k*(|x|+|y|)) reconstruction, for ``k`` symbols common to both.
    """
    x, y = tuple(x), tuple(y)
    n, m = len(x), len(y)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, below = table[i], table[i + 1]
        for j in range(m - 1, -1, -1):
            if x[i] == y[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = below[j] if below[j] >= row[j + 1] else row[j + 1]
    length = table[0][0]
    out: list = []
    i = j = 0
    remaining = length
    while remaining:
        # the table does not grow with i or j, so first occurrences leave the most behind
        c = min(c for c in set(x[i:]) & set(y[j:])
                if table[x.index(c, i) + 1][y.index(c, j) + 1] >= remaining - 1)
        out.append(c)
        i, j = x.index(c, i) + 1, y.index(c, j) + 1
        remaining -= 1
    return length, tuple(out)


def common_subsequences(
    seqs: Sequence[Sequence], budget: int = DEFAULT_SEQ_BUDGET
) -> set[SymbolSeq]:
    """Exact deduplicated set of common subsequences of all ``seqs``.

    Always contains the empty sequence.  Implemented as a lazy product-position
    search: a DFS over per-sequence read pointers where matching a symbol
    jumps every pointer to just past its leftmost occurrence.  Leftmost
    embeddings are unique, so each common subsequence is emitted exactly once.
    Raises :class:`BudgetExceeded` once the result set would exceed ``budget``.
    """
    if not seqs:
        raise ValueError("need at least one sequence")
    seqs = [tuple(s) for s in seqs]
    occurrences: list[dict] = []
    for seq in seqs:
        occ: dict = defaultdict(list)
        for pos, sym in enumerate(seq):
            occ[sym].append(pos)
        occurrences.append(occ)
    alphabet = set(occurrences[0])
    for occ in occurrences[1:]:
        alphabet &= set(occ)
    alphabet = sorted(alphabet, key=lambda s: (isinstance(s, str), s))

    results: set[SymbolSeq] = set()
    stack: list[tuple[tuple[int, ...], SymbolSeq]] = [((0,) * len(seqs), ())]
    while stack:
        pointers, prefix = stack.pop()
        results.add(prefix)
        if len(results) > budget:
            raise BudgetExceeded(budget, len(results))
        for sym in alphabet:
            advanced = []
            for occ, ptr in zip(occurrences, pointers):
                positions = occ[sym]
                k = bisect_left(positions, ptr)
                if k == len(positions):
                    break
                advanced.append(positions[k] + 1)
            else:
                stack.append((tuple(advanced), prefix + (sym,)))
    return results


def maximal_elements(commons: Iterable[SymbolSeq]) -> set[SymbolSeq]:
    """Maximal members of a subsequence-closed set.

    For a downward-closed set, a member is maximal iff it is not a
    single-symbol deletion of a member one symbol longer, which avoids
    quadratic embedding checks.
    """
    by_len: dict[int, set[SymbolSeq]] = defaultdict(set)
    for seq in commons:
        by_len[len(seq)].add(seq)
    maximal: set[SymbolSeq] = set()
    for length, bucket in by_len.items():
        longer = by_len.get(length + 1, ())
        deletions: set[SymbolSeq] = set()
        for seq in longer:
            for i in range(len(seq)):
                deletions.add(seq[:i] + seq[i + 1 :])
        maximal |= bucket - deletions
    return maximal


def core(
    successes: SuccessSet | Iterable,
    phi: Abstraction = IDENTITY,
    strip_terminal: bool = False,
    budget: int = DEFAULT_SEQ_BUDGET,
) -> CoreSet:
    """Maximal subsequences shared by every (abstracted) successful trajectory.

    Accepts a :class:`SuccessSet` or any iterable of trajectories / raw symbol
    sequences.  With ``strip_terminal``, terminal symbols are removed before
    mining, matching the "ignore the trivial goal symbol" reading.  Mining is
    the search of :func:`trajcore.graph._maximal_words` on the sequence graph
    of the distinct words; ``budget`` bounds the nodes it visits (see
    :class:`BudgetExceeded`).
    """
    symbols = Symbols(phi, strip_terminal)
    return sequence_graph(symbols.words(successes), symbols).core(budget)


def core_nonempty_witness(
    successes: SuccessSet, phi: Abstraction = IDENTITY
) -> Symbol:
    """Return a symbol embedded in every success of a unique-goal instance.

    The terminal encoding guarantees the goal pseudo-pair (or its abstract
    image) is shared by all successes; a failed embedding check here signals
    a bug, not bad input, and raises :class:`ConsistencyError`.
    """
    if not len(successes):
        raise EmptySuccessSet("no successes to witness")
    goal_states = {t.terminal_state for t in successes}
    if len(goal_states) != 1:
        raise ValueError(
            f"witness requires a unique goal; successes end in {sorted(goal_states)}"
        )
    goal = goal_states.pop()
    witness = phi.image((goal, TERMINAL))
    for traj in successes:
        image = apply_abstraction(traj, phi)
        if not is_subsequence((witness,), image):
            raise ConsistencyError(f"terminal witness {witness!r} missing from {image!r}")
    return witness


def _embeds(u: Sequence, v: Sequence) -> bool:
    # Oracle-local embedding test, kept separate from is_subsequence.
    it = iter(v)
    return all(any(c == w for w in it) for c in u)


def _all_subsequences(seq: SymbolSeq) -> set[SymbolSeq]:
    out: set[SymbolSeq] = set()
    idx = range(len(seq))
    for r in range(len(seq) + 1):
        for picks in combinations(idx, r):
            out.add(tuple(seq[i] for i in picks))
    return out


def brute_force_core(
    successes: SuccessSet | Iterable,
    phi: Abstraction = IDENTITY,
    strip_terminal: bool = False,
) -> CoreSet:
    """Independent oracle for :func:`core` via power-set enumeration.

    Enumerates all 2^n subsequences of the shortest abstracted sequence,
    keeps those embedding in every other sequence, then keeps the maximal
    ones by pairwise checks.  Only valid at small scale.
    """
    seqs = {apply_abstraction(item, phi) for item in successes}
    if not seqs:
        raise EmptySuccessSet("core is undefined over zero successes")
    if strip_terminal:
        seqs = {tuple(sym for sym in seq if not phi.is_terminal_symbol(sym)) for seq in seqs}
    if len(seqs) > 6:
        raise OracleScaleError(f"oracle supports at most 6 sequences, got {len(seqs)}")
    longest = max(len(s) for s in seqs)
    if longest > 12:
        raise OracleScaleError(f"oracle supports length <= 12, got {longest}")
    shortest = min(seqs, key=len)
    others = [s for s in seqs if s is not shortest]
    commons = {
        u for u in _all_subsequences(shortest) if all(_embeds(u, s) for s in others)
    }
    maximal = {
        u
        for u in commons
        if u and not any(u != v and _embeds(u, v) for v in commons)
    }
    return CoreSet(
        members=canonical_member_order(maximal),
        alphabet_tag=phi.label,
        strip_terminal_applied=strip_terminal,
    )
