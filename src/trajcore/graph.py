"""The labelled DAGs that hold a success set, and the core mined on them.

Every success of a :class:`~trajcore.mdp.TabularMDP` is a path through its
support graph (:func:`build_graph`), the only code that walks (state, t).
It reads the kernel support rows of the states that the initial support
reaches, and of no other state (:func:`~trajcore.mdp._goal_closure`), so
its cost grows with that reach, not with the MDP.  Its nodes are the
(state, t) that lie on some success, and its edges the (action, next state)
steps between them, plus an edge from each goal node to one accept node for
the terminal pseudo-pair.  The graph has at most S·H (state, t) nodes, of
about 0.3 KB each on the key-door, however many successes it holds, and it
is all that the core, the drift witnesses, the success count
(:meth:`SuccessGraph.count_paths`) and
:func:`~trajcore.mdp.enumerate_successes`, which lists its paths
(:meth:`SuccessGraph.successes`), depend on.  A listed family of sequences
is held by its sequence graph (:func:`sequence_graph`): the minimal DAG
whose root-to-accept paths spell its distinct words, each a string with one
character, ``chr(id)``, per symbol id.  :meth:`Symbols.words` makes them
with one dict pass per sequence, or, for a
:class:`~trajcore.mdp.SuccessSet` under an abstraction without a mapping,
with one translation of the set's encoding.  The graph is built
top-down, one expansion per distinct suffix set, each held as a range of
the sorted words.

Edges carry small int symbol ids from a :class:`Symbols` table, which puts
each distinct pair through the abstraction once.  Under ``collapse_runs`` a
node also carries the symbol of the edge that entered it, and an edge that
repeats that symbol is an ε-edge (no symbol); so is an edge whose symbol
``strip_terminal`` removes.  Runs collapse before terminal symbols are
stripped, as :meth:`Symbols.words` does for listed sequences.  The symbols
along a root-to-accept path are then exactly the word of that success, so
:meth:`SuccessGraph.core` equals ``core(enumerate_successes(mdp), phi,
strip_terminal)``.

The core is mined by one search, :func:`_maximal_words`, on either kind of
graph: the subsequence automaton of Baeza-Yates ("Searching subsequences",
TCS 1991), generalised from one text to a DAG of texts.

* A search node is a common subsequence ``u`` together with its frontier:
  the graph nodes at which the leftmost embedding of ``u`` ends, over all
  words.  Two words that reach the same graph node share all their
  futures, so the frontier stands for every suffix left after ``u``.
* The pass of a suffix ``s`` (:func:`_pass`) gives every node ``n`` the
  symbols ``x`` such that every path from ``n`` holds ``(x,) + s``, as one
  backward sweep.  ``must``, the pass of the empty suffix, holds the
  symbols on every path: ``u + (c,)`` is common iff ``c`` is in ``must`` of
  every frontier node, and its frontier is the set of targets of the first
  ``c``-edges reachable from the frontier over other edges.  A node without
  extension is kept iff no ``x`` fits any inner gap: ``x`` fits before
  ``u[i]`` iff the pass of ``u[i:]`` admits it on the frontier of ``u[:i]``.
* Dominance: the child for ``d`` is skipped when some other extension ``c``
  comes first on every path from the frontier; ``c`` then fits in front of
  ``d`` in any continuation, so no node below that child is maximal.  The
  walk that finds the child frontier for ``c`` crosses every label that
  some path holds before its first ``c``, so the symbols it does not cross
  are those ``c`` dominates.  The extensions are walked in the order of
  their first edges along one path from the frontier, which puts every
  dominator before the symbols it dominates, so an extension is walked iff
  no extension walked before it dominates it.
* Two dicts keep repeated work for the length of one call.  ``children``
  maps a frontier to its undominated (symbol, child frontier) list: the
  extensions, and the walks that give the dominance and the child
  frontiers, read the frontier alone, so a frontier met again gets the
  same list.  ``passes`` maps the empty suffix and each suffix ``word[i:]``
  of a leaf to its pass, which reads the suffix alone, so each distinct
  suffix gets one pass.  Both grow with the distinct frontiers and leaf
  suffixes that the search meets, and are dropped when it returns.

Each search node is a distinct common subsequence, and the pruning reads
only the word set, so the search visits the same tree, and its ``budget``
trips at the same count, on any graph of the same words.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import eq, itemgetter
from typing import TYPE_CHECKING, Iterator, Union

from .errors import BudgetExceeded, EmptySuccessSet, ExplosionGuard, SymbolLimitExceeded
from .mdp import (
    DEFAULT_NODE_BUDGET,
    TERMINAL,
    SuccessSet,
    TabularMDP,
    Trajectory,
    _goal_closure,
    _pair,
)

if TYPE_CHECKING:
    from .mining import Abstraction

Symbol = Union[tuple[int, int], str]
SymbolSeq = tuple[Symbol, ...]

DEFAULT_SEQ_BUDGET = 1_000_000

EPS = -1  # the label of an ε-edge
ACCEPT = 0  # the accept node; every other node has a larger id than its parents
_ABSENT = -2  # the id of a symbol that no edge carries
_CODE_POINTS = 0x110000  # a listed word holds each symbol as the character chr(id)


@dataclass(frozen=True)
class CoreSet:
    """Maximal common subsequences of a family of sequences.

    Members are nonempty, canonically ordered (length-descending, then
    lexicographic).  An empty ``members`` tuple means the inputs share no
    nonempty common structure.
    """

    members: tuple[SymbolSeq, ...]
    alphabet_tag: str = "identity"
    strip_terminal_applied: bool = False

    def __iter__(self) -> Iterator[SymbolSeq]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, seq) -> bool:
        return tuple(seq) in self._set

    @cached_property
    def _set(self) -> frozenset[SymbolSeq]:
        return frozenset(self.members)

    def max_length(self) -> int:
        return max((len(m) for m in self.members), default=0)


def canonical_member_order(members) -> tuple[SymbolSeq, ...]:
    return tuple(sorted(set(members), key=lambda m: (-len(m), m)))


class Symbols:
    """Symbol ids shared by the graphs of one analysis.

    Each distinct item goes through ``phi`` once, so an unmapped pair raises
    :class:`~trajcore.errors.UnmappedSymbol` when the first graph that holds
    it is built, or, for listed sequences, when :meth:`words` reaches it.
    The table keeps each item as the one-character string ``chr(id)`` of its
    symbol, so it holds at most 0x110000 symbols
    (:class:`~trajcore.errors.SymbolLimitExceeded` past that, before the
    table changes).  ``stripped[i]`` tells whether
    ``strip_terminal`` removes symbol ``i``.
    """

    def __init__(self, phi: Abstraction, strip_terminal: bool):
        self.phi = phi
        self.strip_terminal = strip_terminal
        self.names: list[Symbol] = []
        self.stripped: list[bool] = []
        self._ids: dict[Symbol, int] = {}
        self._items: dict = {}  # item -> chr(the id of its symbol)

    def of(self, item) -> int:
        """The id of the symbol that ``phi`` gives ``item``, a pair under a mapping."""
        if isinstance(item, list):
            item = tuple(item)
        code = self._items.get(item)
        if code is None:
            name = self.phi.image(item)
            sid = self._ids.get(name)
            if sid is None:
                sid = len(self.names)
                if sid == _CODE_POINTS:
                    raise SymbolLimitExceeded(_CODE_POINTS)
                self._ids[name] = sid
                self.names.append(name)
                self.stripped.append(self.strip_terminal and self.phi.is_terminal_symbol(name))
            code = self._items[item] = chr(sid)
        return ord(code)

    def label(self, sid: int, last: int | None) -> int:
        """The label of an edge with symbol ``sid`` leaving a node entered by ``last``."""
        return EPS if self.stripped[sid] or sid == last else sid

    def words(self, items) -> list[str]:
        """The sorted distinct words of listed sequences or trajectories.

        A word is a string whose characters are ``chr`` of the symbol ids of
        a sequence (a trajectory's steps, then its terminal pair), with the
        ids that :meth:`label` makes ε dropped.  Code-point order is the
        order of the id tuples, and a string caches its hash, so the words
        are deduplicated in arrival order (a dict, not a set, so a success
        set's nearly sorted words reach the sort as few runs, not in hash
        order) and sorted at C speed.  A
        :class:`~trajcore.mdp.SuccessSet` under an abstraction without a
        mapping has them made from its encoding, if it keeps one: each of
        its items goes through :meth:`of` once, in the order the per-item
        path meets them, and one ``str.translate`` and one split make every
        word, with the least id that no item has, safe in a shared table, as
        the separator.
        Listed sequences, and every mapping, take the per-item path: a
        sequence whose items are all known, a trajectory's terminal pair
        among them, is mapped by one dict pass; any other goes through
        :meth:`of` item by item, so each distinct item meets ``phi`` once,
        in iteration order.  Under a mapping, a sequence that holds an item
        that is not a pair, such as ``(1.0, 2)``, raises
        :class:`~trajcore.errors.UnmappedSymbol` at its first unmapped item,
        even where that item equals a known pair.
        """
        encoding = None
        if isinstance(items, SuccessSet) and self.phi.mapping is None:
            encoding = items._encoding
        if encoding is None:
            raw = self._listed(items)
        elif not items.trajectories:  # "" is also the string of one empty trajectory
            raw = {}
        else:
            table = list(map(self.of, encoding[0]))
            gap = min(set(range(len(table) + 1)).difference(table))
            table.append(gap)
            raw = dict.fromkeys(encoding[1].translate(table).split(chr(gap)))
        if self.phi.collapse_runs or any(self.stripped):
            raw = dict.fromkeys(map(self._drop_eps, raw))
        return sorted(raw)

    def _listed(self, items) -> dict[str, None]:
        """The raw words of ``items``, sequence by sequence: the per-item path of :meth:`words`.

        A dict keeps them as a set in arrival order.
        """
        known = self._items.__getitem__
        pairs_only = self.phi.mapping is not None
        raw = {}
        for item in items:
            seq = item
            if isinstance(item, Trajectory):
                end = item.terminal_state
                seq = item.steps if end is None else item.steps + ((end, TERMINAL),)
            elif not isinstance(item, tuple):
                seq = tuple(item)  # a failed pass must not have consumed it
            if pairs_only and None in map(_pair, seq):
                # an item that is not a pair has no image, even one equal to a known pair
                for x in seq:  # phi meets the items before it in order
                    if _pair(x) is None:
                        self.phi.image(x)  # raises UnmappedSymbol
                    self.of(x)
            try:
                raw["".join(map(known, seq))] = None
            except (KeyError, TypeError):  # an item not seen yet, or a list
                raw["".join(map(chr, map(self.of, seq)))] = None
        return raw

    def _drop_eps(self, word: str) -> str:
        collapse = self.phi.collapse_runs
        out, last = [], None
        for c in word:
            sid = ord(c)
            if self.label(sid, last) != EPS:
                out.append(c)
            if collapse:
                last = sid
        return "".join(out)

    def encode(self, seq: SymbolSeq) -> list[int]:
        return [self._ids.get(name, _ABSENT) for name in seq]

    def decode(self, ids) -> SymbolSeq:
        return tuple(self.names[i] for i in ids)


def support_signature(mdp: TabularMDP) -> tuple:
    """What the success set of ``mdp`` depends on, as a hashable key.

    The kernel support, the initial support, the goals and the horizon: two
    MDPs with equal signatures have the same successes, so the same graph,
    core and witnesses.
    """
    support = mdp._support
    return (support.shape, support.offsets.tobytes(), support.targets.tobytes(),
            mdp.initial_support(), tuple(sorted(mdp.goals)), mdp.horizon)


def build_graph(
    mdp: TabularMDP, symbols: Symbols, node_budget: int = DEFAULT_NODE_BUDGET
) -> "SuccessGraph":
    """The support graph of a validated ``mdp``, labelled from ``symbols``.

    Both walks read :func:`~trajcore.mdp._goal_closure`: the support rows
    of the states the initial support reaches, and the distance from each
    to a goal, so no other kernel row is read.  A forward walk over
    those rows that keeps one layer counts the (state, t) nodes that lie on
    some success (a goal within the horizon).  Before ``phi`` sees a pair, it
    raises :class:`ExplosionGuard` past ``node_budget`` nodes, with
    ``visited`` the nodes of the layers up to the one that crossed the
    budget and ``needed`` those of the graph.  A second walk labels them
    layer by layer, steps in ascending (action, next state) order, and
    numbers each next layer's nodes as they are first reached.  So the
    build peaks at the graph plus a layer and the reached rows: 0.3 KB a
    node on the key-door.
    """
    width, horizon, goals = mdp.num_actions, mdp.horizon, mdp.goals
    dist, rows = _goal_closure(mdp)
    seeds = [s for s in mdp.initial_support() if dist[s] < horizon]
    seen: dict[tuple[int, ...], tuple[int, int]] = {}  # layer -> first (t, total) past the budget
    layer, t, total, visited, steady = seeds, 1, 0, 0, 0
    while layer:
        if visited and t <= steady:  # one map gives each layer from the last: skip whole periods
            t0, total0 = seen.setdefault(tuple(layer), (t, total))
            if t0 < t:
                periods = (steady - t + 1) // (t - t0)
                t, total = t + periods * (t - t0), total + periods * (total - total0)
        total += len(layer)
        if total > node_budget and not visited:
            visited = total
            # a layer holds walked states only, so up to layer `steady` the horizon
            # prunes only states that reach no goal at all
            steady = horizon - 1 - max(d for d in dist.values() if d < horizon)
        slack = horizon - t - 1
        following: set[int] = set()
        for s in layer:
            if s not in goals:
                following.update(m for m in rows[s][1] if dist[m] <= slack)
        layer, t = sorted(following), t + 1
    if visited:
        raise ExplosionGuard(node_budget, visited, total)
    collapse = symbols.phi.collapse_runs
    state, edges = [-1], [()]
    # (state, symbol that entered it under collapse_runs)
    layer, t = [(s, None) for s in seeds], 1
    while layer:
        slack, first = horizon - t - 1, len(edges) + len(layer)
        ids: dict[tuple[int, int | None], int] = {}  # the next layer's nodes
        for s, last in layer:
            state.append(s)
            if s in goals:
                sid = symbols.of((s, TERMINAL))
                edges.append(((TERMINAL, ACCEPT, symbols.label(sid, last)),))
                continue
            row, (ends, reached) = [], rows[s]
            for a in range(width):
                run = reached[ends[a] - ends[0] : ends[a + 1] - ends[0]]
                kept = [m for m in run if dist[m] <= slack]
                if kept:
                    sid = symbols.of((s, a))
                    label, key = symbols.label(sid, last), sid if collapse else None
                    for m in kept:
                        row.append((a, ids.setdefault((m, key), first + len(ids)), label))
            edges.append(tuple(row))
        layer, t = list(ids), t + 1
    return SuccessGraph(symbols, state, edges, tuple(range(1, len(seeds) + 1)))


def sequence_graph(words: list[str], symbols: Symbols) -> "SuccessGraph":
    """The minimal DAG whose root-to-accept paths spell ``words``, sorted and distinct.

    A word is a string of symbol ids, one character ``chr(id)`` per symbol,
    as :meth:`Symbols.words` makes it, so its suffixes are sliced, hashed
    and compared as strings, and an edge's label is ``ord`` of a character.
    Its nodes are the distinct right languages (suffix sets) of the words'
    prefixes, built top-down.  A language is held as a range of the words,
    those that start with one prefix, read from the prefix's length on.  Its
    first word and its last share a run of symbols, read in one slice; the
    node that ends the run has an ε-edge to accept if a word ends there, and
    a child for each next symbol, its range found by bisection.  A child is
    looked up by its size and three of its suffixes, and, if an unequal
    language has these too, by the hash of all its suffixes; each hit is
    confirmed by comparing contents.  A child of one word that misses is a
    run to accept, and one of more words is expanded in turn.  The unary
    nodes of a run are made bottom-up, and every node is merged with an
    equal one by its (label, child) row, so the graph is minimal whatever
    the lookups find.  So a language met again as a range is not expanded
    again, the build holds ranges, not copies of suffixes, and a family of
    a few near-identical long words costs one step per symbol.  Node ids
    are in reversed closing order, which puts parents first, since a node
    is closed after its children.  An edge's action is its label, and no
    node has a state.
    """
    if not words:
        return SuccessGraph(symbols, [-1], [()], ())
    closed = {((EPS, ACCEPT),): ACCEPT}  # the (label, child) row of each node
    rows: list[tuple[tuple[int, int], ...]] = [()]
    # the key of a language (see find) -> (the index of its first word, its prefix length, its node)
    seen: dict[tuple, list[tuple[int, int, int]]] = {}

    def close(row: tuple, run: str) -> int:
        """The node that reads ``run`` down to a node with ``row``, made bottom-up."""
        n = closed.setdefault(row, len(rows))
        if n == len(rows):
            rows.append(row)
        for c in reversed(run):
            row = ((ord(c), n),)
            n = closed.setdefault(row, len(rows))
            if n == len(rows):
                rows.append(row)
        return n

    def find(i: int, j: int, start: int) -> tuple[tuple, int | None]:
        """The key of the language of ``words[i:j]`` from ``start`` on, and its node if any.

        The key is the size and the hashes of the first, middle and last
        suffix; if an unequal language has that key, the hash of all the
        suffixes is added to it.
        """
        cut = itemgetter(slice(start, None))
        key = (j - i, hash(cut(words[i])), hash(cut(words[(i + j) // 2])), hash(cut(words[j - 1])))
        kept = seen.get(key)
        if kept is not None:
            lo, depth, n = kept[0]
            if _equal_suffixes(words, i, j, start, lo, depth):
                return key, n
            key += (hash(tuple(map(hash, map(cut, words[i:j])))),)
            for lo, depth, n in seen.get(key, ()):
                if _equal_suffixes(words, i, j, start, lo, depth):
                    return key, n
        return key, None

    def expand(lo: int, hi: int, start: int, key: tuple) -> list:
        """A frame for ``words[lo:hi]`` read from ``start`` on.

        It holds ``lo`` and ``start``, the key, the end of the run, the row
        so far and the child ranges.
        """
        first, end = words[lo], start
        for a, b in zip(first[start:], words[hi - 1][start:]):
            if a != b:
                break
            end += 1
        row = [(EPS, ACCEPT)] if len(first) == end else []
        kids, i, symbol = [], lo + len(row), itemgetter(end)
        while i < hi:
            # past the words with this symbol: the last code point has no successor to bisect for
            j = bisect_right(words, words[i][end], i + 1, hi, key=symbol)
            kids.append((i, j))
            i = j
        kids.reverse()
        return [lo, start, key, end, row, kids]

    stack = [expand(0, len(words), 0, ())]
    while stack:
        lo, start, key, end, row, kids = stack[-1]
        while kids:
            i, j = kids[-1]
            child, n = find(i, j, end + 1)
            if n is None:
                if j > i + 1:
                    break
                n = close(((EPS, ACCEPT),), words[i][end + 1 :])
                seen.setdefault(child, []).append((i, end + 1, n))
            row.append((ord(words[i][end]), n))
            kids.pop()
        if kids:  # a language not met before: build it first
            stack.append(expand(i, j, end + 1, child))
            continue
        n = close(tuple(row), words[lo][start:end])
        stack.pop()
        if stack:
            seen.setdefault(key, []).append((lo, start, n))
            _, _, _, end, row, kids = stack[-1]
            row.append((ord(words[lo][end]), n))
            kids.pop()
    root, last = n, len(rows)
    edges = [()] + [tuple([(lab, last - m if m else ACCEPT, lab) for lab, m in rows[n]])
                    for n in range(last - 1, 0, -1)]
    return SuccessGraph(symbols, [-1] * len(edges), edges, (last - root if root else ACCEPT,))


def _equal_suffixes(words, i: int, j: int, start: int, lo: int, depth: int) -> bool:
    """Whether ``words[i:j]`` from ``start`` on equal as many words from ``lo``, from ``depth`` on."""
    return all(map(eq, map(itemgetter(slice(start, None)), words[i:j]),
                   map(itemgetter(slice(depth, None)), words[lo : lo + j - i])))


@dataclass(frozen=True, eq=False)
class SuccessGraph:
    """The successes of one MDP (or, after :meth:`union`, of two) as a labelled DAG.

    Node 0 is the accept node.  ``edges[n]`` lists the (action, target,
    label) edges of node ``n`` in ascending (action, next state) order; a
    goal node has the single edge ``(TERMINAL, ACCEPT, label)``.  Every edge
    lies on some success.  A :func:`sequence_graph` has the same form.
    Every pass reads these rows and folds them per node by AND, OR, min,
    max or set union, so two rows with the same (label, target) count once.
    """

    symbols: Symbols
    state: list[int]
    edges: list[tuple[tuple[int, int, int], ...]]
    roots: tuple[int, ...]

    def count_paths(self) -> tuple[int, int]:
        """The successes, and the prefixes (root paths into nodes but accept), in Python ints.

        One pass in id order, parents first, pushes each node's count to its
        children and drops it, so at most two layers of counts are held.
        """
        paths = [0] * len(self.edges)
        for root in self.roots:
            paths[root] += 1
        prefixes = 0
        for n in range(1, len(self.edges)):
            count, paths[n] = paths[n], 0
            if count:
                prefixes += count
                for _, m, _ in self.edges[n]:
                    paths[m] += count
        return paths[ACCEPT], prefixes

    def num_successes(self) -> int:
        """The exact number of successes."""
        return self.count_paths()[0]

    def successes(self) -> tuple[Trajectory, ...]:
        """Every success, in :class:`~trajcore.mdp.SuccessSet` order.

        A depth-first walk over edges in ascending (action, next state)
        order, which orders the pairs.  Each edge's pair is made once, so
        the successes that share an edge share its pair object.
        """
        steps = [[((s, a), m) for a, m, _ in row[::-1]] for s, row in zip(self.state, self.edges)]
        found: list[Trajectory] = []
        stack = [(root, ()) for root in reversed(self.roots)]
        while stack:
            n, prefix = stack.pop()
            if self.edges[n][0][0] == TERMINAL:
                found.append(Trajectory(steps=prefix, terminal_state=self.state[n]))
            else:
                stack.extend((m, prefix + (pair,)) for pair, m in steps[n])
        return tuple(found)

    def union(self, other: "SuccessGraph") -> "SuccessGraph":
        """One graph holding the successes of both, with one accept node.

        Both graphs must be labelled from the same :class:`Symbols`.
        """
        shift = len(self.edges) - 1
        moved = [
            tuple((a, m + shift if m else ACCEPT, lab) for a, m, lab in row)
            for row in other.edges[1:]
        ]
        return SuccessGraph(
            self.symbols,
            self.state + other.state[1:],
            self.edges + moved,
            self.roots + tuple(r + shift for r in other.roots),
        )

    def core(self, budget: int = DEFAULT_SEQ_BUDGET) -> CoreSet:
        """The core of the successes; ``budget`` bounds the search nodes.

        Raises :class:`EmptySuccessSet` when there are no successes, and
        :class:`BudgetExceeded` past the budget, as
        :func:`~trajcore.mining.core` does.
        """
        if not self.roots:
            raise EmptySuccessSet("core is undefined over zero successes")
        found = _maximal_words(self.edges, self.roots, budget)
        return CoreSet(
            members=canonical_member_order(self.symbols.decode(w) for w in found if w),
            alphabet_tag=self.symbols.phi.label,
            strip_terminal_applied=self.symbols.strip_terminal,
        )

    def witness(self, member: SymbolSeq) -> Trajectory | None:
        """The first success, in :class:`SuccessSet` order, that ``member`` does not embed in.

        None when it embeds in every success.  A walk over the product of
        the graph and the greedy embedding automaton of ``member``, which
        tries (action, next state) in ascending order and enters only
        product nodes from which accept is reachable with the automaton
        short of its end, so it never backtracks.
        """
        word = self.symbols.encode(member)
        masks: dict[int, int] = {}
        for j, sid in enumerate(word):
            masks[sid] = masks.get(sid, 0) | 1 << j
        # short[n]: automaton states at n from which some path ends short of len(word)
        short = [0] * len(self.edges)
        short[ACCEPT] = (1 << len(word)) - 1
        for n in range(len(self.edges) - 1, 0, -1):
            acc = 0
            for _, m, lab in self.edges[n]:
                mask = masks.get(lab, 0)
                acc |= (short[m] & ~mask) | (short[m] >> 1 & mask)
            short[n] = acc
        n = next((root for root in self.roots if short[root] & 1), None)
        if n is None:
            return None
        j, steps = 0, []
        while n != ACCEPT:
            for action, m, lab in self.edges[n]:
                k = j + 1 if j < len(word) and word[j] == lab else j
                if short[m] >> k & 1:
                    break
            if action == TERMINAL:
                goal = self.state[n]
            else:
                steps.append((self.state[n], action))
            n, j = m, k
        return Trajectory(steps=tuple(steps), terminal_state=goal)


def _advance(edges, frontier: tuple[int, ...], c: int) -> tuple[tuple[int, ...], int]:
    """Targets of the first ``c``-edges on the paths from ``frontier``, and the labels met before them.

    The labels met are a bitset of the labels of the other edges the walk
    crosses; ε-edges add nothing.  Every edge lies on a path to accept, so
    no path from the frontier holds a symbol ``d != c`` outside it before
    its first ``c``.
    """
    found: set[int] = set()
    met = 0
    seen = set(frontier)
    todo = list(frontier)
    while todo:
        for _, m, lab in edges[todo.pop()]:
            if lab == c:
                found.add(m)
                continue
            if lab >= 0:
                met |= 1 << lab
            if m not in seen:
                seen.add(m)
                todo.append(m)
    return tuple(sorted(found)), met


def _maximal_words(edges, roots: tuple[int, ...], budget: int) -> set[tuple[int, ...]]:
    """Maximal common subsequences of the label sequences of all root-to-accept paths.

    The search of the module docstring; raises :class:`BudgetExceeded` once
    it visits more than ``budget`` nodes.
    """
    must = _pass(edges, [-1] * len(edges), 0)  # every path holds the empty suffix
    # frontier -> ((symbol,), (child frontier,)) of each undominated extension, in symbol
    # order; the walks to the child frontiers tell which extensions are dominated
    children: dict[tuple[int, ...], list] = {}
    # suffix -> its pass: see _no_gap_fits
    passes: dict[tuple[int, ...], list[int]] = {(): must}
    found: set[tuple[int, ...]] = set()
    visited = 0
    # (word, frontier after each prefix of the word)
    stack: list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = [((), (roots,))]
    while stack:
        word, frontiers = stack.pop()
        visited += 1
        if visited > budget:
            raise BudgetExceeded(budget, visited)
        frontier = frontiers[-1]
        extensions = -1
        for n in frontier:
            extensions &= must[n]
        if not extensions:
            if _no_gap_fits(edges, word, frontiers, passes):
                found.add(word)
            continue
        kids = children.get(frontier)
        if kids is None:
            # the extensions in the order of their first edges on one path, which holds
            # them all, up to the last one left: each comes after those that dominate it
            order, left, n = [], extensions, frontier[0]
            while left & (left - 1):
                _, n, lab = edges[n][0]
                if lab >= 0 and left >> lab & 1:
                    order.append(lab)
                    left ^= 1 << lab
            order.append(left.bit_length() - 1)
            kids = children[frontier] = []
            dominated = 0
            for c in order:
                if not dominated >> c & 1:
                    child, met = _advance(edges, frontier, c)
                    dominated |= ~(met | 1 << c)
                    kids.append(((c,), (child,)))
            kids.sort()
        for symbol, child in kids:
            stack.append((word + symbol, frontiers + child))
    return found


def _pass(edges, holds: list[int], c: int) -> list[int]:
    """The pass of a suffix ``s``: ``nxt[n]``, the ``x`` whose ``(x,) + s`` every path from ``n`` holds.

    Each ``nxt[n]`` is a bitset.  ``c`` is ``s[0]`` and ``holds`` the pass
    of ``s[1:]``, so a path from ``m`` holds ``s`` iff ``c`` is in
    ``holds[m]``.  A path over an edge labelled ``x`` holds ``(x,) + s``
    iff the rest of it holds ``s``; over any other edge, ε-edges too, iff
    the rest holds ``(x,) + s``, which implies that it holds ``s``.  So an
    edge into ``m`` admits ``nxt[m]``, plus its label if every path from
    ``m`` holds ``s``.
    """
    nxt = [0] * len(edges)
    for n in range(len(edges) - 1, 0, -1):
        acc = -1
        for _, m, lab in edges[n]:
            acc &= nxt[m] | (1 << lab if lab >= 0 and holds[m] >> c & 1 else 0)
        nxt[n] = acc
    return nxt


def _no_gap_fits(edges, word, frontiers, passes) -> bool:
    """True iff no symbol can be inserted before any ``word[i]``.

    The insertion of ``x`` before ``word[i]`` is common iff the pass of
    ``word[i:]`` admits ``x`` at every node of the frontier after
    ``word[:i]``: each word passes that frontier, and ``x`` is on every
    path from it.  A pass covers every node, so it depends on its suffix
    alone, and ``passes`` keeps it under that suffix.
    """
    holds = passes[()]
    for i in range(len(word) - 1, -1, -1):
        suffix = word[i:]
        nxt = passes.get(suffix)
        if nxt is None:
            nxt = passes[suffix] = _pass(edges, holds, word[i])
        fits = -1
        for n in frontiers[i]:
            fits &= nxt[n]
        if fits:
            return False
        holds = nxt
    return True
