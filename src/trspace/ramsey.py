"""Canonical partition numbers by a pruned search for a bad kernel.

For arity n and target m, the canonical number is the least N such
that every kernel of the increasing n-tuples from {0,...,N-1} admits
an m-element set M and an index set I of coordinates where two tuples
drawn from M get equal colors exactly when they agree on the
coordinates in I. N rises from m until no kernel is bad (admits no
witness).

Arity one depends only on the class sizes, so the kernels of [N] are
its integer partitions. A partition admits a witness iff its largest
class has m points (I empty, constant) or it has m classes (I = {0},
injective); otherwise every m-set meets some class twice without lying
inside it. So the number is (m-1)^2 + 1 (Erdos-Rado), which
canonical_ramsey_number returns without a search or a budget charge.

Higher arities search depth first for a bad kernel. The tuples are
colored in colex order with restricted-growth colors, so each kernel
is met once per partition. An m-set is completed by its colex-last
tuple t, the n largest points of the set, so after coloring t the
search tests the m-sets t + S with S inside [0, t[0]). A completed set
that is canonical for some I stays so in every completion, and the
branch is cut. A full assignment is a bad kernel, and an exhausted
tree decides N. The mask of a color's class holds only the tuples
below the search's depth: a tuple joins it when the search descends
past the tuple and leaves it on the way back, so a node that is cut,
as most are, touches no class.

A tuple's index in colex order is its colex rank, which does not
depend on N, so the tests of the tuples of [N] are the first rows of
those of [N+1], and a search of N+1 first visits again, node for node,
the search of N up to its bad kernel. One search per call serves every
N: N+1 resumes where N found its bad kernel and charges the budget for
the nodes it skips, so each N costs what a search of N alone costs.
The budget grants the search an allowance, the nodes it may visit
before it charges them; it counts the allowance down and charges what
is pending before it yields each N, so a budget stops it at the node
where a charge per node would, and no node is charged to the wrong N.
The rows depend only on (n, m): one table per (n, m) holds them for
every call in the process, and a search builds a tuple's row when it
is the first to reach the tuple. Only the rows are shared; each call
keeps its own search state, which grows the same way, so a budget stop
allocates nothing for a tuple it did not reach.

At arity one only the tests run the search, as the closed form's slow
path: its first bad kernel of N <= (m-1)^2 is the greedy partition
into classes of m-1. `restricted_growth_strings` and `_admits_witness`
enumerate and test whole kernels, the slow reference for the search.
"""

from __future__ import annotations

import functools
import threading
from itertools import combinations, count, islice
from math import comb
from typing import Callable, Iterator, Optional

from .errors import BudgetExceededError, ParameterError
from .model import Config, DEFAULT_CONFIG


def restricted_growth_strings(k: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of range(k) exactly once, encoded as a
    restricted-growth string: a[0] = 0 and a[i] <= max(a[:i]) + 1."""
    if k < 0:
        raise ParameterError("cannot partition a negative number of items")
    if k == 0:
        yield ()
        return
    a = [0] * k
    high = [0] * k
    while True:
        yield tuple(a)
        i = k - 1
        while i > 0 and a[i] > high[i - 1]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        high[i] = max(high[i - 1], a[i])
        for j in range(i + 1, k):
            a[j] = 0
            high[j] = high[i]


def _admits_witness(
    tuples: list[tuple[int, ...]],
    kernel: tuple[int, ...],
    n: int,
    m: int,
    points: int,
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Search every m-set and index set for the canonical biconditional.
    Tuples that do not fit inside the m-set are outside the quantifier."""
    color = dict(zip(tuples, kernel))
    index_sets = [
        I for r in range(n + 1) for I in combinations(range(n), r)
    ]
    for chosen in combinations(range(points), m):
        inside = set(chosen)
        local = [t for t in tuples if inside.issuperset(t)]
        for I in index_sets:
            if all(
                (color[a] == color[b]) == all(a[i] == b[i] for i in I)
                for a, b in combinations(local, 2)
            ):
                return chosen, I
    return None


def _colex_tuples(N: int, n: int) -> list[tuple[int, ...]]:
    """The n-subsets of range(N), sorted by their reversed tuples."""
    return sorted(combinations(range(N), n), key=lambda t: t[::-1])


def _completion_rows(
    n: int, m: int, start: int = 0
) -> Iterator[list[tuple[int, frozenset[int]]]]:
    """Per n-tuple of the naturals in colex order, from colex rank start
    on, one (mask, patterns) per m-set it completes; endless.

    A tuple's index is its colex rank, the sum of C(t[i], i + 1), so the
    tuples of range(N) are the first C(N, n) and their rows do not
    depend on N. The pairs (i, j) of tuple indices, i < j, are bits
    j(j-1)/2 + i. mask holds the pairs inside the m-set and patterns,
    per index set I, those of them that agree on I; the m-set is
    canonical iff its equal-color pairs are one of the patterns. Which
    pairs agree on a coordinate depends only on the positions of the
    points inside the m-set, so it is worked out once on the shape, the
    n-subsets of range(m). A pair agrees on I iff it agrees on every
    coordinate in I, so the patterns are the AND-closure of the n
    per-coordinate masks, starting from all pairs. The shape tables
    are built at the first tuple that completes an m-set."""
    shape = None
    tuples = (head + (last,) for last in count(n - 1) for head in _colex_tuples(last, n - 1))
    for t in islice(tuples, start, None):
        if t[0] < m - n:
            # completes no m-set; combinations would allocate m - n indices
            yield []
            continue
        if shape is None:
            shape = _colex_tuples(m, n)
            pairs = [(u, v) for v in range(len(shape)) for u in range(v)]
            agreeing = [
                [p for p, (u, v) in enumerate(pairs) if shape[u][c] == shape[v][c]]
                for c in range(n)
            ]
        row = []
        for rest in combinations(range(t[0]), m - n):
            points = rest + t
            ks = [sum(comb(points[q], i + 1) for i, q in enumerate(s)) for s in shape]
            bits = [1 << (ks[v] * (ks[v] - 1) // 2 + ks[u]) for u, v in pairs]
            patterns = {sum(bits)}
            for ps in agreeing:
                on = sum(bits[p] for p in ps)
                patterns |= {q & on for q in patterns}
            row.append((sum(bits), frozenset(patterns)))
        yield row


class _CompletionTable:
    """The rows of _completion_rows(n, m) built so far: one table serves
    every N of a search, which adds a row when it first reaches its
    tuple, and _shared_table keeps one per (n, m) for every search of
    the process."""

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.rows: list[list[tuple[int, frozenset[int]]]] = []
        self.more = _completion_rows(n, m)
        self.lock = threading.Lock()

    def fill(self, size: int) -> list[list[tuple[int, frozenset[int]]]]:
        """The table, holding at least size rows. A row cut off by an
        exception is not kept, and the next fill builds it anew."""
        rows = self.rows
        if len(rows) < size:
            with self.lock:  # another thread may have filled it meanwhile
                try:
                    rows.extend(islice(self.more, max(0, size - len(rows))))
                except BaseException:
                    # a generator that raised is finished
                    self.more = _completion_rows(self.n, self.m, len(rows))
                    raise
        return rows


@functools.cache
def _shared_table(n: int, m: int) -> _CompletionTable:
    """The completion table of (n, m) for every call in this process:
    its rows are a function of (n, m) alone, so each is built once."""
    return _CompletionTable(n, m)


def _bad_kernels(
    table: _CompletionTable, N: int, spend: Callable[..., Optional[int]]
) -> Iterator[Optional[tuple[int, ...]]]:
    """For N, N+1, ... in turn, a kernel of the n-tuples of range(N), as
    its colors in colex order, with no canonical m-set; then None at the
    first N where every kernel has one, and stop. n and m are the
    table's. spend(nodes=1) charges the budget per color tried at a
    tuple.

    This is one depth-first search: N+1 resumes from the state in which
    N colored its last tuple, and charges with one spend the nodes a
    search of N+1 alone would visit again first. Each spend returns an
    allowance, the nodes the search may visit before it calls again
    (None counts as 0). The search counts it down, charges the nodes
    with the first node past it, and charges what is pending before
    each yield, so each N is charged for its own nodes. With no
    allowance, every node calls spend() with no argument.

    classes[c] holds the tuples below the depth k that have color c: a
    tuple joins its class when the search descends past it and leaves
    it when the search backs up to it, so a cut node touches no class.
    """
    n, m = table.n, table.m
    if m <= n:
        # an m-set holds at most one n-tuple, so it is vacuously canonical
        yield None
        return
    tests = table.rows
    colors: list[int] = []
    classes: list[int] = []  # per color, the mask of the tuples below k holding it
    equal = [0]              # equal[k]: equal-color pairs below tuple k
    k = used = visited = 0   # used: len(classes)
    left = granted = 0       # of the allowance granted, the nodes left
    while True:
        total = comb(N, n)
        if k == len(colors) < total:
            colors.append(-1)
            equal.append(0)
            table.fill(k + 1)
        while 0 <= k < total:
            color = colors[k] + 1
            if color > used:
                # every color tried: back up, and tuple k - 1 leaves its class
                colors[k] = -1
                k -= 1
                if k >= 0:
                    color = colors[k]
                    mask = classes[color] ^ 1 << k
                    if mask:
                        classes[color] = mask
                    else:
                        classes.pop()
                        used -= 1
                continue
            if left:
                left -= 1
            else:
                # charge the nodes of the allowance and this one
                visited += granted + 1
                left = granted = (spend(granted + 1) if granted else spend()) or 0
            colors[k] = color
            if color == used:
                pairs = equal[k]
            else:
                pairs = equal[k] | classes[color] << (k * (k - 1) // 2)
            for mask, patterns in tests[k]:
                if pairs & mask in patterns:
                    break
            else:
                # tuple k joins its class, and the search descends
                if color == used:
                    classes.append(1 << k)
                    used += 1
                else:
                    classes[color] |= 1 << k
                equal[k + 1] = pairs
                k += 1
                if k == len(colors) < total:
                    colors.append(-1)
                    equal.append(0)
                    table.fill(k + 1)
        if granted > left:  # the nodes pending, charged to this N
            visited += granted - left
            left = granted = spend(granted - left) or 0
        if k < 0:
            yield None
            return
        yield tuple(colors)
        N += 1
        left = granted = spend(visited) or 0


def canonical_ramsey_number(n: int, m: int, config: Config = DEFAULT_CONFIG) -> int:
    """Least N such that every kernel on the increasing n-tuples from
    {0,...,N-1} admits a size-m witness set with some index set.

    Arity one is the closed form (m-1)^2 + 1 and spends no budget.
    Above it config.max_kernels meters the search in colors tried at a
    tuple, where N+1 is charged again for the nodes N visited. On
    exhaustion the error carries the largest N shown to have a bad
    kernel.
    """
    if n < 1 or m < 1:
        raise ParameterError("arity and target must both be at least 1")
    if n == 1:
        return (m - 1) ** 2 + 1
    spent = 0
    largest_decided: Optional[int] = None
    N = m

    def spend(nodes: int = 1) -> int:
        """Charge nodes; the nodes left, or the error past the budget."""
        nonlocal spent
        spent += nodes
        if spent > config.max_kernels:
            err = BudgetExceededError(
                f"kernel budget {config.max_kernels} exhausted while "
                f"checking N={N}; largest fully decided N: {largest_decided}"
            )
            err.largest_checked = largest_decided
            raise err
        return config.max_kernels - spent

    searches = _bad_kernels(_shared_table(n, m), N, spend)
    while next(searches) is not None:
        largest_decided = N
        N += 1
    return N
