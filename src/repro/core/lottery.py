"""Lottery scheduling over data items (Waldspurger & Weihl).

Update Frequency Modulation picks its degradation victim "randomly …
with probability proportional to the ticket value of the data item"
(Section 3.4.1), at O(log N_d) per pick.  We implement the weighted
sampling with a Fenwick (binary indexed) tree: point updates and
prefix-descent sampling are both O(log n).
"""

from __future__ import annotations

import math
import random
from itertools import repeat
from operator import add, lt
from typing import Iterable, List, Optional


class LotteryScheduler:
    """Weighted random sampling over ``n`` slots with O(log n) updates.

    Weights must be non-negative; a zero-weight slot is never drawn.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self._n = n
        # The Fenwick descent's strides: powers of two from the highest
        # one <= n down to 1, fixed for the tree's lifetime.
        bit = 1
        while bit << 1 <= n:
            bit <<= 1
        self._strides = tuple(1 << k for k in reversed(range(bit.bit_length())))
        # The descent can probe nodes up to ``2 * bit - 1``; the ones
        # past ``n`` hold +inf, which never compares below the remaining
        # mass, so the descent skips them without a bounds check.
        self._padding = 2 * bit - 1 - n
        self._tree = self._padded([0.0] * (n + 1))  # 1-based Fenwick tree
        self._weights = [0.0] * n
        # Cached total with a dirty flag: consecutive samples between
        # weight mutations (the degrade loop's resampling) skip the
        # descent resummation.  The cache is always refreshed by the
        # same descent-order loop as :meth:`_prefix_sum`, so the cached
        # float is bit-identical to an eager recomputation.
        self._total_cache = 0.0
        self._total_dirty = False

    def __len__(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        """Sum of all weights."""
        if self._total_dirty:
            self._total_cache = self._prefix_sum(self._n)
            self._total_dirty = False
        return self._total_cache

    def weight(self, index: int) -> float:
        """Current weight of slot ``index``."""
        return self._weights[index]

    def weights(self) -> List[float]:
        """Copy of all weights."""
        return list(self._weights)

    def set_weight(self, index: int, weight: float) -> None:
        """Set slot ``index`` to ``weight`` (>= 0) in O(log n)."""
        if not 0 <= index < self._n:
            raise IndexError(f"index {index} out of range [0, {self._n})")
        if weight < 0:
            raise ValueError("weights must be non-negative")
        delta = weight - self._weights[index]
        if delta == 0:
            return
        self._weights[index] = weight
        self._total_dirty = True
        position = index + 1
        while position <= self._n:
            self._tree[position] += delta
            position += position & (-position)

    def add_weight(self, index: int, delta: float) -> None:
        """Adjust slot ``index`` by ``delta``, clamping at zero."""
        self.set_weight(index, max(0.0, self._weights[index] + delta))

    def _prefix_sum(self, count: int) -> float:
        total = 0.0
        position = count
        while position > 0:
            total += self._tree[position]
            position -= position & (-position)
        return total

    def sample(self, rng: random.Random) -> Optional[int]:
        """Draw a slot with probability proportional to its weight.

        Returns None when all weights are zero.  Uses Fenwick descent:
        walk down the implicit tree consuming the drawn mass, O(log n).
        The total comes from the dirty-flag cache (refilled inline in
        the same descent order as :meth:`_prefix_sum`) — a frequent
        call on the degradation path, so repeated picks between weight
        mutations skip both the method hops and the resummation.
        """
        tree = self._tree
        n = self._n
        if self._total_dirty:
            total = 0.0
            position = n
            while position > 0:
                total += tree[position]
                position -= position & (-position)
            self._total_cache = total
            self._total_dirty = False
        else:
            total = self._total_cache
        if total <= 0:
            return None
        target = rng.random() * total

        position = 0
        remaining = target
        for bit in self._strides:
            nxt = position + bit
            if tree[nxt] < remaining:
                remaining -= tree[nxt]
                position = nxt
        index = position  # position is the count of slots strictly before
        if index >= n:
            index = n - 1
        # Guard against landing on a zero-weight slot through float error.
        if self._weights[index] <= 0:
            candidates = [i for i, w in enumerate(self._weights) if w > 0]
            if not candidates:
                return None
            return rng.choice(candidates)
        return index

    def rebuild(self, weights: List[float]) -> None:
        """Replace all weights at once.

        Builds the tree level by level instead of by ``n`` point
        updates, bit-identical to them: a point update leaves node ``p``
        (covering slots ``p - low + 1 .. p``, ``low = p & -p``) holding
        its slots added left to right onto ``0.0``.  The left half of
        that run is node ``p - low/2``, so node ``p`` is that node plus
        the right half's slots, added one at a time in index order.
        Within a level, nodes are summed together column-wise while
        they outnumber their right-half slots.
        """
        n = self._n
        if len(weights) != n:
            raise ValueError("weight vector length mismatch")
        if any(map(lt, weights, repeat(0))):
            raise ValueError("weights must be non-negative")
        self._weights = list(weights)
        self._total_dirty = True
        tree = [0.0] * (n + 1)
        tree[1::2] = [0.0 + weight for weight in weights[::2]]  # ``0.0 +`` maps -0.0 to 0.0
        low = 2
        while low <= n:
            half = low >> 1
            step = low << 1
            count = (n - low) // step + 1  # nodes p = low, low + step, ... <= n
            if half <= count:
                column: Iterable[float] = tree[half:half + count * step:step]
                for offset in range(half, low):
                    column = map(add, column, weights[offset::step])
                tree[low::step] = column
            else:
                for position in range(low, n + 1, step):
                    total = tree[position - half]
                    for weight in weights[position - half:position]:
                        total += weight
                    tree[position] = total
            low = step
        self._tree = self._padded(tree)

    def _padded(self, tree: List[float]) -> List[float]:
        """``tree`` (nodes ``0..n``) extended with the +inf probe nodes."""
        tree.extend(repeat(math.inf, self._padding))
        return tree
