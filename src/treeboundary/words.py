"""Freely reduced words in the free group F_n, seen as vertices of the
2n-valent tree.

Letters are encoded as integers ``0 .. 2n-1``: generator ``j`` is ``2j`` and
its inverse is ``2j + 1``, so letter i has inverse ``i ^ 1``.  This makes
free reduction branchless and fixes a canonical letter order.  All
enumeration is length-then-lexicographic on this encoding, so every
downstream floating-point reduction sees elements in the same order.

Words serialize as strings over ``a..z`` (generators) and ``A..Z``
(inverses); the identity serializes as ``"1"``.

``FreeGroup.prefix_classes`` walks a sphere by classes of a common depth-k
prefix, the unit that deviation profiles and cocycle sums are built from.
``FreeGroup.product_runs`` is the one walk of the tree action on cells: it
splits the depth-(k + |h|) cells c, the depth at which every key is fixed,
into lexicographic runs that share the key prefix_k(h c), which operator
fibers and the pair-sum deviation read.  It need only walk one cylinder:
every cell outside the cancellation cylinder
``FreeGroup.cancellation_cylinder`` has the key h[:k], so those cells are
one or two intervals counted by arithmetic.

Everything here is immutable and every operation is a pure function (a
``FreeGroup``'s memos only cache), so the module is safe to use from
concurrent contexts.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, total_ordering
from typing import Iterable, Iterator

DEFAULT_BUDGET = 10**7


class BudgetError(Exception):
    """An enumeration would exceed the configured element budget; see
    ``FreeGroup.check_budget`` for ``requested`` past its cutoff."""

    def __init__(self, requested: int, limit: int, message: str | None = None):
        # a count past 1000 bits is named by its binary order, so that the
        # message never meets the int-to-str digit limit
        bits = requested.bit_length()
        count = requested if bits <= 1000 else f"more than 2^{bits - 1}"
        super().__init__(message or f"enumeration of {count} elements exceeds budget {limit}")
        self.requested = requested
        self.budget = limit


class Frozen:
    """A value that refuses attribute assignment once made.

    ``__init__`` sets the fields through ``self.__dict__``, or through
    ``object.__setattr__`` where the class has ``__slots__``.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Word(Frozen):
    """A freely reduced word; the empty tuple is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()):
        for a, b in zip(letters, letters[1:]):
            if a == b ^ 1:
                raise ValueError(f"word {letters} is not freely reduced")
        object.__setattr__(self, "letters", letters)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.letters,))

    def __reduce__(self):
        return Word, (self.letters,)

    def __len__(self) -> int:
        return len(self.letters)

    def __lt__(self, other: "Word") -> bool:
        return (len(self.letters), self.letters) < (
            len(other.letters),
            other.letters,
        )

    def __str__(self) -> str:
        return word_to_str(self)

    def __repr__(self) -> str:
        return f"Word({word_to_str(self)!r})"

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def prefix(self, k: int) -> "Word":
        return Word(self.letters[:k])

    def inverse(self) -> "Word":
        return Word(tuple(x ^ 1 for x in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return mul(self, other)


IDENTITY = Word(())


def reduce_letters(letters: Iterable[int]) -> Word:
    """Freely reduce an arbitrary letter sequence (stack algorithm)."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == x ^ 1:
            stack.pop()
        else:
            stack.append(x)
    return Word(tuple(stack))


def reduced_word(letters: tuple[int, ...]) -> Word:
    """The word of a letter tuple that is reduced by construction, such as
    a product of reduced words cancelled at the junction; not checked."""
    word = object.__new__(Word)
    object.__setattr__(word, "letters", letters)
    return word


def mul(g: Word, h: Word) -> Word:
    """Reduced product.  Only the junction can cancel for reduced inputs."""
    return reduced_word(_product_letters(g.letters, h.letters))


def _product_letters(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    i, j = len(a), 0
    while i > 0 and j < len(b) and a[i - 1] == b[j] ^ 1:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def common_prefix_len(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    t = 0
    for x, y in zip(a, b):
        if x != y:
            break
        t += 1
    return t


def gromov_product(g: Word, h: Word) -> int:
    """(g, h) at the identity basepoint: (|g| + |h| - |g^-1 h|) / 2.

    On the tree this equals the longest common prefix length of g and h,
    which tests verify independently.
    """
    return gromov_inverse(tuple(x ^ 1 for x in reversed(g.letters)), h.letters)


def gromov_inverse(ginv: tuple[int, ...], h: tuple[int, ...]) -> int:
    """(g, h) from the letter tuples of g^-1 and h, for a g met with many h."""
    d = len(ginv) + len(h) - len(_product_letters(ginv, h))
    if d % 2:  # impossible for genuine reduced words
        raise AssertionError(f"odd Gromov product numerator for g^-1 = {ginv}, h = {h}")
    return d // 2


def fiber_shape(letters: tuple[int, ...], t: int, k: int) -> tuple:
    """The shape (h[:|h| - t + 1], |h|, k) of the point h = ``letters`` for a
    depth-k function whose cancellation cylinder [q] has length t: the keys
    of the cells q c' read h only through h[:|h| - t], and the letters c'
    may start with through h[|h| - t]."""
    L = len(letters)
    return letters[: L - t + 1], L, k


# letter x serializes as _LETTER_CHARS[x]: a A b B ... z Z
_LETTER_CHARS = "".join(c + c.upper() for c in "abcdefghijklmnopqrstuvwxyz")


def word_to_str(w: Word | tuple[int, ...]) -> str:
    """A word, or the letter tuple of a reduced word, as a string."""
    letters = w.letters if isinstance(w, Word) else w
    return "".join([_LETTER_CHARS[x] for x in letters]) or "1"


def word_from_str(s: str, n: int | None = None) -> Word:
    """Parse a word string; the input is reduced if necessary.

    ``"1"`` and ``""`` both denote the identity.  With ``n`` given, letters
    outside the rank-n alphabet raise ValueError.
    """
    if s in ("1", ""):
        return IDENTITY
    letters = []
    for ch in s:
        if "a" <= ch <= "z":
            x = 2 * (ord(ch) - ord("a"))
        elif "A" <= ch <= "Z":
            x = 2 * (ord(ch) - ord("A")) + 1
        else:
            raise ValueError(f"invalid word character {ch!r} in {s!r}")
        if n is not None and x >= 2 * n:
            raise ValueError(f"letter {ch!r} outside rank-{n} alphabet")
        letters.append(x)
    return reduce_letters(letters)


class FreeGroup(Frozen):
    """Rank and alphabet bookkeeping for F_n, n >= 2, and the run's budget.

    The rank is capped at 26 so that the a..z serialization is total.
    ``budget`` is the one cap on a run's work, which every charge reads;
    equality and hashing read the rank alone.
    """

    def __init__(self, n: int, budget: int = DEFAULT_BUDGET):
        if not isinstance(n, int) or not (2 <= n <= 26):
            raise ValueError(f"rank must be an integer in 2..26, got {n}")
        self.__dict__.update(n=n, budget=budget, shape_counts={})  # the memo of ``key_counts``

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n,))

    def __repr__(self) -> str:
        return f"FreeGroup(n={self.n})"

    @property
    def alphabet_size(self) -> int:
        return 2 * self.n

    def check_letters(self, letters: Iterable[int]) -> None:
        for x in letters:
            if not isinstance(x, int) or not (0 <= x < 2 * self.n):
                raise ValueError(f"letter {x} outside alphabet of size {2 * self.n}")

    def word(self, s: str) -> Word:
        return word_from_str(s, self.n)

    def sphere_count(self, m: int) -> int:
        if m < 0:
            raise ValueError("negative radius")
        if m == 0:
            return 1
        return 2 * self.n * (2 * self.n - 1) ** (m - 1)

    def growth_count(self, R: int) -> int:
        """|B_R| by the geometric closed form, exact integers."""
        if R < 0:
            raise ValueError("negative radius")
        if R == 0:
            return 1
        q = 2 * self.n - 1
        return 1 + 2 * self.n * (q**R - 1) // (q - 1)

    @lru_cache(maxsize=None)
    def run_sizes(self, m: int) -> tuple[int, ...]:
        """run_sizes(m)[t] = |S_m| / |S_t|: the depth-m cells that extend a
        depth-t prefix, for t = 0 .. m."""
        return tuple(self.sphere_count(m) // self.sphere_count(t) for t in range(m + 1))

    def charge(self, count: int, unit: str) -> None:
        """Raise BudgetError if ``count`` units of work exceed the budget."""
        if count > self.budget:
            raise BudgetError(count, self.budget, f"{count} {unit} exceed budget {self.budget}")

    def check_budget(self, R: int | None = None, m: int | None = None) -> None:
        """Raise BudgetError if |B_R| * |S_m| exceeds the budget; a factor
        whose radius is None is left out.

        The count is at least (2n-1)^(R+m) >= 3^(R+m).  So once R + m
        reaches b + 1000, b = budget.bit_length(), it exceeds 2^(b+1000) and
        the budget: the error names that power of two, and the count, a
        number of about (R + m) log2(2n-1) bits, is never built.
        """
        radii = [r for r in (R, m) if r is not None]
        if any(r < 0 for r in radii):
            raise ValueError("negative radius")
        cutoff = self.budget.bit_length() + 1000
        if sum(radii) >= cutoff:
            raise BudgetError(1 << cutoff, self.budget)
        count = 1 if R is None else self.growth_count(R)
        if m is not None:
            count *= self.sphere_count(m)
        if count > self.budget:
            raise BudgetError(count, self.budget)

    def prefix_class_count(self, R: int, k: int) -> int:
        """The number of prefix classes (prefix_k g, |g|) in B_R: sum over
        m <= R of |S_min(m,k)|, from the radii alone."""
        t = min(R, k)
        return self.growth_count(t) + (R - t) * self.sphere_count(t)

    def check_class_budget(self, k: int, first: int, last: int) -> None:
        """Charge the prefix classes of depth k on spheres ``first`` ..
        ``last``, the classes that a profile or a series evaluates once
        each, and then their sphere radii, sum of m |S_min(m,k)|: a class
        at sphere m costs O(m)-digit arithmetic."""
        classes = self.prefix_class_count(last, k)
        if first:
            classes -= self.prefix_class_count(first - 1, k)
        self.charge(classes, "prefix classes")
        # each sphere past t holds |S_t| classes
        t, lo = min(last, k), max(first, min(last, k) + 1)
        radii = sum(m * self.sphere_count(m) for m in range(first, t + 1))
        radii += self.sphere_count(t) * (last * (last + 1) - lo * (lo - 1)) // 2
        self.charge(radii, "class sphere radii")

    def prefix_classes(self, m: int, k: int) -> Iterator[tuple[tuple[int, ...], Word, int]]:
        """The classes of sphere m under g ~ g' iff prefix_k g = prefix_k g',
        lexicographic: (prefix, member, size) for each.

        The prefix has length min(m, k), so it is g itself when m < k; the
        member extends the prefix by repeating its last letter (by letter 0
        for the empty prefix); the size is |S_m| / |S_min(m,k)|.
        """
        k = min(m, k)
        size = self.sphere_count(m) // self.sphere_count(k)
        for prefix in self.iter_sphere_letters(k):
            yield prefix, Word(prefix + (prefix[-1] if prefix else 0,) * (m - k)), size

    def lex_rank(self, p: tuple[int, ...]) -> int:
        """The position of the reduced letter tuple p in the lexicographic
        sphere |p|: each letter passes the letters below it that may follow
        the one before, each heading a (2n-1)-ary subtree."""
        q, rank, last = 2 * self.n - 1, 0, None
        for x in p:
            rank = rank * q + x - (last is not None and (last ^ 1) < x)
            last = x
        return rank

    def cancellation_cylinder(self, h: Word, k: int, m: int) -> tuple[tuple[int, ...], int]:
        """(q, start): every depth-m cell c outside [q] has key
        prefix_k(h c) = h[:k], and the run_sizes(m)[|q|] cells of [q] are
        the ones from lexicographic position ``start`` on.

        q = h^-1[:t], t = max(0, min(|h| - k + 1, |h|, m)): outside [q]
        fewer than t letters of c cancel against h, and t <= |h| - k + 1,
        so h c keeps at least k letters of h.
        """
        L = len(h)
        t = max(0, min(L - k + 1, L, m))
        q = tuple([x ^ 1 for x in reversed(h.letters[L - t :])])
        return q, self.lex_rank(q) * self.run_sizes(m)[t]

    def product_runs(
        self, h: Word, k: int, prefix: tuple[int, ...] = ()
    ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The depth-(k + |h|) cells c that extend ``prefix``, lexicographic,
        in runs (p, key): the ``run_sizes(k + |h|)[len(p)]`` cells that
        extend p all have key = prefix_k(h c).

        The letters of c that cancel against h are the common prefix of
        h^-1 and c, of length j <= |h|; then h c = h[:|h|-j] + c[j:], and
        the key depends on c only through j and c[j : j + max(0, k - (|h| -
        j))], so the walk down the prefix tree stops as soon as p fixes both.
        At depth k + |h| every key is fixed: |h c| >= k, and for k >= 1 some
        letter of c is left after the cancellation.
        """
        a = h.letters
        ainv = tuple(x ^ 1 for x in reversed(a))
        L = len(a)
        if len(prefix) > k + L:
            return []
        follow, letters = self.follow, range(2 * self.n)
        out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

        def walk(p: tuple[int, ...], j: int | None) -> None:
            # j is None while p still agrees with h^-1, so the
            # cancellation length is not fixed yet
            t = len(p)
            if j is None and t == L:
                j = t
            if j is not None:
                end = j + max(0, k - (L - j))
                if t >= end:
                    out.append((p, (a[: L - j] + p[j:end])[:k]))
                    return
            for y in follow[p[-1]] if p else letters:
                walk(p + (y,), j if j is not None or y == ainv[t] else t)

        i = common_prefix_len(ainv, prefix)
        walk(prefix, None if i == len(prefix) else i)
        return out

    def key_counts(self, h: Word, k: int) -> dict[tuple[int, ...], int]:
        """The depth-(k + |h|) cells c counted by key prefix_k(h c): those
        outside the cancellation cylinder [q] (key h[:k]) by arithmetic,
        those of [q] along ``product_runs``, once per shape of h (kept in
        ``shape_counts``, whose dict is returned).  The shape needs only the
        length of q, max(0, min(|h| - k + 1, |h|)); q is built, and the
        depth-(k + |h|) sphere charged against the budget, only when the
        shape is new."""
        L = len(h)
        shape = fiber_shape(h.letters, max(0, min(L - k + 1, L)), k)
        counts = self.shape_counts.get(shape)
        if counts is None:
            d = k + L
            self.check_budget(m=d)
            q, _ = self.cancellation_cylinder(h, k, d)
            sizes = self.run_sizes(d)
            outside = sizes[0] - sizes[len(q)]
            counts = {h.letters[:k]: outside} if outside else {}
            for p, key in self.product_runs(h, k, q):
                counts[key] = counts.get(key, 0) + sizes[len(p)]
            self.shape_counts[shape] = counts
        return counts

    @cached_property
    def follow(self) -> tuple[tuple[int, ...], ...]:
        """follow[x]: the letters that may come after letter x, ascending."""
        two_n = 2 * self.n
        return tuple(tuple(y for y in range(two_n) if y != x ^ 1) for x in range(two_n))

    def iter_sphere_letters(
        self, m: int, prefix: tuple[int, ...] = ()
    ) -> Iterator[tuple[int, ...]]:
        """Letter tuples of the reduced words of length m that extend the
        reduced letter tuple ``prefix`` (all of them by default), lexicographic."""
        if len(prefix) >= m:
            if len(prefix) == m:
                yield prefix
            return
        follow, letters = self.follow, range(2 * self.n)

        def rec(prefix: tuple[int, ...]):
            ys = follow[prefix[-1]] if prefix else letters
            if len(prefix) == m - 1:  # last letter: no deeper generator
                for y in ys:
                    yield prefix + (y,)
            else:
                for y in ys:
                    yield from rec(prefix + (y,))

        yield from rec(prefix)

    def iter_sphere(self, m: int) -> Iterator[Word]:
        """All reduced words of length m, lexicographic."""
        yield from map(reduced_word, self.iter_sphere_letters(m))

    def sphere(self, m: int) -> list[Word]:
        self.check_budget(m=m)
        words = list(self.iter_sphere(m))
        assert len(words) == self.sphere_count(m)
        return words

    def iter_ball(self, R: int) -> Iterator[Word]:
        for m in range(R + 1):
            yield from self.iter_sphere(m)

    def ball(self, R: int) -> list[Word]:
        self.check_budget(R=R)
        return list(self.iter_ball(R))
