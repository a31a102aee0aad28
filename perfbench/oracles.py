"""Answer oracles that do not use `nestedstack`.

Membership and viable-prefix scanners for every language the benchmark
queries, closed forms for configuration-graph and Cayley-ball sizes, and an
independent model of the benchmark's groups that checks separator reports
as Menger certificates.  Words are tuples of one-character letters.
"""

from collections import deque
from math import comb

# --- languages ----------------------------------------------------------


def anbn_prefix(word):
    """Length of the longest prefix of `word` that extends to a^n b^n."""
    a = b = 0
    for i, x in enumerate(word):
        if x == "a" and b == 0:
            a += 1
        elif x == "b" and b < a:
            b += 1
        else:
            return i
    return len(word)


def anbn(word):
    n = len(word) // 2
    return len(word) % 2 == 0 and tuple(word) == ("a",) * n + ("b",) * n


def quad_prefix(word):
    """Longest prefix extending to a member of (a^n b^n c^n d^n)*, n >= 1.

    Inside a block the counts of b, c and d may each reach the count of a,
    and each letter may follow only a completed run of the letter before."""
    n = j = k = l = 0
    for i, x in enumerate(word):
        if x == "a" and (j == 0 or l == n):
            if l == n > 0:
                n = j = k = l = 0
            n += 1
        elif x == "b" and 0 < n and j < n and k == 0:
            j += 1
        elif x == "c" and 0 < n == j and k < n and l == 0:
            k += 1
        elif x == "d" and 0 < n == k and l < n:
            l += 1
        else:
            return i
    return len(word)


def quad(word):
    """Membership in (a^n b^n c^n d^n)*, n >= 1, by splitting into blocks."""
    w = "".join(word)
    i = 0
    while i < len(w):
        n = 0
        while i + n < len(w) and w[i + n] == "a":
            n += 1
        if n == 0 or w[i : i + 4 * n] != "a" * n + "b" * n + "c" * n + "d" * n:
            return False
        i += 4 * n
    return True


_BRACKETS = {"b": "a", "d": "c"}


def dyck2_prefix(word):
    stack = []
    for i, x in enumerate(word):
        if x in ("a", "c"):
            stack.append(x)
        elif stack and stack[-1] == _BRACKETS[x]:
            stack.pop()
        else:
            return i
    return len(word)


def dyck2(word):
    stack = []
    for x in word:
        if x in ("a", "c"):
            stack.append(x)
        elif stack and stack[-1] == _BRACKETS[x]:
            stack.pop()
        else:
            return False
    return not stack


def zcount(word):
    return word.count("a") == word.count("A")


def free_reduce(word):
    """Free reduction over letters with swapcase formal inverses."""
    out = []
    for x in word:
        if out and out[-1] == x.swapcase():
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def free2(word):
    return not free_reduce(word)


def palindrome(word):
    return len(word) % 2 == 0 and tuple(word) == tuple(reversed(word))


def every_prefix(word):
    return len(word)


BLOCK4 = {"p": "abcd", "b": "b", "c": "c", "d": "d"}
COLLAPSE_PQ = {"p": "a", "q": "a", "b": "b", "c": "c", "d": "d"}


def apply_hom(images, word):
    return tuple(y for x in word for y in images[x])


LANGUAGES = {
    "anbn": anbn,
    "anbncndn": quad,
    "dyck2": dyck2,
    "zcount": zcount,
    "free2": free2,
    "palindrome": palindrome,
    "block4": lambda w: quad(apply_hom(BLOCK4, w)),
    "collapse_pq": lambda w: quad(apply_hom(COLLAPSE_PQ, w)),
}

# Viable-prefix scanners for the deterministic machines: a deterministic
# run (or lift) stops exactly where the input stops extending to a member,
# because every configuration these machines reach can still accept.
PREFIXES = {
    "anbn": anbn_prefix,
    "anbncndn": quad_prefix,
    "dyck2": dyck2_prefix,
    "zcount": every_prefix,
    "free2": every_prefix,
}

# --- closed forms -----------------------------------------------------------
#
# Configuration graphs, horizon h = max tree edges, no depth limit.
#
# anbn (counter PDA 1 -a/push-> 2, 2 -a/push-> 2, 2,3 -b/pop-> 3):
#   vertices (1,e), (2,x^k) k=1..h, (3,x^k) k=0..h-1            -> 2h+1
#   edges 1->2 (1), 2->2 (h-1), 2->3 (h), 3->3 (h-1)            -> 3h-1
#   classes {1,(3,e)}, {(2,x^k),(3,x^k)} k<h, {(2,x^h)}         -> h+1,
#   joined in a path (h quotient edges, a tree); each class of two
#   is joined through (2,x^(k+1)), so the largest class diameter is 2.
# zcount (F -a/A-> P/N and back, counting with a bottom marker):
#   vertices F plus a stack of k = 1..h cells per sign           -> 2h+1
#   edges per sign: push from F, h-1 pushes, h-1 pops, pop to F  -> 4h
# anbncndn (branch y x^n, pointer depth d; root = depth 0):
#   (1,e); (2,n,n+1) n=0..h-1; (3,n,d) 1<=d<=n<h; (4,n,d) 2<=d<=n+1, n<h;
#   (4,0,1)                                        -> 1 + h + 2*h(h-1)/2 + 1
#   edges: 1->2, 4->1 (2), pushes, b from 2, c from 3 at d=1, last pops
#   (4(h-1)), downs in 3 and ups in 4 (2 * (h-1)(h-2)/2)          -> h^2+h
#   silent edges 4->1->2 give a longest silent run of 2; every n closes a
#   cycle through (1,e), so the undirected graph has cycles for h >= 2.


def anbn_graph(h):
    return 2 * h + 1, 3 * h - 1


def zcount_graph(h):
    return 2 * h + 1, 4 * h


def quad_graph(h):
    return h * h + 2, h * h + h


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def dyck2_count(max_len):
    """Words of length <= max_len over two bracket pairs: C_m * 2^m each."""
    return sum(catalan(m) * 2**m for m in range(max_len // 2 + 1))


def quad_members(max_len):
    """Every member of length <= max_len, ordered by (length, word)."""

    def compositions(m):
        if m == 0:
            yield ()
        for first in range(1, m + 1):
            for rest in compositions(m - first):
                yield (first,) + rest

    words = [
        tuple("".join("a" * n + "b" * n + "c" * n + "d" * n for n in parts))
        for m in range(max_len // 4 + 1)
        for parts in compositions(m)
    ]
    return sorted(words, key=lambda w: (len(w), w))


def quad_count(max_len):
    """Members of length 4m are compositions of m: 2^(m-1) for m >= 1."""
    return 1 + sum(2 ** (m - 1) for m in range(1, max_len // 4 + 1))


# --- groups -----------------------------------------------------------------
#
# An independent model with the package's element encodings: abelian
# elements are exponent tuples, free elements reduced letter tuples, the
# order-two table group `z2.grp` has elements "e" and "a", and products are
# pairs.  Generators are relabelled a, b, c, ... across product factors with
# uppercase inverses; an involution keeps a single letter.


class Group:
    def __init__(self, kind, rank=0, left=None, right=None):
        self.kind, self.rank, self.left, self.right = kind, rank, left, right

    def pairs(self):
        """Generator pairs (letter, inverse) of this factor in spec order."""
        if self.kind in ("free", "abelian"):
            return [(chr(97 + i), chr(65 + i)) for i in range(self.rank)]
        if self.kind == "z2":
            return [("a", "a")]
        return self.left.pairs() + self.right.pairs()

    def identity(self):
        if self.kind == "abelian":
            return (0,) * self.rank
        if self.kind == "free":
            return ()
        if self.kind == "z2":
            return "e"
        return (self.left.identity(), self.right.identity())

    def moves(self):
        """The generator actions as a list of functions on elements."""
        if self.kind == "abelian":
            out = []
            for i in range(self.rank):
                for delta in (1, -1):
                    out.append(lambda g, i=i, s=delta: g[:i] + (g[i] + s,) + g[i + 1 :])
            return out
        if self.kind == "free":
            return [lambda g, x=x: free_reduce(g + (x,)) for p in self.pairs() for x in p]
        if self.kind == "z2":
            return [lambda g: "a" if g == "e" else "e"]
        left = [lambda g, m=m: (m(g[0]), g[1]) for m in self.left.moves()]
        right = [lambda g, m=m: (g[0], m(g[1])) for m in self.right.moves()]
        return left + right

    def element(self, word):
        """Element spelled by a word in the relabelled generators."""
        if self.kind == "product":
            n_left = len(self.left.pairs())
            lw, rw = [], []
            for x in word:
                i = ord(x.lower()) - 97
                if i < n_left:
                    lw.append(x)
                else:
                    rw.append(chr(ord(x) - n_left))
            return (self.left.element(lw), self.right.element(rw))
        if self.kind == "abelian":
            g = [0] * self.rank
            for x in word:
                g[ord(x.lower()) - 97] += 1 if x.islower() else -1
            return tuple(g)
        if self.kind == "free":
            return free_reduce(tuple(word))
        return "a" if len(word) % 2 else "e"

    def distance(self, g, h):
        if self.kind == "abelian":
            return sum(abs(x - y) for x, y in zip(g, h))
        if self.kind == "free":
            i = 0
            while i < min(len(g), len(h)) and g[i] == h[i]:
                i += 1
            return len(g) + len(h) - 2 * i
        if self.kind == "z2":
            return 0 if g == h else 1
        return self.left.distance(g[0], h[0]) + self.right.distance(g[1], h[1])

    def ball_size(self, r):
        return sum(self.sphere_size(d) for d in range(r + 1))

    def sphere_size(self, d):
        if d < 0:
            return 0
        if self.kind == "free":
            return 1 if d == 0 else 2 * self.rank * (2 * self.rank - 1) ** (d - 1)
        if self.kind == "abelian":
            # points of Z^n with |x|_1 = d: sum over k nonzero coordinates
            if d == 0:
                return 1
            return sum(
                comb(self.rank, k) * 2**k * comb(d - 1, k - 1)
                for k in range(1, self.rank + 1)
            )
        if self.kind == "z2":
            return 1 if d in (0, 1) else 0
        return sum(
            self.left.sphere_size(i) * self.right.sphere_size(d - i) for i in range(d + 1)
        )


def parse_group(spec):
    tokens = spec.split()

    def parse(pos):
        head = tokens[pos]
        if head in ("free", "abelian"):
            return Group(head, int(tokens[pos + 1])), pos + 2
        if head == "finite":
            return Group("z2"), pos + 2
        left, pos = parse(pos + 1)
        right, pos = parse(pos)
        return Group("product", left=left, right=right), pos

    return parse(0)[0]


def ends_count(group, radius):
    """Unbounded components of the window minus the radius ball: the next
    sphere for a free group, two for Z, one for Z^n with n >= 2."""
    if group.kind == "free":
        return group.sphere_size(radius + 1)
    if group.kind == "abelian":
        return 2 if group.rank == 1 else 1
    raise ValueError("no closed form for this group")


def check_separator(group, report, center1, center2, radius, window):
    """Menger certificate: `cut_size` vertex-disjoint paths joining the
    balls inside the window, and a cut of that size whose removal leaves
    them disconnected.  Returns an error string or None."""
    ident = group.identity()
    c1, c2 = group.element(center1), group.element(center2)
    moves = group.moves()

    def in_window(v):
        return group.distance(ident, v) <= window

    def in_ball(v):
        return group.distance(c1, v) <= radius or group.distance(c2, v) <= radius

    def touches(v, c):
        return any(group.distance(c, m(v)) <= radius for m in moves)

    paths = report.disjoint_paths
    if len(paths) != report.cut_size or len(report.cut_set) != report.cut_size:
        return f"cut_size {report.cut_size} with {len(paths)} paths, {len(report.cut_set)} cut vertices"
    seen = set()
    for path in paths:
        if not path:
            return "empty path"
        if not touches(path[0], c1) or not touches(path[-1], c2):
            return "path does not join the balls"
        for u, v in zip(path, path[1:]):
            if not any(m(u) == v for m in moves):
                return "path steps along a non-edge"
        for v in path:
            if v in seen:
                return "paths share a vertex"
            if not in_window(v) or in_ball(v):
                return "path leaves the window interior"
            seen.add(v)
    cut = set(report.cut_set)
    if not all(in_window(v) and not in_ball(v) for v in cut):
        return "cut vertex outside the window interior"
    start = list(_ball(moves, c1, radius))
    reach = set(start)
    queue = deque(start)
    while queue:
        v = queue.popleft()
        for m in moves:
            w = m(v)
            if w not in reach and w not in cut and in_window(w):
                if group.distance(c2, w) <= radius:
                    return "removing the cut leaves the balls connected"
                reach.add(w)
                queue.append(w)
    return None


def _ball(moves, center, radius):
    dist = {center: 0}
    queue = deque([center])
    while queue:
        g = queue.popleft()
        if dist[g] < radius:
            for m in moves:
                h = m(g)
                if h not in dist:
                    dist[h] = dist[g] + 1
                    queue.append(h)
    return dist


def qi_violations(group, target, samples, k, density_window):
    """Counts of (lower, upper, density) violations that `qi_check` must
    report for the given samples."""
    lower = upper = 0
    points = [(group.element(x), target.element(y)) for x, y in samples]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = group.distance(points[i][0], points[j][0])
            d_image = target.distance(points[i][1], points[j][1])
            lower += d_image < d / k - k
            upper += d_image > k * d + k
    density = 0
    if density_window is not None:
        moves = target.moves()
        window = _ball(moves, target.identity(), density_window)
        frontier = {y for _, y in points if y in window}
        covered = set(frontier)
        for _ in range(int(k)):
            frontier = {m(g) for g in frontier for m in moves} & window.keys() - covered
            covered |= frontier
        density = len(window) - len(covered)
    return lower, upper, density
