"""Constructive Tverberg partitions for hyperplane arrangements.

The solver minimizes, over a partition pi of the arrangement into r parts,
the radius f_pi(q) of the smallest ball around q touching the convex hull of
every part's dual point set (dual points move with q). f_pi(q) = 0 exactly
when q has positive regression depth with respect to every part. Descent runs
in floating point with backtracking subgradient steps; when it stalls at a
positive radius, one hyperplane is moved between tangent parts (the
partition-improvement move), which strictly lowers the attainable minimum.
Any candidate solution is rounded to a nearby rational point and verified
exactly before being returned; nothing unverified ever leaves this module.

Exact companions: an exhaustive partition oracle for small instances and the
hyperplane Tverberg depth via disjoint packing of minimal coverable subsets.
"""

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from . import linalg, linprog
from .cells import enumerate_faces
from .depth import regression_depth
from .errors import ExactBudgetExceeded, MoveNotFound, PartitionError, SolverBudgetExceeded
from .geometry import Arrangement, point


# ---------------------------------------------------------------------------
# small float helpers (descent only; everything exact happens elsewhere)

def _fsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _fadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _fscale(c, u):
    return tuple(c * a for a in u)


def _fdot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _fnorm(u):
    return math.sqrt(_fdot(u, u))


def _fsolve(A, b):
    """Gaussian elimination with partial pivoting; None when near-singular."""
    n = len(A)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        if abs(M[piv][col]) < 1e-12:
            return None
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0.0:
                f = M[r][col] / M[col][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][-1] / M[i][i] for i in range(n)]


def nearest_in_hull(points, q):
    """Nearest point of conv(points) to q, its support subset and distance.

    Subset enumeration with affine projections: exact for the sizes used here
    (parts hold at most d+1 dual points).
    """
    m = len(points)
    best = None
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            pts = [points[i] for i in subset]
            base = pts[0]
            if size == 1:
                y, coords = base, [1.0]
            else:
                basis = [_fsub(p, base) for p in pts[1:]]
                gram = [[_fdot(bi, bj) for bj in basis] for bi in basis]
                rhs = [_fdot(bi, _fsub(q, base)) for bi in basis]
                mu = _fsolve(gram, rhs)
                if mu is None:
                    continue
                y = base
                for c, bvec in zip(mu, basis):
                    y = _fadd(y, _fscale(c, bvec))
                coords = [1.0 - sum(mu)] + mu
            if all(c >= -1e-9 for c in coords):
                dist = _fnorm(_fsub(q, y))
                if best is None or dist < best[2] - 1e-15:
                    best = (y, subset, dist)
    if best is None:  # numerically degenerate; fall back to nearest input point
        dists = [(_fnorm(_fsub(q, p)), i) for i, p in enumerate(points)]
        dist, i = min(dists)
        best = (points[i], (i,), dist)
    return best


def _float_duals(arr, part, q):
    data = arr.float_data
    out = []
    for i in part:
        a, b, nn = data[i]
        s = _fdot(a, q) - b
        out.append(_fsub(q, _fscale(s / nn, a)))
    return out


@dataclass(frozen=True)
class PartState:
    indices: tuple
    duals: tuple
    nearest: tuple
    support: tuple  # positions within `indices`
    dist: float


@dataclass(frozen=True)
class TverbergState:
    arrangement: Arrangement
    partition: tuple
    q: tuple
    parts: tuple
    f: float
    tangent: tuple  # part indices achieving the radius (within tolerance)
    status: str = "ok"
    tau_tangent: float = 1e-9
    last_eta: float = 1.0


def _validate_partition(arr, partition, r=None):
    seen = set()
    for part in partition:
        if not part:
            raise PartitionError("empty part")
        for i in part:
            if not 0 <= i < len(arr):
                raise PartitionError(f"hyperplane index {i} out of range")
            if i in seen:
                raise PartitionError(f"hyperplane {i} appears in two parts")
            seen.add(i)
    if len(seen) != len(arr):
        raise PartitionError("partition does not cover the arrangement")
    if r is not None and len(partition) != r:
        raise PartitionError(f"expected {r} parts, got {len(partition)}")


def evaluate_f(arr, partition, q, tau_tangent=None):
    """Radius of the smallest ball at q meeting every part's dual hull, with per-part data."""
    _validate_partition(arr, partition)
    q = tuple(float(c) for c in q)
    parts = []
    for part in partition:
        duals = _float_duals(arr, part, q)
        y, support, dist = nearest_in_hull(duals, q)
        parts.append(PartState(tuple(part), tuple(duals), tuple(y), tuple(support), dist))
    f = max(p.dist for p in parts)
    if tau_tangent is None:
        tau_tangent = 1e-9 * (1.0 + abs(f))
    tangent = tuple(j for j, p in enumerate(parts) if p.dist >= f - tau_tangent)
    return f, parts, tangent


def make_state(arr, partition, q, tau_tangent=1e-9):
    f, parts, tangent = evaluate_f(arr, partition, q, tau_tangent)
    return TverbergState(arr, tuple(tuple(p) for p in partition), tuple(float(c) for c in q), tuple(parts), f, tangent, "ok", tau_tangent)


def descent_step(state, min_eta=1e-14):
    """One backtracking subgradient step toward the tangent hulls.

    The trial step starts from the last successful step size (times 4) and
    halves until f strictly decreases. Returns a state with status "ok" or
    "stalled" (vanishing step or vanishing averaged displacement).
    """
    if state.f <= 0:
        raise PartitionError("descent requires f > 0")
    grad = tuple(0.0 for _ in state.q)
    for j in state.tangent:
        grad = _fadd(grad, _fsub(state.q, state.parts[j].nearest))
    grad = _fscale(1.0 / len(state.tangent), grad)
    gnorm = _fnorm(grad)
    scale = 1.0 + max(abs(c) for c in state.q)
    if gnorm <= 1e-9 * scale:
        return replace(state, status="stalled")
    eta = min(4.0 * state.last_eta, 1e6)
    while eta >= min_eta:
        q2 = _fsub(state.q, _fscale(eta, grad))
        f2, parts2, tangent2 = evaluate_f(state.arrangement, state.partition, q2, state.tau_tangent)
        if f2 < state.f - 1e-15 * scale:
            return TverbergState(
                state.arrangement, state.partition, q2, tuple(parts2), f2, tangent2, "ok", state.tau_tangent, eta
            )
        eta /= 2.0
    return replace(state, status="stalled")


def repartition_move(state):
    """Move one removable dual point into a tangent part it lies outside of.

    Eligible sources are points whose removal keeps the part within reach of
    the ball; eligible targets are (loosely) tangent parts whose tangent
    hyperplane has the point on the same side as q. Picks the lowest-indexed
    admissible triple; raises MoveNotFound when none qualifies.
    """
    if state.f <= 0:
        raise PartitionError("no move needed at f = 0")
    f = state.f
    tol = 1e-7 * (1.0 + f)
    loose = [j for j, p in enumerate(state.parts) if p.dist >= f * (1.0 - 1e-3) - tol]
    for j, part in enumerate(state.parts):
        if len(part.indices) <= 1:
            continue
        for pos, h in enumerate(part.indices):
            rest = [d for k, d in enumerate(part.duals) if k != pos]
            _, _, dist_rest = nearest_in_hull(rest, state.q)
            if dist_rest > f + tol:
                continue  # ball would no longer reach this part
            v = part.duals[pos]
            for i in loose:
                if i == j:
                    continue
                ti = state.parts[i]
                axis = _fsub(state.q, ti.nearest)  # tangent hyperplane normal at y_i
                if _fdot(axis, _fsub(v, ti.nearest)) > tol * max(1.0, _fnorm(axis)):
                    new_partition = []
                    for k, pk in enumerate(state.partition):
                        pk = list(pk)
                        if k == j:
                            pk.remove(h)
                        if k == i:
                            pk.append(h)
                        new_partition.append(tuple(pk))
                    return make_state(state.arrangement, new_partition, state.q, state.tau_tangent)
    raise MoveNotFound("no admissible partition-improvement move")


# ---------------------------------------------------------------------------
# exact verification and certificates

@dataclass(frozen=True)
class TverbergCertificate:
    partition: tuple
    q: tuple  # exact rational point
    part_depths: tuple  # (value, DepthCertificate) per part
    verified: bool = True


def verify_partition(arr, partition, q):
    """Exact check RD(part, q) >= 1 for every part; certificate or None."""
    q = point(q)
    depths = []
    for part in partition:
        sub = arr.subset(part)
        val, cert = regression_depth(sub, q)
        if val < 1:
            return None
        depths.append((val, cert))
    return TverbergCertificate(tuple(tuple(p) for p in partition), q, tuple(depths))


def _part_ok_fast(arr, part, q):
    duals = [arr[i].foot(q) for i in part]
    if len(duals) <= len(q) + 2:
        return linprog.hull_membership_small(duals, q)
    return linprog.hull_membership(duals, q)


def _round_candidates(arr, q_float, support_hyperplanes):
    """Exact rational candidates near a float point, cheapest first."""
    d = len(q_float)
    out = []
    for k in range(0, 44, 4):
        cap = 2**k
        out.append(tuple(Fraction(c).limit_denominator(cap) for c in q_float))
    # snaps onto nearby flats of the support hyperplanes
    if support_hyperplanes:
        q_r = tuple(Fraction(c).limit_denominator(2**24) for c in q_float)
        near = [
            i
            for i in support_hyperplanes
            if abs(float(arr[i].residual(q_r))) <= 1e-4 * (1.0 + _fnorm(q_float)) * _fnorm([float(c) for c in arr[i].normal])
        ]
        for size in range(1, d + 1):
            for subset in combinations(near, size):
                rows = [arr[i].normal for i in subset]
                if linalg.rank(rows) < size:
                    continue
                gram = [[linalg.dot(r1, r2) for r2 in rows] for r1 in rows]
                resid = [arr[i].residual(q_r) for i in subset]
                mu = linalg.solve(gram, resid)
                if mu is None:
                    continue
                proj = list(q_r)
                for c, row in zip(mu, rows):
                    proj = [p - c * rc for p, rc in zip(proj, row)]
                out.append(tuple(proj))
    seen = set()
    uniq = []
    for cand in out:
        if cand not in seen:
            seen.add(cand)
            uniq.append(cand)
    return uniq


def _try_round(arr, partition, state):
    support = []
    for j, part in enumerate(state.parts):
        for pos in part.support:
            support.append(part.indices[pos])
    for cand in _round_candidates(arr, state.q, sorted(set(support))):
        if all(_part_ok_fast(arr, part, cand) for part in partition):
            cert = verify_partition(arr, partition, cand)
            if cert is not None:
                return cert
    return None


def _initial_center(arr):
    d = arr.dimension
    verts = []
    for subset in combinations(range(len(arr)), d):
        A = [[float(c) for c in arr[i].normal] for i in subset]
        b = [float(arr[i].offset) for i in subset]
        sol = _fsolve(A, b)
        if sol is not None:
            verts.append(tuple(sol))
    if not verts:
        return tuple(0.0 for _ in range(d))
    med = []
    for k in range(d):
        vals = sorted(v[k] for v in verts)
        med.append(vals[len(vals) // 2])
    return tuple(med)


def solve_tverberg(arr, r, seed=0, restarts=16, max_steps=10**4, exhaustive_threshold=9):
    """A verified Tverberg certificate: partition into r parts, each holding q with depth >= 1.

    Multistart descent with seeded round-robin partitions; candidate centers
    are rounded to rational points and verified exactly. Falls back to the
    exhaustive oracle on small instances; never returns unverified output.
    """
    d = arr.dimension
    n = len(arr)
    if r < 1:
        raise PartitionError("r must be >= 1")
    if n < (r - 1) * (d + 1) + 1:
        raise PartitionError(f"need at least {(r - 1) * (d + 1) + 1} hyperplanes for r={r}, d={d}")
    if any(h.weight != 1 for h in arr):
        raise PartitionError("Tverberg solver expects unit weights")

    if r == 1:
        h = arr[0]
        k = next(i for i, c in enumerate(h.normal) if c != 0)
        q = [Fraction(0)] * d
        q[k] = h.offset / h.normal[k]
        cert = verify_partition(arr, (tuple(range(n)),), tuple(q))
        if cert is None:
            raise SolverBudgetExceeded("r=1 verification failed unexpectedly")
        return cert

    core_n = min(n, r * (d + 1))
    core = list(range(core_n))
    leftovers = list(range(core_n, n))
    q0 = _initial_center(arr)
    scale = 1.0 + max(abs(c) for c in q0)
    tau_zero = 1e-7 * scale

    for restart in range(restarts):
        rng = random.Random(f"arrdepth-tverberg:{seed}:{restart}")
        order = core[:]
        rng.shuffle(order)
        partition = [tuple(sorted(order[j::r])) for j in range(r)]
        if restart == 0:
            q = q0
        else:
            q = tuple(c + rng.uniform(-1.0, 1.0) * scale for c in q0)
        state = make_state(arr.subset(core), partition, q)
        moves = 0
        tau_round = 1e-4 * scale
        window = []

        def attempt(st):
            full_partition = [list(p) for p in st.partition]
            full_partition[0] = full_partition[0] + leftovers
            return _try_round(arr, [tuple(sorted(p)) for p in full_partition], st)

        for step in range(max_steps):
            if state.f <= tau_zero or (state.f <= tau_round and step % 50 == 0):
                cert = attempt(state)
                if cert is not None:
                    return cert
                if state.f <= tau_zero:
                    tau_zero /= 10.0
                    if tau_zero < 1e-13 * scale:
                        break
            window.append(state.f)
            slow = len(window) >= 30 and state.f > 0.99 * window[-30]
            if slow:
                window.clear()
            nxt = state if slow else descent_step(state)
            if slow or nxt.status == "stalled":
                if state.f <= tau_round:
                    cert = attempt(state)
                    if cert is not None:
                        return cert
                try:
                    state = repartition_move(state)
                    moves += 1
                    if moves > 20 * n:
                        break
                except MoveNotFound:
                    break
            else:
                state = nxt
        tau_zero = 1e-7 * scale

    if n <= exhaustive_threshold:
        cert = exhaustive_tverberg(arr, r)
        if cert is not None:
            return cert
    raise SolverBudgetExceeded(f"no verified certificate after {restarts} restarts")


def _partitions_rgs(n, r):
    """Partitions of range(n) into exactly r nonempty blocks, lexicographic
    by restricted growth string."""

    def rec(i, rgs, maxval):
        if i == n:
            if maxval == r - 1:
                blocks = [[] for _ in range(r)]
                for j, b in enumerate(rgs):
                    blocks[b].append(j)
                yield tuple(tuple(b) for b in blocks)
            return
        for b in range(min(maxval + 1, r - 1) + 1):
            if r - 1 - max(maxval, b) <= n - 1 - i:  # enough slots left to reach r blocks
                yield from rec(i + 1, rgs + [b], max(maxval, b))

    if n:
        yield from rec(1, [0], 0)


def exhaustive_tverberg(arr, r, max_partitions=200_000):
    """Exhaustive oracle: first partition (in lexicographic order) admitting a
    common point of positive depth, checked at every face representative.

    The region {q : RD(B, q) >= 1} is a union of faces of the full
    arrangement, so checking one representative per face is exact.
    """
    n = len(arr)
    if r < 1 or n == 0 or r > n:
        return None
    faces = enumerate_faces(arr)
    reps = [rep for _, rep in faces]
    dual_cache = [tuple(h.foot(q) for h in arr) for q in reps]
    memo = {}

    def part_ok(part, ci):
        key = (part, ci)
        hit = memo.get(key)
        if hit is None:
            q = reps[ci]
            duals = [dual_cache[ci][i] for i in part]
            hit = linprog.hull_membership_small(duals, q) if len(duals) <= len(q) + 2 else linprog.hull_membership(duals, q)
            memo[key] = hit
        return hit

    count = 0
    for partition in _partitions_rgs(n, r):
        count += 1
        if count > max_partitions:
            raise ExactBudgetExceeded(f"more than {max_partitions} partitions")
        for ci in range(len(reps)):
            if all(part_ok(part, ci) for part in partition):
                cert = verify_partition(arr, partition, reps[ci])
                if cert is not None:
                    return cert
    return None


def _good_pieces(n, d, contains):
    """Coverable subsets of size <= d+1 (enough by Caratheodory), as bitmasks."""
    return [
        sum(1 << i for i in subset)
        for size in range(1, d + 2)
        for subset in combinations(range(n), size)
        if contains(subset)
    ]


def coverable_pieces(arr, q):
    """Minimal sets of hyperplanes whose dual points have q in their convex hull, as bitmasks.

    The dual point of h is q - (s_h/|a_h|^2) a_h, with residual s_h = a_h.q - b_h,
    so q lies in the hull of S's dual points iff some h in S has s_h = 0, or
    some nonzero x >= 0 has sum x_h s_h a_h = 0 (Gordan's alternative). Such
    an x is a sum of signed circuits of the normals whose signs agree with the
    residual signs. The minimal coverable sets are therefore the singletons
    {h} with s_h = 0 and the circuit supports free of them whose positive part
    is exactly their set of positive residuals.
    """
    pos, zero = arr.sign_masks(q)
    pieces = [1 << i for i in range(len(arr)) if zero >> i & 1]
    pieces += [supp for supp, plus in arr.circuits if not supp & zero and plus == supp & pos]
    return pieces


def max_packing(n, pieces):
    """Maximum number of disjoint pieces (bitmasks over range(n)).

    Memoized recursion over the masks reachable from the union of the
    pieces: the lowest element of a mask is either left unpacked or covered
    by a piece whose lowest element it is and which fits in the mask. Only
    masks reachable that way are ever evaluated, not all 2^n.
    """
    by_low = {}
    union = 0
    for piece in pieces:
        by_low.setdefault(piece & -piece, []).append(piece)
        union |= piece
    memo = {0: 0}

    def best(mask):
        hit = memo.get(mask)
        if hit is None:
            low = mask & -mask
            hit = best(mask ^ low)
            for piece in by_low.get(low, ()):
                if piece & mask == piece:
                    hit = max(hit, best(mask ^ piece) + 1)
            memo[mask] = hit
        return hit

    return best(union)


def hyperplane_tverberg_depth(arr, q, exact_threshold=12):
    """Largest r admitting a partition into r parts, each with RD(part, q) >= 1.

    A part works iff q lies in the convex hull of its dual points, which is
    monotone under adding hyperplanes; the maximum over partitions therefore
    equals the maximum number of disjoint minimal coverable sets. Those are
    read from the residual signs of q and the cached signed circuits of the
    normals (`coverable_pieces`), and packed exactly by `max_packing`. Beyond
    the exact threshold the raised ExactBudgetExceeded carries a greedy lower
    bound: pieces taken smallest first, then in lexicographic order, when
    disjoint from those already taken.
    """
    n = len(arr)
    q = point(q)
    if n == 0:
        return 0
    pieces = coverable_pieces(arr, q)
    if n > exact_threshold:
        used = bound = 0
        for piece in sorted(pieces, key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1])):
            if not piece & used:
                used |= piece
                bound += 1
        raise ExactBudgetExceeded(f"n={n} exceeds exact threshold {exact_threshold}", bound=bound)
    return max_packing(n, pieces)


def tverberg_point_depth(points, q, exact_threshold=12):
    """Tverberg depth of q in a point set: the dual-side companion measure."""
    pts = [point(p) for p in points]
    q = point(q)
    n = len(pts)
    if n == 0:
        return 0

    def contains(subset):
        return linprog.hull_membership_small([pts[i] for i in subset], q)

    if n > exact_threshold:
        raise ExactBudgetExceeded(f"n={n} exceeds exact threshold {exact_threshold}")
    d = len(q)
    return max_packing(n, _good_pieces(n, d, contains))
