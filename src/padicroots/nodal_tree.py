"""The labelled rooted tree of digit-shifted, rescaled polynomials.

The node at the n-digit prefix mu is h(x) = p^(-S) g(mu + p^n x), g the
tree's input (ScaledPoly) and S the precision consumed so far.  It stores only
its reduction h mod p; shift_rescale reads its Taylor data from g itself.
Its precision k_local is k - S, k the tree's cap.  Children hang off
degenerate roots of the reduction whose s-value lies in {2, ..., k_local - 1};
non-degenerate roots are harvested at every node and Hensel-lift to
distinct Z_p roots of g.  A degenerate digit whose prefix a
RepeatedRootCut covers gets no child: its prefix sits on the digit chain of
a repeated root, where no simple root is.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .arith import INFINITY, base_p_digits, is_prime, ord_int
from .errors import DivisibilityViolation, InvalidParams, InvariantViolated
from .fp import roots_fp_exhaustive, roots_fp_memo
from .sparsepoly import ScaledPoly, SparsePoly, taylor_coeffs_mod

M_P = {2: 4, 3: 3}  # nodal degree cap by prime; 2 for p >= 5
GUARD_DEPTH = 32  # no workload tree is deeper than 4; only a wrong cut goes this deep


def nodal_degree_cap(p: int) -> int:
    return M_P.get(p, 2)


def s_value(u: list[int], p: int, k: int) -> int:
    """min_i (i + ord_p u_i) over the Taylor coefficients u of a node at a digit.

    Values >= k cannot be certified at precision k and are returned as k
    (callers only compare against thresholds below k), so u needs only the
    indices i < k.  Terminates early once the index alone exceeds the
    running minimum.
    """
    best = k
    for i, ui in enumerate(u):
        if i >= best:
            break
        contribution = i + min(ord_int(ui, p), k)
        if contribution < best:
            best = contribution
    return best


def shift_rescale(g: ScaledPoly, prefix: int, n: int, S: int, p: int, prec: int) -> list[int]:
    """Taylor coefficients u_0..u_(prec-1) mod p^prec of the node
    h(x) = p^(-S) g(mu + p^n x) at the digit z, prefix = mu + z p^n.

    u_j = U_j p^(n j - S), U_j the Taylor coefficient of g at prefix.  This
    precision suffices: s_value at prec reads j + ord_p u_j only below prec,
    and the child's reduction only u_j p^j mod p^(s + 1) with s < prec.
    p^S divides every U_j p^(n j), or DivisibilityViolation: h is integral.
    """
    mod = p ** (S + prec)
    ps = p ** S
    u = []
    for j, U in enumerate(taylor_coeffs_mod(g, prefix, p, S + prec, prec - 1)):
        c = U * pow(p, n * j, mod) % mod
        if c % ps:
            raise DivisibilityViolation(f"Taylor coefficient {j} at {prefix} is not 0 mod {p}^{S}")
        u.append(c // ps)
    return u


@dataclass(frozen=True)
class RepeatedRootCut:
    """Digit prefixes of at least `depth` digits that agree with a Z_p root
    of h(y) = den y^r - num (num, den units, ell = ord_p r) in every digit.

    Hensel at ord_p h' = ell: for n >= ell + 1 digits, h(prefix) = 0 mod
    p^(n + ell) exactly when the prefix agrees with a root of h in n digits,
    so one residue test decides it.
    """

    depth: int
    num: int
    den: int
    r: int
    ell: int

    def covers(self, prefix: int, n: int, p: int) -> bool:
        """prefix, read as n digits, lies on a root of h (needs depth > ell)."""
        if n < self.depth:
            return False
        m = p ** (n + self.ell)
        return (self.den * pow(prefix, self.r, m) - self.num) % m == 0


@dataclass
class NodalNode:
    """A digit-tree node; its precision k_local is k - s_consumed, k the tree's cap."""

    mu: int  # the digit prefix zeta_0 + zeta_1 p + ... + zeta_{depth-1} p^(depth-1)
    depth: int
    reduction: SparsePoly  # the node polynomial mod p, coefficients in [0, p)
    s_consumed: int
    s_step: int = 0  # s-value of the digit that made this node; 0 at the root
    nondegenerate_roots: list[int] = field(default_factory=list)
    degenerate_roots: list[int] = field(default_factory=list)
    children: list["NodalNode"] = field(default_factory=list)

    @property
    def n_p(self) -> int:
        return len(self.nondegenerate_roots)

    def digits(self, p: int) -> tuple[int, ...]:
        """The digit path zeta_0, ..., zeta_{depth-1} of the prefix mu."""
        return base_p_digits(self.mu, p, self.depth)

    def walk(self):
        """Preorder over the subtree; iterative, so digit chains of any depth
        are safe."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass
class NodalTree:
    p: int
    k: int | None  # None: uncapped
    root: NodalNode
    # 1 + max of s_consumed + s over the expanded digits: the least k at which
    # this tree is mature; above k when a digit is blocked at a finite k
    k_mature: int

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self.root.walk())


def build_tree(
    f: ScaledPoly, p: int, k: int | None = None, root_digits: str = "all",
    cut: RepeatedRootCut | None = None, plan: Callable | None = None,
) -> NodalTree:
    """Construct the full tree at precision k >= 1 (InvalidParams for a
    smaller k or a composite p), or uncapped when k is None.  A node's
    precision k_local is k - s_consumed, infinite in an uncapped tree.

    root_digits='nonzero' restricts depth-0 expansion and harvesting to
    digits != 0 (the valuation-0 root sweep); 'one' restricts depth 0 to
    the digit 1 (most-significant-digit-1 roots); deeper digits are never
    restricted.  A degenerate digit whose prefix `cut` covers is listed in
    degenerate_roots but gets no child.  Every other degenerate digit is
    expanded: a Taylor expansion of f's parts at its prefix
    (shift_rescale) gives its s-value and its child's reduction.  The
    expansion's precision P is the digit's own.  s is at most the digit's
    multiplicity, so at most deg, the degree of the node's reduction, and
    s_value reads it exactly below P.  So P starts at min(k_local, deg + 1,
    6) and doubles, up to min(k_local, deg + 1), while s >= P; the digit is
    blocked when s >= k_local, which an uncapped tree never is.  The depth
    and s-sum invariants, and for trinomial inputs the degree collapse
    below a nonzero first digit, are checked as each child is made
    (InvariantViolated).  The depth bound is (k - 1) // 2; an uncapped tree
    reads its k from plan() once a chain first passes GUARD_DEPTH, and stops
    there without a plan.  The root node's F_p scan rejects f = 0 mod p and
    a p over the desk cap; the scans below the root go through the memo of
    fp.roots_fp_memo.
    """
    if k is not None and k < 1:
        raise InvalidParams(f"precision exponent must be >= 1, got {k}")
    if not is_prime(p):
        raise InvalidParams(f"{p} is not prime")
    degree_cap = nodal_degree_cap(p) if len(f.parts) == 3 else None
    cap, max_depth = (INFINITY, GUARD_DEPTH) if k is None else (k, (k - 1) // 2)
    k_mature = 1

    root = NodalNode(mu=0, depth=0, reduction=f.reduction(), s_consumed=0)
    stack = [root]
    while stack:
        node = stack.pop()
        k_local = cap - node.s_consumed
        if node.depth:
            roots = roots_fp_memo(node.reduction, p)
        else:
            roots = roots_fp_exhaustive(f, p)
        if node.depth == 0 and root_digits == "nonzero":
            roots = [(z, d) for z, d in roots if z != 0]
        elif node.depth == 0 and root_digits == "one":
            roots = [(z, d) for z, d in roots if z == 1]
        for z, degenerate in roots:
            if not degenerate:
                node.nondegenerate_roots.append(z)
                continue
            node.degenerate_roots.append(z)
            prefix = node.mu + z * p ** node.depth
            if cut is not None and cut.covers(prefix, node.depth + 1, p):
                continue
            top = min(k_local, node.reduction.degree + 1)
            prec = min(top, 6)
            while True:
                u = shift_rescale(f, prefix, node.depth, node.s_consumed, p, prec)
                s = s_value(u, p, prec)
                if s < prec or prec == top:
                    break
                prec = min(2 * prec, top)
            k_mature = max(k_mature, node.s_consumed + s + 1)
            if not 2 <= s <= k_local - 1:
                continue
            # p^(-s) h(z + p x) has coefficients u_j p^(j - s), units only at j <= s
            ps = p ** s
            reduction = SparsePoly(
                tuple((j, c) for j in range(s + 1) if (c := u[j] * p ** j // ps % p))
            )
            child = NodalNode(
                mu=prefix,
                depth=node.depth + 1,
                reduction=reduction,
                s_consumed=node.s_consumed + s,
                s_step=s,
            )
            if child.depth > max_depth and plan is not None:
                max_depth, plan = (plan().k - 1) // 2, None  # at most once per tree
            if child.depth > max_depth:
                raise InvariantViolated(f"depth bound exceeded at {child.digits(p)}")
            if child.s_consumed < 2 * child.depth:
                raise InvariantViolated(f"s-sum bound violated at {child.digits(p)}")
            if degree_cap is not None and child.mu % p != 0 and reduction.degree > degree_cap:
                raise InvariantViolated(
                    f"nodal degree {reduction.degree} exceeds cap {degree_cap} at {child.digits(p)}"
                )
            node.children.append(child)
            stack.append(child)
    return NodalTree(p=p, k=k, root=root, k_mature=k_mature)


@dataclass
class StabilizedTree:
    """An uncapped tree, which is always mature: stabilized is always True
    and k_used is tree.k_mature.  Both stay for perfbench/tracer.py."""

    tree: NodalTree
    k_used: int  # the least k at which the tree is mature
    stabilized: bool


def stabilized_tree(
    f: ScaledPoly, p: int, root_digits: str = "all",
    cut: RepeatedRootCut | None = None, plan: Callable | None = None,
) -> StabilizedTree:
    """The uncapped digit tree of f, which is mature.  A capped tree is
    build_tree(f, p, k).

    A mature tree (no precision-blocked site) is exact.  Every s-value it
    computed is below its node's k_local and below the precision of the
    digit's last expansion, and there s_value returns the true value: the
    contributions it truncates are at least that precision, and so are
    the Taylor indices it drops.  Each node's reduction, read off u_j mod
    p^(s+1), is exact, and so are its F_p roots and their degenerate/simple
    split.  The cut test reads only the digit prefix.  At any k from
    k_used = tree.k_mature on, the same digits therefore give the same
    s-values, children, cuts and root lists, and no node is added, because
    no site was blocked: the tree and its count are the same at every
    k >= k_used.  Along the digit path of a simple root each degenerate
    digit has s >= 2 (s = 1 leaves a unit constant term) and makes a child,
    unless it is blocked, which maturity rules out, or cut, which the next
    paragraph rules out.  So the path ends at a simple root of some node's
    reduction, which Hensel-lifts to that root alone.

    The cut ends the digit chains of repeated roots, which never end
    otherwise: the roots tau of x^r = T at the valuation v that
    solve_trinomial cuts at depth N = max(M, ord_p r) + 1.  It is sound: a
    simple root at valuation v shares at most M < N unit-part digits with
    any tau (trinomial.cut_depth), and since N > ord_p r, RepeatedRootCut's
    Hensel test covers a prefix of n >= N digits exactly when it agrees
    with a tau in n digits, so no simple root lies above a cut digit.

    With the cut, the uncapped tree is finite.  An endless chain of expanded
    digits converges to some zeta in Z_p, a unit, since the solver's trees
    start at a nonzero digit.  Each node on it has a degenerate root, so a
    reduction of degree >= 2, which counts the roots of g in the node's disc
    with multiplicity: zeta is a repeated root of g at valuation v, whose
    chain the cut ends.  An uncapped digit expands up to precision
    deg + 1 > s, so no site is blocked: the tree is mature, with k_used =
    tree.k_mature.  A wrong cut would let a chain run on; build_tree's
    guard, reading the paper's k from plan, raises InvariantViolated
    instead.
    """
    tree = build_tree(f, p, root_digits=root_digits, cut=cut, plan=plan)
    return StabilizedTree(tree=tree, k_used=tree.k_mature, stabilized=True)
