"""Well-founded ordinal trees and the labelled-tree sheaf they induce.

Three layers live here.  Plain finite trees (``BrouwerTree``) with the k-map
that turns each tree into a generator set for the sequence space, giving an
alternative presentation of its covers; an exhaustive comparison of that
presentation against the generated topology (:func:`alt_baire_equiv_check`);
and labelled trees over an arbitrary refinable space, with restriction, the
covering-based equivalence a :class:`TreeQuotient` holds, and the battery of
sheaf/algebra law checks in :func:`bo_sheaf_checks`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .forcing import cc_refine
from .site import FormalSpace, Sieve, element_key, sieves_on
from .spaces import TruncatedSpace, baire_space

# ---------------------------------------------------------------- ordinal trees


@dataclass(frozen=True)
class BrouwerTree:
    """Finite ordinal tree: a leaf, or a node with one subtree per branch."""

    children: tuple = ()

    def __post_init__(self):
        if not all(isinstance(c, BrouwerTree) for c in self.children):
            raise TypeError("children must be trees")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def depth(self) -> int:
        return 0 if not self.children else 1 + max(c.depth for c in self.children)

    def __repr__(self) -> str:
        if not self.children:
            return "*"
        return "sup(" + ", ".join(map(repr, self.children)) + ")"


LEAF = BrouwerTree()


def k_map(tree: BrouwerTree, branch: int) -> frozenset:
    """Generator set of the basic cover a tree denotes.

    The leaf denotes ``{()}``; a node prefixes each child's set with the
    child's index and takes the union.
    """
    if tree.is_leaf:
        return frozenset({()})
    if len(tree.children) != branch:
        raise ValueError(
            f"node has {len(tree.children)} subtrees, expected {branch}"
        )
    out = set()
    for i, child in enumerate(tree.children):
        out.update((i,) + w for w in k_map(child, branch))
    return frozenset(out)


def enumerate_trees(branch: int, depth: int) -> tuple:
    """All trees of depth at most ``depth``, leaf first, deterministic order."""
    level = (LEAF,)
    for _ in range(depth):
        sups = tuple(
            BrouwerTree(children)
            for children in itertools.product(level, repeat=branch)
        )
        level = (LEAF,) + sups
    return level


def graft(tree: BrouwerTree, grafts: Mapping, path: tuple = ()) -> BrouwerTree:
    """Replace each leaf by the tree assigned to its root path, if any."""
    if tree.is_leaf:
        return grafts.get(path, tree)
    return BrouwerTree(
        tuple(graft(c, grafts, path + (i,)) for i, c in enumerate(tree.children))
    )


def descend_tree(tree: BrouwerTree, path: tuple) -> BrouwerTree:
    """Subtree along a path; stops at a leaf reached early."""
    node = tree
    for i in path:
        if node.is_leaf:
            return node
        node = node.children[i]
    return node


# ------------------------------------------- alternative cover presentation


@dataclass(frozen=True)
class AltBaireReport:
    """Outcome of comparing tree-generated covers with the topology."""

    branch: int
    depth: int
    tree_count: int
    checked_sieves: int
    cover_disagreements: tuple
    union_failures: tuple
    restriction_failures: tuple

    @property
    def ok(self) -> bool:
        return not (
            self.cover_disagreements
            or self.union_failures
            or self.restriction_failures
        )


def tree_cover_test(u, sieve: Sieve, images) -> BrouwerTree | None:
    """First tree whose translated cover sits inside the sieve, or None.

    ``images`` holds the ``(tree, k_map(tree))`` pairs, in enumeration
    order, of every tree the open ``u`` has depth left for.
    """
    for tree, image in images:
        if all(u + w in sieve.members for w in image):
            return tree
    return None


def _sieve_family(space: TruncatedSpace, u, images, cap: int) -> list:
    basis = space.basis
    out, seen = [], set()

    def add(sieve: Sieve) -> None:
        if sieve.generators not in seen:
            seen.add(sieve.generators)
            out.append(sieve)

    for sieve in sieves_on(basis, u, cap=cap):
        add(sieve)
    for _, image in images[: max(1, cap // 2)]:
        gens = tuple(sorted((u + w for w in image), key=element_key))
        add(Sieve.from_generators(basis, u, gens))
        if len(gens) > 1:
            add(Sieve.from_generators(basis, u, gens[1:]))
    return out


def alt_baire_equiv_check(branch: int, depth: int) -> AltBaireReport:
    """Exhaustively compare the two cover presentations at a truncation.

    For every basic open and a deterministic family of sieves on it, the
    generated topology's verdict must agree with "some tree's translated
    cover fits inside the sieve".  The closure properties of the tree image
    family are checked alongside: grafting trees onto the leaves of a tree
    realises unions of member-indexed covers, and descending realises
    restrictions.  Each tree's image is computed once per depth budget, and
    the cover test, the sieve family and the union pass read it from there.
    """
    space = baire_space(branch, depth)
    images_by_budget = {
        d: tuple((t, k_map(t, branch)) for t in enumerate_trees(branch, d))
        for d in range(depth + 1)
    }

    disagreements = []
    checked = 0
    for u in space.basis.elements:
        images = images_by_budget[depth - len(u)]
        for sieve in _sieve_family(space, u, images, 160):
            checked += 1
            covered = space.topology.cover(u, sieve).covered
            witness = tree_cover_test(u, sieve, images)
            if covered != (witness is not None):
                disagreements.append((u, sieve.generators, covered, witness))

    union_failures = []
    image_sets = {image for _, image in images_by_budget[depth]}
    for tree, image in images_by_budget[max(0, depth - 1)]:
        leaves = sorted(image, key=element_key)
        options = [images_by_budget[depth - len(w)] for w in leaves]
        for combo in itertools.islice(itertools.product(*options), 64):
            grafts = {w: t for w, (t, _) in zip(leaves, combo)}
            union = frozenset(
                w + x for w, (_, sub) in zip(leaves, combo) for x in sub
            )
            composed = graft(tree, grafts)
            if k_map(composed, branch) != union or union not in image_sets:
                union_failures.append((tree, grafts, union))

    restriction_failures = []
    for tree, image in images_by_budget[depth]:
        for v in space.basis.elements:
            part = descend_tree(tree, v)
            sub = k_map(part, branch)
            inside = all(
                any(s[:j] in image for j in range(len(s) + 1))
                for s in (v + w for w in sub)
            )
            if len(v) + part.depth > depth or not inside:
                restriction_failures.append((tree, v, part))

    return AltBaireReport(
        branch=branch,
        depth=depth,
        tree_count=len(images_by_budget[depth]),
        checked_sieves=checked,
        cover_disagreements=tuple(disagreements),
        union_failures=tuple(union_failures),
        restriction_failures=tuple(restriction_failures),
    )


# ------------------------------------------------------------ labelled trees


class NotBelowRoot(ValueError):
    def __init__(self, q, root):
        self.q, self.root = q, root
        super().__init__(f"{q!r} does not lie below the root {root!r}")


@dataclass(frozen=True)
class LabelledTree:
    """Node label (root, pieces, flags) plus one subtree per flagged edge.

    ``pieces`` is a disjoint family below the root whose downset covers it,
    ``flags`` marks each piece 0 or 1, and ``edges`` holds ``((q, n), sub)``
    pairs for every flagged piece q and branch index n.  Build through
    :func:`labelled_tree`, which validates all of this against a space;
    instances are inert data afterwards.
    """

    root: object
    pieces: tuple
    flags: tuple
    edges: tuple = ()

    @property
    def depth(self) -> int:
        if not self.edges:
            return 0
        return 1 + max(sub.depth for _, sub in self.edges)

    def flag(self, q) -> int:
        return self.flags[self.pieces.index(q)]

    def child(self, q, n) -> "LabelledTree":
        for (piece, index), sub in self.edges:
            if piece == q and index == n:
                return sub
        raise KeyError((q, n))

    def piece_over(self, basis, r):
        """The unique piece above ``r``, or None when no piece dominates it."""
        for q in self.pieces:
            if basis.leq(r, q):
                return q
        return None


def labelled_tree(
    space: FormalSpace,
    branch: int,
    root,
    pieces: Iterable,
    flags: Iterable[int],
    children: Mapping | None = None,
) -> LabelledTree:
    """Validated construction; composability is enforced hereditarily.

    ``children`` maps ``(piece, n)`` to an already-built subtree rooted at
    that piece, for every piece flagged 1 and every ``n < branch``.
    """
    basis = space.basis
    basis.require(root)
    pieces = tuple(pieces)
    flags = tuple(flags)
    if len(flags) != len(pieces) or any(f not in (0, 1) for f in flags):
        raise ValueError("flags must assign 0 or 1 to each piece")
    if len(set(pieces)) != len(pieces):
        raise ValueError("pieces must be distinct")
    paired = sorted(zip(pieces, flags), key=lambda qf: element_key(qf[0]))
    pieces = tuple(q for q, _ in paired)
    flags = tuple(f for _, f in paired)
    for q in pieces:
        basis.require(q)
        if not basis.leq(q, root):
            raise NotBelowRoot(q, root)
    for a, b in itertools.combinations(pieces, 2):
        if not basis.disjoint(a, b):
            raise ValueError(f"pieces {a!r} and {b!r} overlap")
    cover = Sieve.from_generators(basis, root, pieces)
    if not space.topology.cover(root, cover).covered:
        raise ValueError(f"pieces do not cover {root!r}")

    children = dict(children or {})
    wanted = {
        (q, n)
        for q, f in zip(pieces, flags)
        if f == 1
        for n in range(branch)
    }
    if set(children) != wanted:
        raise ValueError("children must cover exactly the flagged edges")
    for (q, _n), sub in children.items():
        if not isinstance(sub, LabelledTree) or sub.root != q:
            raise ValueError(f"subtree on edge {(q, _n)!r} is not rooted at {q!r}")
    edges = tuple(
        sorted(children.items(), key=lambda kv: (element_key(kv[0][0]), kv[0][1]))
    )
    return LabelledTree(root=root, pieces=pieces, flags=flags, edges=edges)


def sup_star(space: FormalSpace, branch: int, p) -> LabelledTree:
    """The leaf element at ``p``: single piece ``p`` flagged 0."""
    return labelled_tree(space, branch, p, (p,), (0,))


def sup_at(space: FormalSpace, branch: int, p, subtrees: Iterable[LabelledTree]) -> LabelledTree:
    """One-node join at ``p`` of ``branch`` subtrees rooted at ``p``."""
    subs = tuple(subtrees)
    if len(subs) != branch:
        raise ValueError(f"expected {branch} subtrees, got {len(subs)}")
    children = {(p, n): sub for n, sub in enumerate(subs)}
    return labelled_tree(space, branch, p, (p,), (1,), children)


def restrict_tree(space: FormalSpace, branch: int, tree: LabelledTree, q) -> LabelledTree:
    """Restriction of a labelled tree to a smaller basic open.

    The part of the node cover visible below ``q`` is refined into a
    disjoint family again, each new piece inherits the flag of the unique
    old piece above it, and flagged subtrees are restricted recursively so
    the result stays hereditarily composable.
    """
    basis = space.basis
    if not basis.leq(q, tree.root):
        raise NotBelowRoot(q, tree.root)
    visible = Sieve.from_generators(basis, tree.root, tree.pieces).restrict(q)
    refined = cc_refine(space, q, visible)
    pieces, flags, children = [], [], {}
    for r in refined:
        a = tree.piece_over(basis, r)
        pieces.append(r)
        flags.append(tree.flag(a))
        if tree.flag(a) == 1:
            for n in range(branch):
                children[(r, n)] = restrict_tree(space, branch, tree.child(a, n), r)
    return labelled_tree(space, branch, q, pieces, flags, children)


class TreeQuotient:
    """The covering-based equivalence of labelled trees over one space.

    Trees are equivalent when both share a root and the elements where the
    two node covers agree form a covering sieve: the dominating pieces carry
    the same flag and, when flagged, the corresponding subtrees restricted
    to the common element are equivalent.  Restricting before recursing is
    what lets a tree agree with any refinement of itself.

    One instance keeps every verdict and every restriction it computes, so
    all the checks handed the same quotient share them.
    """

    def __init__(self, space: FormalSpace, branch: int):
        self.space = space
        self.branch = branch
        self._verdicts: dict = {}
        self._restrictions: dict = {}

    def restrict(self, tree: LabelledTree, q) -> LabelledTree:
        """``restrict_tree`` of ``tree`` to ``q``, computed once per pair."""
        key = (tree, q)
        if key not in self._restrictions:
            self._restrictions[key] = restrict_tree(self.space, self.branch, tree, q)
        return self._restrictions[key]

    def eq(self, v: LabelledTree, w: LabelledTree) -> bool:
        """Whether ``v`` and ``w`` are equivalent."""
        key = frozenset((v, w))
        if key in self._verdicts:
            return self._verdicts[key]
        if v.root != w.root:
            self._verdicts[key] = False
            return False
        basis = self.space.basis
        good = []
        for r in basis.down(v.root):
            q1 = v.piece_over(basis, r)
            q2 = w.piece_over(basis, r)
            if q1 is None or q2 is None or v.flag(q1) != w.flag(q2):
                continue
            if v.flag(q1) == 1 and not all(
                self.eq(self.restrict(v.child(q1, n), r), self.restrict(w.child(q2, n), r))
                for n in range(self.branch)
            ):
                continue
            good.append(r)
        sieve = Sieve.from_generators(basis, v.root, good)
        out = self.space.topology.cover(v.root, sieve).covered
        self._verdicts[key] = out
        return out

    def classes(self, trees: Iterable[LabelledTree]) -> list:
        """First-match partition: each class is a list led by its first tree."""
        classes = []
        for w in trees:
            for cls in classes:
                if self.eq(cls[0], w):
                    cls.append(w)
                    break
            else:
                classes.append([w])
        return classes


# Most subsets of a fragment ``disjoint_covers`` may enumerate.
MAX_FRAGMENT_SUBSETS = 4096


def disjoint_covers(space: FormalSpace, p) -> tuple:
    """All disjoint families below ``p`` whose downset covers it."""
    basis = space.basis
    fragment = basis.down(p)
    if 2 ** len(fragment) > MAX_FRAGMENT_SUBSETS:
        raise ValueError(f"fragment below {p!r} too large to enumerate")
    out = []
    for size in range(1, len(fragment) + 1):
        for combo in itertools.combinations(fragment, size):
            if all(basis.disjoint(a, b) for a, b in itertools.combinations(combo, 2)):
                sieve = Sieve.from_generators(basis, p, combo)
                if space.topology.cover(p, sieve).covered:
                    out.append(tuple(sorted(combo, key=element_key)))
    return tuple(out)


def enumerate_labelled(space: FormalSpace, branch: int, p, depth: int) -> tuple:
    """All labelled trees rooted at ``p`` of node depth at most ``depth``."""
    covers = disjoint_covers(space, p)
    out = []
    for alpha in covers:
        for flags in itertools.product((0, 1), repeat=len(alpha)):
            slots = [
                (q, n)
                for q, f in zip(alpha, flags)
                if f == 1
                for n in range(branch)
            ]
            if slots and depth == 0:
                continue
            options = [enumerate_labelled(space, branch, q, depth - 1) for q, _ in slots]
            for combo in itertools.product(*options):
                children = dict(zip(slots, combo))
                out.append(labelled_tree(space, branch, p, alpha, flags, children))
    return tuple(out)


def glue_trees(space: FormalSpace, branch: int, p, assignment: Mapping) -> LabelledTree:
    """Amalgamate trees given on a disjoint cover of ``p``.

    Follows the sheaf proof: the new node cover is the union of the piece
    covers of the parts, with flags and subtrees carried over unchanged.
    """
    pieces, flags, children = [], [], {}
    for q in sorted(assignment, key=element_key):
        part = assignment[q]
        if part.root != q:
            raise ValueError(f"the tree assigned to {q!r} is rooted at {part.root!r}")
        for r, f in zip(part.pieces, part.flags):
            pieces.append(r)
            flags.append(f)
            if f == 1:
                for n in range(branch):
                    children[(r, n)] = part.child(r, n)
    return labelled_tree(space, branch, p, pieces, flags, children)


# ---------------------------------------------------------- the law battery


@dataclass(frozen=True)
class BOReport:
    """Failures found while checking the labelled-tree quotient.

    Empty tuples everywhere (and ``subalgebra_ok``) mean the quotient is a
    sheaf of algebras with no proper subalgebra at this truncation.
    """

    tree_counts: tuple
    class_counts: tuple
    presheaf_failures: tuple
    separation_failures: tuple
    glue_failures: tuple
    uniqueness_failures: tuple
    algebra_failures: tuple
    injectivity_failures: tuple
    subalgebra_ok: bool

    @property
    def ok(self) -> bool:
        return self.subalgebra_ok and not (
            self.presheaf_failures
            or self.separation_failures
            or self.glue_failures
            or self.uniqueness_failures
            or self.algebra_failures
            or self.injectivity_failures
        )


def bo_sheaf_checks(quotient: TreeQuotient, depth: int) -> BOReport:
    """Verify the labelled-tree quotient is the expected sheaf of algebras.

    Enumerates trees to the given node depth at every basic open, then
    checks the presheaf laws modulo equivalence, separation, amalgamation
    existence and uniqueness along disjoint covers, the two join operations
    with naturality, injectivity of the join, and that the classes
    generated from leaves by joins and gluing exhaust the quotient.
    """
    space, branch = quotient.space, quotient.branch
    eq, down = quotient.eq, quotient.restrict
    basis = space.basis
    elements = basis.elements
    trees_at = {p: enumerate_labelled(space, branch, p, depth) for p in elements}

    presheaf_failures = []
    for p in elements:
        for w in trees_at[p]:
            if not eq(down(w, p), w):
                presheaf_failures.append(("identity", w))
            for q in basis.down(p):
                for r in basis.down(q):
                    if not eq(down(down(w, q), r), down(w, r)):
                        presheaf_failures.append(("composition", w, q, r))

    covers_at = {p: disjoint_covers(space, p) for p in elements}

    separation_failures = []
    for p in elements:
        proper = [alpha for alpha in covers_at[p] if alpha != (p,)]
        for alpha in proper:
            for v, w in itertools.combinations(trees_at[p], 2):
                if all(eq(down(v, q), down(w, q)) for q in alpha) and not eq(v, w):
                    separation_failures.append((p, alpha, v, w))

    glue_failures, uniqueness_failures = [], []
    for p in elements:
        for alpha in covers_at[p]:
            pools = [trees_at[q] for q in alpha]
            for combo in itertools.product(*pools):
                assignment = dict(zip(alpha, combo))
                glued = glue_trees(space, branch, p, assignment)
                if not all(eq(down(glued, q), assignment[q]) for q in alpha):
                    glue_failures.append((p, alpha, combo))
                    continue
                for z in trees_at[p]:
                    agrees = all(eq(down(z, q), assignment[q]) for q in alpha)
                    if agrees and not eq(z, glued):
                        uniqueness_failures.append((p, alpha, combo, z))

    algebra_failures = []
    for p in elements:
        for q in basis.down(p):
            if not eq(down(sup_star(space, branch, p), q), sup_star(space, branch, q)):
                algebra_failures.append(("leaf-natural", p, q))
        shallow = [w for w in trees_at[p] if w.depth < depth]
        for subs in itertools.product(shallow, repeat=branch):
            joined = sup_at(space, branch, p, subs)
            for q in basis.down(p):
                restricted = sup_at(space, branch, q, tuple(down(s, q) for s in subs))
                if not eq(down(joined, q), restricted):
                    algebra_failures.append(("join-natural", p, subs, q))

    injectivity_failures = []
    for p in elements:
        shallow = [w for w in trees_at[p] if w.depth < depth]
        tuples = list(itertools.product(shallow, repeat=branch))
        joins = [sup_at(space, branch, p, subs) for subs in tuples]
        leaf = sup_star(space, branch, p)
        for subs, joined in zip(tuples, joins):
            if eq(leaf, joined):
                injectivity_failures.append(("leaf-vs-join", p, subs))
        for (s1, j1), (s2, j2) in itertools.combinations(zip(tuples, joins), 2):
            if eq(j1, j2) and not all(eq(a, b) for a, b in zip(s1, s2)):
                injectivity_failures.append(("join", p, s1, s2))

    classes_at = {p: quotient.classes(trees_at[p]) for p in elements}

    def class_id(p, w) -> int:
        for i, cls in enumerate(classes_at[p]):
            if eq(cls[0], w):
                return i
        raise AssertionError("tree outside its own enumeration")

    reached = {p: {class_id(p, sup_star(space, branch, p))} for p in elements}
    changed = True
    while changed:
        changed = False
        for p in elements:
            reps = [classes_at[p][i][0] for i in sorted(reached[p])]
            for subs in itertools.product(reps, repeat=branch):
                joined = sup_at(space, branch, p, subs)
                if joined.depth <= depth:
                    i = class_id(p, joined)
                    if i not in reached[p]:
                        reached[p].add(i)
                        changed = True
            for alpha in covers_at[p]:
                pools = [
                    [classes_at[q][i][0] for i in sorted(reached[q])] for q in alpha
                ]
                for combo in itertools.product(*pools):
                    glued = glue_trees(space, branch, p, dict(zip(alpha, combo)))
                    if glued.depth <= depth:
                        i = class_id(p, glued)
                        if i not in reached[p]:
                            reached[p].add(i)
                            changed = True
    subalgebra_ok = all(
        len(reached[p]) == len(classes_at[p]) for p in elements
    )

    return BOReport(
        tree_counts=tuple((p, len(trees_at[p])) for p in elements),
        class_counts=tuple((p, len(classes_at[p])) for p in elements),
        presheaf_failures=tuple(presheaf_failures),
        separation_failures=tuple(separation_failures),
        glue_failures=tuple(glue_failures),
        uniqueness_failures=tuple(uniqueness_failures),
        algebra_failures=tuple(algebra_failures),
        injectivity_failures=tuple(injectivity_failures),
        subalgebra_ok=subalgebra_ok,
    )
