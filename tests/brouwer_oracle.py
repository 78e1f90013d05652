"""Reference oracle for the tree cover test: the way the package once ran it.

The package's ``tree_cover_test`` reads ``(tree, k_map(tree))`` pairs built
once per depth budget.  The oracle here enumerates the trees the open has
depth left for and recomputes each tree's image on every call.
"""
from sheafbench.brouwer import enumerate_trees, k_map


def tree_cover_test(space, u, sieve):
    """First tree whose translated cover sits inside the sieve, or None."""
    for tree in enumerate_trees(space.branch, space.depth - len(u)):
        if all(u + w in sieve.members for w in k_map(tree, space.branch)):
            return tree
    return None
