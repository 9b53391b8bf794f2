"""Separability certification of bipartite density matrices.

The library decides separability through Gram decompositions: a state is
separable exactly when some Gram system of its matrix elements factors as
w_ij = D_i v_j with diagonal D_i, equivalently when a full family of
commuting normal matrices maps the Gram vectors of one block index onto
another.  For 2xN states the existence question becomes a normal-completion
problem for a partially known matrix, which the solvers in
:mod:`gramsep.twoxn` settle exactly for the low-rank patterns and by
multi-start descent in general.

Modules
-------
densmat   validation, product indexing, partial transposition, PPT/rank tests
gram      Gram systems, decompositions, isometric embeddings
sep       diagonal-Gram certificates and commuting normal matrix families
twoxn     canonical 2xN forms and the normal-extension solvers
provec    product vectors in ranges, edge detection, product subtraction
states    named and random generators with known ground truth
cli       command-line frontend (`gramsep analyze`, `gramsep gen`, ...)
"""

__version__ = "0.1.0"

__all__ = ["densmat", "gram", "sep", "twoxn", "provec", "states", "cli"]
