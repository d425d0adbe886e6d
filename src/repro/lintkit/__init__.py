"""Static invariant checks for the simulator's correctness contracts.

One module per invariant — snapshot completeness, proof purity,
stats-slot discipline, determinism, docs sync and obs guards — each a
plain ``check(root) -> List[Finding]`` over the repository's sources.
``tests/test_lint.py`` runs every check on the tree and on seeded
violations; ``docs/linting.md`` states each contract.
"""
