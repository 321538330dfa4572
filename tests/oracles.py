"""Slow, independent oracles that several test modules share."""


def closure_codewords(code) -> set[tuple[int, ...]]:
    """The span of an R-code by raw fixpoint closure over the ring tables."""
    ring = code.ring
    words = {(0,) * code.n}
    for g in code.gens:
        scaled = [tuple(int(ring.mul_table[r, gj]) for gj in g) for r in range(ring.size)]
        words = {
            tuple(int(ring.add_table[wj, sj]) for wj, sj in zip(w, s))
            for w in words
            for s in scaled
        }
    return words
