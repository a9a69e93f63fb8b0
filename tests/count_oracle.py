"""The list path that the packed lanes replaced: one hit mask per direction cell, weighed by table lookups.

`depth._tope_counts` once built, for each direction cell, the mask of the
hyperplanes the rule counts at residual masks (pos, neg), and summed each
mask's weights with the 8-bit tables of `Arrangement.weight_tables`. The
tests hold the packed lanes to it: the same counts, and the same first
minimising cell.
"""

from fractions import Fraction

from arrdepth.depth import _unit_direction


def weights(arr, masks):
    """The weight of the hyperplanes in each of ``masks``, as integers over `arr.weight_tables`' denominator."""
    _, tables = arr.weight_tables
    if tables is None:
        return list(map(int.bit_count, masks))
    out = [tables[0][m & 255] for m in masks]
    for c, t in enumerate(tables[1:], 1):
        out = [w + t[m >> 8 * c & 255] for w, m in zip(out, masks)]
    return out


def cell_masks(arr, pos, neg, rule):
    """The hyperplanes each direction cell's ray count counts under ``rule``, as bitmasks.

    Against a cell with sign masks (tp, tn), the closed rule counts the
    hyperplanes whose two signs are not both + or both -, and the open rule
    those whose signs are opposite or whose cell sign is 0.
    """
    full = (1 << len(arr)) - 1
    if rule == "closed":
        return [full & ~((pos & tp) | (neg & tn)) for tp, tn in arr.direction_cells[1]]
    return [(pos & tn) | (neg & tp) | (full & ~tp & ~tn) for tp, tn in arr.direction_cells[1]]


def tope_counts(arr, pos, neg, rule):
    """Weighted ray count in each direction cell, one mask at a time."""
    return weights(arr, cell_masks(arr, pos, neg, rule))


def min_count(arr, pos, neg, rule):
    """The least count as a Fraction, and the first direction cell that has it."""
    counts = tope_counts(arr, pos, neg, rule)
    if not counts:
        return Fraction(0), _unit_direction(arr.dimension)
    best = min(counts)
    return Fraction(best, arr.weight_tables[0]), arr.direction_cells[0][counts.index(best)]
