"""Cell-by-cell reference for ``TmConfiguration.window``.

``window(cells, head, blank, limit)`` renders the tape as the package
did before it laid the written cells into one row of blanks: it looks
each index of the window up in a dict, then decides the separator from
the written symbols, plus the blank when some window cell is unwritten.
``TmConfiguration(cells, head, state).window(blank)``, with
``budget.MAX_TAPE_CELLS`` set to ``limit``, must return the same pair,
or raise ``BudgetExceeded`` with the same message.
"""

from chaosmark.budget import BudgetExceeded


def window(cells, head, blank, limit):
    """(first index, rendered tape) over the written cells and the head."""
    cells = dict(cells)
    lo = min(min(cells, default=head), head)
    hi = max(max(cells, default=head), head)
    if hi - lo >= 2 * limit:
        raise BudgetExceeded(f"tape window spans {hi - lo + 1} cells, more "
                             f"than 2*MAX_TAPE_CELLS={2 * limit}")
    symbols = [cells.get(i, blank) for i in range(lo, hi + 1)]
    shown = set(cells.values())
    if len(cells) < len(symbols):  # some cell in the window is blank
        shown.add(blank)
    return lo, ("" if all(len(s) == 1 for s in shown) else " ").join(symbols)
