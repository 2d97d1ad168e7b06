"""Work budgets: every limit on one command's work, and the one check.
Each limit caps a quantity known before the work it counts starts, and
is read when charged, so a test patches it on this module alone."""


class BudgetExceeded(ValueError):
    """A run or its input would exceed a fixed work or memory budget."""


# Most terms (head plus one tail block) one strategy series may sum.
# The Horner sum is quadratic in the count: on a shared 2-core x86 VM,
# tail periods 97 and 89 (8633 terms) take 0.01-0.02 s, and 316 and 315
# (99540 terms, the largest accepted pair of that shape) 0.94-1.43 s.
MAX_SERIES_TERMS = 10**5
# Most whole-vector correction terms one transitivity splice may use:
# max(1, ceil(max |gap| / N)) over the media components, whatever nv.
# Building and walking a splice is linear in the count times nv, and
# each exact distance over it is a Horner sum quadratic in the count.
# On a shared 2-core x86 VM, a whole witness with 10^4 terms takes
# 0.04-0.05 s at nv 1, 10 and 64; building the terms takes 4-8 ms.
MAX_CORRECTION_TERMS = 10**4
# Most orbit step-components (steps times nv, plus a scan's setup weight
# per trial) one scan, trace or expansivity run may walk, counted before
# any point is drawn.  As whole commands, one fresh process each, on a
# shared 2-core x86 VM: at nv 8, a trace of 125000 steps takes 0.66-0.90 s
# and a scan of 3875 trials of 21 steps 0.62-0.84 s; at nv 1, a scan of
# 10989 trials of one step 0.84-1.01 s and a trace of 10^6 steps
# 3.71-4.18 s, peaking at 417 MiB while its JSON report is built and
# written.  The default scan (500 trials of 21 steps at nv 8) uses 129000.
MAX_ORBIT_WORK = 10**6
# Most steps one run may take.  A whole tm command running the 5-state
# busy beaver for 10^7 steps takes 0.67-0.76 s and peaks at 52 MiB in a
# fresh process (Python 3.11, shared 2-core x86 VM).
MAX_TM_STEPS = 10**7
# Most tape cells one machine configuration may hold written.
MAX_TAPE_CELLS = 10**6
# Widest message (--nc) one embed may ask for, checked before its bits
# are laid out at about one byte a bit: on a shared 2-core x86 VM, 0.8 ms
# and 1.1 MB for 10^6 bits (tracemalloc), and a whole raw embed of 10^6
# bits at nv 8 takes 0.39-0.43 s and 243 MiB.  No wider message can be
# embedded: its carriers alone hold nv * nc >= nc^2 doubles.
MAX_MESSAGE_BITS = 10**6
# Most components (nc times nv) one carrier draw may hold: twice the
# largest embed's 4096 x 1024.  On a shared 2-core x86 VM, a raw draw of
# 2^23 took 0.2 s and 97 MiB RSS, and a whole decode command of 2^23 bits
# from one component 0.38-0.43 s and 260 MiB; the orthonormal family took
# 0.06 s and 103 MiB at 4096 x 1024, 0.11-0.18 s and 171 MiB at 2896 x
# 2896, and a whole decode at 2^23 x 1 1.30-1.51 s and 620 MiB, where two
# permutations of nv and the 4 * nv cosines outweigh the one carrier.
MAX_CARRIER_COMPONENTS = 2**23
# Widest phase space (--nv) one analyze run may draw its start points in,
# checked before the first is drawn.  Whole commands in fresh processes
# on a shared 2-core x86 VM, at nv 10^6: sensitivity 2.77-3.35 s and 447
# MiB RSS, regularity 3.32-3.82 s and 592 MiB, continuity 2.72-3.44 s and
# 470 MiB, and transitivity (r_a 0.1) 7.9 s and 1022 MiB, most of it its
# 287 MB report; at nv 10^5 transitivity takes 0.60-1.08 s and 119 MiB.
MAX_MEDIA_COMPONENTS = 10**6


def charge(name: str, amount, what: str) -> None:
    """Raise BudgetExceeded("<what>, more than <name>=<limit>") when
    amount is over the limit called name, read at this call."""
    limit = globals()[name]
    if amount > limit:
        raise BudgetExceeded(f"{what}, more than {name}={limit}")
