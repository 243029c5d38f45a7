"""Expected outputs the benchmark checks against, kept apart from aqcc.

REFERENCE_TUPLES is a hand-transcribed copy of the 25 parameter tuples the
source paper prints, so that editing ``aqcc.selftest.REFERENCE_ROWS`` cannot
move the target.  Each row is (family, q, params, n, k, gamma, dz, dx); dz
carries the larger bound.

SEED_BRACKETS holds the [lower, upper] bracket of every distance statement
in each certificate (None = no upper bound), as the first committed version
of the benchmark recorded them at ``structure`` and ``desk`` effort.  A
later certificate must state a bracket that overlaps the recorded one:
tightening is fine, a disjoint answer means one of them is wrong.

ENCODER_DFREE gives the known free distance of each textbook binary encoder
in ``encoders/``: the standard maximum-free-distance codes, octal generators
as tabulated in Lin & Costello, Error Control Coding, chapter 12.
"""

REFERENCE_TUPLES = (
    # construction II, BCH codes over GF(16) and GF(32)
    ("II-T3a", 16, {"i": 5, "t": 1}, 17, 6, 6, 6, 5),
    ("II-T3b", 16, {"i": 5, "t": 1}, 17, 8, 4, 6, 5),
    ("II-T3a", 16, {"i": 6, "t": 1}, 17, 8, 6, 5, 4),
    ("II-T3b", 16, {"i": 6, "t": 1}, 17, 10, 4, 5, 4),
    ("II-T3a", 32, {"i": 14, "t": 1}, 33, 24, 6, 5, 4),
    ("II-T3b", 32, {"i": 14, "t": 1}, 33, 26, 4, 5, 4),
    ("II-T3a", 32, {"i": 13, "t": 1}, 33, 22, 6, 6, 5),
    ("II-T3b", 32, {"i": 13, "t": 1}, 33, 24, 4, 6, 5),
    ("II-T3a", 32, {"i": 12, "t": 1}, 33, 20, 6, 8, 5),
    ("II-T3b", 32, {"i": 12, "t": 1}, 33, 22, 4, 8, 5),
    # construction III, Reed-Solomon over GF(11)
    ("III-T5a", 11, {"i": 6, "t": 1}, 10, 4, 3, 4, 3),
    ("III-T5a", 11, {"i": 7, "t": 1}, 10, 5, 3, 3, 3),
    ("III-T5a", 11, {"i": 4, "t": 1}, 10, 2, 3, 6, 3),
    ("III-T5a", 11, {"i": 4, "t": 2}, 10, 1, 3, 6, 4),
    # construction III, generalized Reed-Solomon
    ("III-T6", 5, {"n": 5, "k": 1, "t": 1}, 5, 1, 3, 3, 2),
    ("III-T6", 7, {"n": 7, "k": 2, "t": 2}, 7, 1, 3, 4, 3),
    ("III-T6", 8, {"n": 8, "k": 2, "t": 3}, 8, 1, 3, 5, 3),
    ("III-T6", 17, {"n": 17, "k": 3, "t": 5}, 17, 7, 3, 7, 4),
    ("III-T6", 17, {"n": 17, "k": 4, "t": 4}, 17, 7, 3, 6, 5),
    ("III-T6", 17, {"n": 17, "k": 4, "t": 5}, 17, 6, 3, 7, 5),
    ("III-T6", 17, {"n": 17, "k": 4, "t": 7}, 17, 4, 3, 9, 5),
    ("III-T8", 5, {"n": 5, "k": 1, "t": 2}, 5, 1, 2, 4, 2),
    ("III-T8", 7, {"n": 7, "k": 2, "t": 2}, 7, 2, 2, 4, 3),
    ("III-T8", 7, {"n": 7, "k": 1, "t": 3}, 7, 2, 2, 5, 2),
    ("III-T8", 7, {"n": 7, "k": 2, "t": 3}, 7, 1, 2, 5, 3),
)

SEED_BRACKETS = {
    "structure": {
        "II-T3a q=16 i=5 t=1":
            {"d": (13, 13), "d_dual": (6, 6), "d1f": (6, None), "d2f_dual": (5, None)},
        "II-T3b q=16 i=5 t=1":
            {"d": (13, 13), "d_dual": (6, 6), "d1f": (6, None), "d2f_dual": (5, None)},
        "II-T3a q=16 i=6 t=1":
            {"d": (15, 15), "d_dual": (4, 4), "d1f": (4, None), "d2f_dual": (5, None)},
        "II-T3b q=16 i=6 t=1":
            {"d": (15, 15), "d_dual": (4, 4), "d1f": (4, None), "d2f_dual": (5, None)},
        "II-T3a q=32 i=14 t=1":
            {"d": (31, 31), "d_dual": (4, 4), "d1f": (4, None), "d2f_dual": (5, None)},
        "II-T3b q=32 i=14 t=1":
            {"d": (31, 31), "d_dual": (4, 4), "d1f": (4, None), "d2f_dual": (5, None)},
        "II-T3a q=32 i=13 t=1":
            {"d": (29, 29), "d_dual": (6, 6), "d1f": (6, None), "d2f_dual": (5, None)},
        "II-T3b q=32 i=13 t=1":
            {"d": (29, 29), "d_dual": (6, 6), "d1f": (6, None), "d2f_dual": (5, None)},
        "II-T3a q=32 i=12 t=1":
            {"d": (27, 27), "d_dual": (8, 8), "d1f": (8, None), "d2f_dual": (5, None)},
        "II-T3b q=32 i=12 t=1":
            {"d": (27, 27), "d_dual": (8, 8), "d1f": (8, None), "d2f_dual": (5, None)},
        "III-T5a q=11 i=6 t=1":
            {"d": (8, 8), "d_dual": (4, 4), "d1f": (4, None), "d2f_dual": (3, None)},
        "III-T5a q=11 i=7 t=1":
            {"d": (9, 9), "d_dual": (3, 3), "d1f": (3, None), "d2f_dual": (3, None)},
        "III-T5a q=11 i=4 t=1":
            {"d": (6, 6), "d_dual": (6, 6), "d1f": (6, None), "d2f_dual": (3, None)},
        "III-T5a q=11 i=4 t=2":
            {"d": (6, 6), "d_dual": (6, 6), "d1f": (6, None), "d2f_dual": (4, None)},
        "III-T6 q=5 n=5 k=1 t=1":
            {"d": (5, 5), "d_dual": (2, 2), "d1f": (2, None), "d2f_dual": (3, None)},
        "III-T6 q=7 n=7 k=2 t=2":
            {"d": (6, 6), "d_dual": (3, 3), "d1f": (3, None), "d2f_dual": (4, None)},
        "III-T6 q=8 n=8 k=2 t=3":
            {"d": (7, 7), "d_dual": (3, 3), "d1f": (3, None), "d2f_dual": (5, None)},
        "III-T6 q=17 n=17 k=3 t=5":
            {"d": (15, 15), "d_dual": (4, 4), "d1f": (4, None), "d2f_dual": (7, None)},
        "III-T6 q=17 n=17 k=4 t=4":
            {"d": (14, 14), "d_dual": (5, 5), "d1f": (5, None), "d2f_dual": (6, None)},
        "III-T6 q=17 n=17 k=4 t=5":
            {"d": (14, 14), "d_dual": (5, 5), "d1f": (5, None), "d2f_dual": (7, None)},
        "III-T6 q=17 n=17 k=4 t=7":
            {"d": (14, 14), "d_dual": (5, 5), "d1f": (5, None), "d2f_dual": (9, None)},
        "III-T8 q=5 n=5 k=1 t=2":
            {"d": (5, 5), "d_dual": (2, 2), "d1f": (2, None), "d2f_dual": (4, None)},
        "III-T8 q=7 n=7 k=2 t=2":
            {"d": (6, 6), "d_dual": (3, 3), "d1f": (3, None), "d2f_dual": (4, None)},
        "III-T8 q=7 n=7 k=1 t=3":
            {"d": (7, 7), "d_dual": (2, 2), "d1f": (2, None), "d2f_dual": (5, None)},
        "III-T8 q=7 n=7 k=2 t=3":
            {"d": (6, 6), "d_dual": (3, 3), "d1f": (3, None), "d2f_dual": (5, None)},
    },
    "desk": {
        "II-T3a q=16 i=5 t=1":
            {"d": (13, 13), "d_dual": (6, 6), "d1f": (6, 14), "d2f_dual": (5, 5)},
        "II-T3b q=16 i=5 t=1":
            {"d": (13, 13), "d_dual": (6, 6), "d1f": (6, 12), "d2f_dual": (5, 5)},
        "II-T3a q=16 i=6 t=1":
            {"d": (15, 15), "d_dual": (4, 4), "d1f": (4, 12), "d2f_dual": (5, 5)},
        "II-T3b q=16 i=6 t=1":
            {"d": (15, 15), "d_dual": (4, 4), "d1f": (4, 12), "d2f_dual": (5, 5)},
        "III-T5a q=11 i=6 t=1":
            {"d": (8, 8), "d_dual": (4, 4), "d1f": (8, 8), "d2f_dual": (3, 3)},
        "III-T5a q=11 i=7 t=1":
            {"d": (9, 9), "d_dual": (3, 3), "d1f": (3, 8), "d2f_dual": (3, 3)},
        "III-T5a q=11 i=4 t=1":
            {"d": (6, 6), "d_dual": (6, 6), "d1f": (10, 10), "d2f_dual": (3, 3)},
        "III-T5a q=11 i=4 t=2":
            {"d": (6, 6), "d_dual": (6, 6), "d1f": (10, 10), "d2f_dual": (4, 4)},
        "III-T6 q=5 n=5 k=1 t=1":
            {"d": (5, 5), "d_dual": (2, 2), "d1f": (5, 5), "d2f_dual": (3, 3)},
        "III-T6 q=7 n=7 k=2 t=2":
            {"d": (6, 6), "d_dual": (3, 3), "d1f": (6, 6), "d2f_dual": (4, 4)},
        "III-T6 q=8 n=8 k=2 t=3":
            {"d": (7, 7), "d_dual": (3, 3), "d1f": (6, 6), "d2f_dual": (5, 5)},
        "III-T6 q=17 n=17 k=3 t=5":
            {"d": (15, 15), "d_dual": (4, 4), "d1f": (4, 8), "d2f_dual": (7, 7)},
        "III-T6 q=17 n=17 k=4 t=4":
            {"d": (14, 14), "d_dual": (5, 5), "d1f": (5, 8), "d2f_dual": (6, 6)},
        "III-T6 q=17 n=17 k=4 t=5":
            {"d": (14, 14), "d_dual": (5, 5), "d1f": (5, 8), "d2f_dual": (7, 7)},
        "III-T6 q=17 n=17 k=4 t=7":
            {"d": (14, 14), "d_dual": (5, 5), "d1f": (5, 8), "d2f_dual": (9, 9)},
        "III-T8 q=5 n=5 k=1 t=2":
            {"d": (5, 5), "d_dual": (2, 2), "d1f": (2, 2), "d2f_dual": (4, 4)},
        "III-T8 q=7 n=7 k=2 t=2":
            {"d": (6, 6), "d_dual": (3, 3), "d1f": (3, 3), "d2f_dual": (4, 4)},
        "III-T8 q=7 n=7 k=1 t=3":
            {"d": (7, 7), "d_dual": (2, 2), "d1f": (2, 2), "d2f_dual": (5, 5)},
        "III-T8 q=7 n=7 k=2 t=3":
            {"d": (6, 6), "d_dual": (3, 3), "d1f": (3, 3), "d2f_dual": (5, 5)},
    },
}

ENCODER_DFREE = {
    # rate 1/2, memory 2..10: (5,7) ... (2335,3661)
    "r2m2": 5,
    "r2m3": 6,
    "r2m4": 7,
    "r2m5": 8,
    "r2m6": 10,
    "r2m7": 10,
    "r2m8": 12,
    "r2m9": 12,
    "r2m10": 14,
    # rate 1/3, memory 2..6: (5,7,7) ... (133,145,175)
    "r3m2": 8,
    "r3m3": 10,
    "r3m4": 12,
    "r3m5": 13,
    "r3m6": 15,
}
