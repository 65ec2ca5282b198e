"""The worked filling permutations the surgery workload starts from.

Each entry is (cycle notation, crossing count n); the permutation acts on
4n labels.  These are the paper's fixtures: the fixture checks of the surgery
stream compare CLI output against them bit for bit.
"""

FIXTURES = {
    # minimal genus-1 pair: the torus remainder of every k = g-1 splitting
    "f1": ("(1,2,3,4)", 1),
    # genus-2 piece with 6 crossings
    "zeta": ("(1,10,15,20,17,22,3,12)(24,5,18,11)(23,16,9,6,7,4,21,14)(2,19,8,13)", 6),
    # the genus-2 piece split off sigma_f; not homeomorphic to zeta
    "zeta_prime": ("(1,20,17,12)(24,15,10,5,18,21,4,11)(23,6,7,14)(2,9,16,19,8,3,22,13)", 6),
    # genus-3 piece with 8 crossings
    "sigma_z": (
        "(1,6,25,18)(2,23,28,5,14,27,22,3,12,21,26,15)(31,24,11,16)"
        "(32,13,10,19,20,9,8,29,30,7,4,17)",
        8,
    ),
    # the genus-5 piece split off sigma_f6
    "z5": (
        "(1,32,41,40,13,24)(48,15,18,29,36,11,16,39,46,9,12,27,10,33,44,7,22,37,"
        "38,5,20,31,42,17,30,45,4,23)(47,6,19,26)(2,21,28,43,8,3,14,35,34,25)",
        12,
    ),
    # minimal genus-3 pair
    "sigma_f": ("(1,2,13,20,7,6,19,14,5,10,11,16,9,8,15,12,3,4,17,18)", 5),
    # minimal genus-4 pair
    "f4": (
        "(1,16,27,10,7,18,15,2,3,20,21,12,11,22,17,4,9,26,19,8,13,28,23,6,5,24,25,14)",
        7,
    ),
    # minimal genus-6 pair: sigma_f # sigma_z at site (3, 2)
    "sigma_f6": (
        "(1,2,11,28,25,44,19,18,43,38,35,8,17,22,23,40,21,20,39,10,7,"
        "34,27,6,13,36,29,12,9,24,3,26,31,14,15,30,33,4,5,32,37,16,41,42)",
        11,
    ),
}

# Attachable pieces and their genus.
PIECES = {"zeta": 2, "zeta_prime": 2, "sigma_z": 3, "z5": 5}

# Minimal fixtures that can host a piece, with their genus.
HOSTS = {"f1": 1, "sigma_f": 3, "f4": 4, "sigma_f6": 6}
