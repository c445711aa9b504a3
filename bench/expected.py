"""Expected outputs the benchmark checks against.

The tables below are copied from tests/test_acceptance.py and
tests/test_ramanujan_core.py (the values the paper reports). Values that no
test pins (digests, reciprocal sums, the CLI bound pool) were recorded by
record_pins.py and live in pins.json next to this file.
"""

import json
from pathlib import Path

FIRST_21 = [2, 11, 17, 29, 41, 47, 59, 67, 71, 97, 101, 107, 127, 149, 151,
            167, 179, 181, 227, 229, 233]

RUN_ROWS = {  # decade: (P display, expected ram, actual ram, expected non, actual non)
    1: (0.250, 1, 1, 2, 3),
    2: (0.400, 3, 2, 5, 4),
    3: (0.429, 6, 5, 8, 7),
    4: (0.455, 8, 13, 11, 13),
    5: (0.465, 11, 13, 14, 20),
    6: (0.471, 14, 20, 17, 36),
    7: (0.476, 17, 21, 20, 47),
    8: (0.479, 21, 26, 23, 47),
}

TWIN_ROWS = {  # decade: (pi2, pi21, pi22)
    1: (2, 0, 0),
    2: (8, 6, 0),
    3: (35, 28, 10),
    4: (205, 167, 73),
    5: (1224, 964, 508),
    6: (8169, 6305, 3468),
    7: (58980, 45082, 25629),
    8: (440312, 335919, 194614),
}

TWIN_RATIO_ROWS = {  # decade: displayed (pi21/pi2, pi22/pi2, pi22/pi21); None = 0/0
    1: (0.0, 0.0, None),
    2: (0.750, 0.0, 0.0),
    3: (0.800, 0.286, 0.357),
    4: (0.815, 0.356, 0.437),
    5: (0.788, 0.415, 0.527),
    6: (0.772, 0.425, 0.550),
    7: (0.764, 0.435, 0.568),
    8: (0.763, 0.442, 0.579),
}

SHARP_STARTS = [11, 4919, 1439, 7187, 37547, 210143, 3376943, 663563,
                4429739, 17939627, 12034427]

MAX_RATIOS = [[5, "41/47"], [10, "97/113"], [2, "11/13"]]  # argmax, ratio after excluding earlier n

MIN_TWIN_GAP = 5  # every twin Ramanujan pair sits in a composite stretch of at least 5

# N(m) of the rank-scaling conjecture, as `verify conjecture1` prints it
RANK_THRESHOLDS = {2: 1245, 3: 189, 4: 189, 5: 85, 6: 85, **{m: 10 for m in range(7, 20)}, 20: 2}

PINS_PATH = Path(__file__).with_name("pins.json")


def load_pins():
    return json.loads(PINS_PATH.read_text())
