"""Seeded request generators: the only inputs the program receives.

Everything here is pure Python, so the same seed gives byte-identical wire
payloads on any machine. The constants are
taken from the packaged data (``src/rtmotion/data``) once and frozen here, so
a later change to those files does not silently change the benchmark inputs;
``perfbench/tests/test_perfbench.py`` checks that they still agree.
"""

from __future__ import annotations

import math
import random

REQUEST_TYPE = "rt-move-cartesian"
ROBOT_ID = "sim"

# --- buffered teleop (teleop-replay scenario) --------------------------------
TELEOP_PERIOD_S = 0.04  # master period, 25 Hz
TELEOP_BUFFER = 5  # waypoints per sliding window
# rest configuration of teleop-replay.json; its end-effector pose is the first
# sample of teleop-master.csv
TELEOP_Q0 = (0.0, 0.4, -1.0, 0.0, 0.4, 0.0)
TELEOP_START = (0.779914248984, 0.0, 0.515387582553, 0.0, -0.2, 0.0)
# box spanned by teleop-master.csv: centre and half range per pose component
TELEOP_CENTER = (0.76241702, 0.02, 0.50288885, 0.0, -0.17000118, 0.0)
TELEOP_HALF = (0.01749723, 0.0282826, 0.01249874, 0.0, 0.02999882, 0.0)
# the master log's own peak speed is ~0.04 m/s; these bands keep the path in
# that regime: ramp in from rest, then two sinusoids per moving component
TELEOP_RAMP_S = 2.0
TELEOP_FREQ_HZ = (0.08, 0.25)

# --- offline drawing (draw-line / draw-circle scenarios) ---------------------
# rest configuration of draw-circle.json; the pen then sits at DRAW_START
DRAW_Q0 = (0.0, 0.984578582, -1.711294326, 0.0, 0.526715702, 0.0)
DRAW_START = (0.62, 0.0, 0.4)
DRAW_RPY = (0.0, -0.2, 0.0)
# both packaged drawings stay in x in [0.50, 0.62], |y| <= 0.09 at z = 0.4
DRAW_X = (0.50, 0.62)
DRAW_Y = (-0.09, 0.09)
DRAW_RADIUS = (0.03, 0.06)
# one seeded duration per request, so no two requests share a QP structure
DRAW_DURATION_S = (0.45, 0.55)
# one cycle holds one request of each size, circles and polylines alternating
# by size and by cycle
DRAW_SIZES = tuple(range(7, 37, 2))


def _smoothstep(x: float) -> float:
    x = min(max(x, 0.0), 1.0)
    return x * x * (3.0 - 2.0 * x)


class TeleopPath:
    """Seeded smooth master path inside the box of the packaged master log.

    It starts at rest at TELEOP_START (so at TELEOP_Q0) and never jumps: the
    ramp blends from the start pose into oscillation around the log centre,
    and every blend of two points of the box stays in the box.
    """

    def __init__(self, seed: int):
        rng = random.Random(f"teleop:{seed}")
        self.terms = []
        for half in TELEOP_HALF:
            if half == 0.0:
                self.terms.append(())
                continue
            share = rng.uniform(0.3, 0.7)
            self.terms.append(
                tuple(
                    (half * weight, 2.0 * math.pi * rng.uniform(*TELEOP_FREQ_HZ), rng.uniform(0, 2 * math.pi))
                    for weight in (share, 1.0 - share)
                )
            )

    def pose(self, t: float) -> list[float]:
        e = _smoothstep(t / TELEOP_RAMP_S)
        out = []
        for start, centre, terms in zip(TELEOP_START, TELEOP_CENTER, self.terms):
            osc = sum(a * math.sin(w * t + p) for a, w, p in terms)
            out.append(start + e * (centre + osc - start))
        return out

    def request(self, k: int) -> dict:
        """Window k: master samples k .. k+4, oldest first, sent when sample
        k+4 arrives, i.e. at stream time (k + 4) * 0.04 s."""
        return {
            "id": f"teleop-{k}",
            "robot": ROBOT_ID,
            "type": REQUEST_TYPE,
            "waypoints": [
                {"pose": self.pose((k + i) * TELEOP_PERIOD_S), "duration": TELEOP_PERIOD_S}
                for i in range(TELEOP_BUFFER)
            ],
        }


def send_time(k: int) -> float:
    """Stream time at which teleop window k is sent."""
    return (k + TELEOP_BUFFER - 1) * TELEOP_PERIOD_S


def _circle(rng: random.Random, n: int) -> list[tuple[float, float]]:
    radius = rng.uniform(*DRAW_RADIUS)
    sense = rng.choice((-1.0, 1.0))
    cx, cy = DRAW_START[0] - radius, DRAW_START[1]
    return [
        (cx + radius * math.cos(sense * 2 * math.pi * i / n), cy + radius * math.sin(sense * 2 * math.pi * i / n))
        for i in range(1, n + 1)
    ]


def _polyline(rng: random.Random, n: int) -> list[tuple[float, float]]:
    corners = [DRAW_START[:2]] + [
        (rng.uniform(*DRAW_X), rng.uniform(*DRAW_Y)) for _ in range(rng.randint(2, 4))
    ]
    legs = [math.dist(a, b) for a, b in zip(corners, corners[1:])]
    total = sum(legs)
    points = []
    for i in range(1, n + 1):
        s = total * i / n
        leg = 0
        while leg < len(legs) - 1 and s > legs[leg]:
            s -= legs[leg]
            leg += 1
        (ax, ay), (bx, by) = corners[leg], corners[leg + 1]
        f = min(s / legs[leg], 1.0) if legs[leg] > 0 else 1.0
        points.append((ax + f * (bx - ax), ay + f * (by - ay)))
    return points


def drawing(seed: int, index: int) -> dict:
    """Drawing request `index` of the stream: a circle or a polyline of
    DRAW_SIZES[index % 15] waypoints from the pen's rest position, with one
    seeded segment duration for the whole request."""
    rng = random.Random(f"draw:{seed}:{index}")
    cycle, position = divmod(index, len(DRAW_SIZES))
    n = DRAW_SIZES[position]
    kind = "circle" if (cycle + position) % 2 == 0 else "polyline"
    points = _circle(rng, n) if kind == "circle" else _polyline(rng, n)
    duration = rng.uniform(*DRAW_DURATION_S)
    return {
        "id": f"draw-{index}-{kind}",
        "robot": ROBOT_ID,
        "type": REQUEST_TYPE,
        "waypoints": [
            {"pose": [x, y, DRAW_START[2], *DRAW_RPY], "duration": duration} for x, y in points
        ],
    }
