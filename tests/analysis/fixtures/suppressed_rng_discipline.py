"""A planted rng-stream-discipline finding silenced inline (never imported).

The analyzer honours the suppression: the file is clean, with one
suppression counted.
"""

from repro.sim.rng import SeededRNG


def calibration_stream():
    # detlint: ok rng-stream-discipline — a fixed stream for a documented calibration
    return SeededRNG(42)
