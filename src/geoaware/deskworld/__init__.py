"""Deterministic tabletop pick-and-place world with pinhole cameras.

The world is intentionally small: colored block objects, painted goal
regions, a point end-effector with a binary gripper, and kinematic dynamics
(no contact physics).  Everything is derivable from a seed so that datasets,
renders, and rollouts are bit-reproducible.
"""
