"""Sigmoid-network solver for the flat-plate boundary-layer equation.

The third-order two-point problem y''' + (1/2) y y'' = 0, y(0) = y'(0) = 0,
y'(far) = 1 is solved directly (no first-order reduction) by gradient descent
on a collocation loss over a trial solution built around a small sigmoid
network.  Classical oracles (wall power series, RK4 shooting) and bundled
reference tables provide independent validation.

The package re-exports nothing: import each name from the module that
defines it, e.g. ``from blasius_net.training import train``.  The command
line is ``blasius_net.cli``.
"""
