"""Multi-target tracking in clutter.

Simulated radar-style scenarios, a shared constant-velocity Kalman filter,
three interchangeable association engines (gated global-nearest-neighbour,
JPDA, and a learned LSTM), OSPA/identity-switch/timing metrics, and a
reproducible Monte Carlo benchmark harness.

The interface is the ``cluttertrack`` command line (``cli``) and the modules
``domain``, ``kalman``, ``assoc``, ``deepda``, ``scenario``, ``metrics`` and
``bench``, imported by name; the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
