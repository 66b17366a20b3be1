"""Counterfactual quantum communication: exact simulation and resource analytics.

Modules
-------
states      sparse labeled-register pure states and their linear-map algebra
michelson   the single-round polarization-switched interferometer engine
zeno        chained unbalanced interferometers with a pass/block obstacle
star        cat-state distribution over a star of independent links
transfer    deterministic state transfer over the shared device pair
costs       quantum/classical resource costs and a seeded Monte Carlo
cli         deterministic command-line front end

The physics is noiseless, single-photon and pure-state by design: density
matrices, channel noise and eavesdropper models are out of scope.
"""

__version__ = "0.1.0"
