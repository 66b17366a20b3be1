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

Every name in ``__all__`` is exported here but loads on first use (PEP 562):
``import cfqsim`` imports no submodule, and ``cfqsim.run_star`` imports
``star`` and its dependencies only.  The lookup is not cached in this
package, so the home module's binding is always the one returned.
"""

import importlib

_EXPORTS = {
    "costs": "CostProfile McReport cost_profile golden_section_min minimize_classical_cost "
    "minimize_quantum_cost monte_carlo total_qst_cost",
    "michelson": "BeamSplitter ClosedFormProbs RoundConfig RoundOutcome closed_form_probs "
    "d1_state_closed_form forward_beamsplitter return_beamsplitter round_record run_round "
    "run_scqkd_round switch_interaction",
    "star": "CatResult StarConfig cat_fidelity ideal_cat partial_propagator run_star",
    "states": "PureState Qubit Register apply_map entanglement_entropy fidelity_up_to_phase "
    "postselect product_state sector",
    "transfer": "TransferTranscript transfer_alice_to_bob transfer_bob_to_alice "
    "transfer_without_correction",
    "zeno": "ChainConfig ChainResult asymptotic_limit chain_closed_form chain_step "
    "obstacle_step run_chain",
}
# exported name -> home submodule
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
