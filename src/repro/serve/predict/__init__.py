"""repro.serve.predict — predictive result prefetching for the serve tier.

CAP's predict-then-prefetch discipline applied to the request stream:
the :class:`~repro.serve.predict.miner.PatternMiner` watches the
fingerprinted simulate stream for sweep-shaped patterns (one numeric
config knob stepping by a constant stride over a fixed baseline) and
the :class:`~repro.serve.predict.speculator.Predictor` computes the
extrapolated next cells in idle batching-scheduler slots at strictly
lower priority than real traffic — so the client's *next* sweep request
is a warm cache hit instead of a simulation.

Safety properties (enforced by ``tests/serve/test_speculation_e2e.py``):

* speculative results are byte-identical to on-demand runs — they are
  produced by the same :func:`~repro.exec.runner.execute_cell` path a
  real dispatch uses;
* speculation never displaces real work — admission requires idle
  capacity, dispatch only fills otherwise-empty batches, and queued
  speculation is aborted the moment a real request faces shedding;
* an aborted speculation has touched no cache tier (aborts are
  strictly pre-dispatch), so the shared persistent cache can never be
  poisoned by a mispredicted cell;
* mispredicting request groups are muted after a bounded number of
  unconfirmed predictions (the paper's ``MISPRED_THRESH`` analogue),
  so adversarial streams cost nothing.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.serve.predict.miner": (
        "DEFAULT_MAX_GROUPS",
        "CellSpec",
        "PatternMiner",
        "Prediction",
        "flatten_overrides",
        "unflatten_overrides",
    ),
    "repro.serve.predict.speculator": (
        "DEFAULT_MAX_OUTSTANDING",
        "DEFAULT_TTL_OBSERVATIONS",
        "Predictor",
        "build_predictor",
        "prediction_to_request",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
