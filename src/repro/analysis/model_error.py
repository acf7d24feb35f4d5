"""Performance-model error: predicted against achieved CPI per epoch.

The MemScale policy acts on the Eq. 2-9 CPI predictions, so their error
bounds how well the slack mechanism can do. This is the one place the
per-epoch error is computed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.policy import FrequencyDecision
    from repro.sim.results import EpochSample


def cpi_errors(decisions: Iterable["FrequencyDecision"],
               timeline: Iterable["EpochSample"],
               core_apps: Sequence[str]) -> List[float]:
    """Per-epoch, per-app |predicted - achieved| / achieved CPI.

    Epoch ``i`` pairs the policy's ``decisions[i]`` with the run's
    ``timeline[i]``; the longer of the two is cut to the shorter. An
    app's predicted CPI is the mean of ``predicted_cpi`` (the CPI at the
    chosen frequency) over the cores that ``core_apps`` assigns to it.
    Apps whose achieved CPI is not positive, or that no core runs, are
    skipped. Errors are fractions, in epoch order and within an epoch in
    the order of the sample's ``app_cpi``.
    """
    errors: List[float] = []
    for decision, sample in zip(decisions, timeline):
        by_app: Dict[str, List[float]] = {}
        for core, app in enumerate(core_apps):
            by_app.setdefault(app, []).append(
                float(decision.predicted_cpi[core]))
        for app, achieved in sample.app_cpi.items():
            if achieved <= 0 or app not in by_app:
                continue
            predicted = float(np.mean(by_app[app]))
            errors.append(abs(predicted - achieved) / achieved)
    return errors
