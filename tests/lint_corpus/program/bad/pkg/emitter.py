"""RPL106 liveness evidence: names emitted through module constants.

``svc.used`` / ``svc.event`` are referenced here, keeping them alive in
``pkg.lint.catalog``; ``svc.dead`` has no emitter anywhere and must be
flagged.  (The ``svc.`` namespace is unregistered on purpose — the
module-local RPL002 findings pin the one combined report.)
"""

M_USED = "svc.used"
E_EVT = "svc.event"


def go(obs):
    obs.metrics().inc(M_USED)
    obs.events().emit(E_EVT)
