"""The module-local rule pack.  Importing this package registers it.

Rule id map (stable — ids are never reused; the whole-program rules
RPL101..RPL106 live in :mod:`repro.lint.program.rules`):

=======  ====================  ==========================================
id       name                  family
=======  ====================  ==========================================
RPL000   parse-error           (engine-internal: unparseable file)
RPL001   no-print              obs discipline
RPL002   obs-name-catalog      obs discipline
RPL003   unseeded-random       determinism
RPL004   (retired)             merged into RPL101 taint-into-artifacts
RPL005   (retired)             merged into RPL102 reachable-raw-write
RPL006   pool-picklability     multiprocessing safety
RPL007   (retired)             merged into RPL103 transitive-picklability
RPL008   exception-hygiene     exception hygiene
=======  ====================  ==========================================
"""

from repro.lint.rules import (  # noqa: F401  (registration side effects)
    determinism,
    exceptions,
    mp,
    obs,
)
