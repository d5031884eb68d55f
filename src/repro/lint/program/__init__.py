"""The whole-program analysis substrate of :mod:`repro.lint`.

Module-local rules see one parsed module at a time; the rules here see
the project.  :mod:`repro.lint.program.facts` extracts a cacheable
per-module IR from the same parse, :mod:`repro.lint.program.graph`
builds the symbol table, import graph and a conservative call graph
with annotation-driven method resolution, and
:mod:`repro.lint.program.dataflow` runs a forward taint engine with
per-function summaries to a fixpoint.  The RPL101..RPL106 rules
(:mod:`repro.lint.program.rules`) register in the one rule registry of
:mod:`repro.lint.engine`; :mod:`repro.lint.driver` runs them.
"""
