"""Steady-state laser as photon condensation into a collective ground level.

Three layers, mirroring the physics:

* :mod:`lasercond.spectrum` -- exact invariant-block spectra of N resonant
  two-level molecules coupled to a single boson mode, plus the closed-form
  ground-state photon statistics and the evenly spaced level ladder.
* :mod:`lasercond.thermal` -- Dicke multiplet degeneracies and thermal
  averages of the molecular energy m and of r(r+1).
* :mod:`lasercond.condensation` -- the pumped, bath-coupled steady state of
  the 2r+1 level ladder: occupations, amplification factor, chemical
  potential, condensate split, and the pump threshold.

:mod:`lasercond.cli` exposes the ``lasercond`` command with ``spectrum``,
``thermal``, ``steady-state``, ``sweep`` and ``threshold`` subcommands.
Numpy and each numerical layer are loaded only by the commands that use
them, so ``thermal`` runs on the standard library alone.

:class:`ConvergenceError` and :func:`undouble` are defined here, so the CLI
can catch the one and ``config`` and ``condensation`` can name half-integers
with the other without loading ``spectrum``; ``spectrum`` re-exports both,
and ``condensation`` re-exports ``ConvergenceError``.

Every record type, ``config.RunConfig`` too, is a ``collections.namedtuple``
subclass: immutable, and compared by value unless it holds an array (there
``==`` raises numpy's ambiguous-truth-value error).  Those that validate
their fields (``BlockIndex``, ``LevelLadder``, ``BathParams``,
``PumpParams``, ``EnsembleParams``) do it in ``__new__``; ``_replace``
copies a record without re-validating it.  A named tuple takes a fraction
of a frozen dataclass's time to define and keeps ``dataclasses`` off CLI start-up.
"""

__version__ = "0.1.0"


class ConvergenceError(RuntimeError):
    """A numerical solve failed: the block SVD or the steady-state root find.

    Raised by the block eigensolve and by the steady-state solver, whose
    message names the regime (occupations that all underflow, a supply
    beyond the double range, a NaN closure, Newton steps that do not converge).
    """


def undouble(doubled: int):
    """The half-integer a doubled integer stands for: 2.5 for 5, 100 (an int) for 200."""
    return doubled // 2 if doubled % 2 == 0 else doubled / 2
