"""Fair power allocation for two-user optical wireless NOMA links.

Core pieces: a Lambertian line-of-sight channel model with grid
enumeration, one two-user NOMA/orthogonal rate kernel with the Jain
fairness index, a bee-colony maximizer validated by a grid oracle,
two-term exponential curve fitting, the fitted-curve power allocator
with its baselines, and a deterministic CLI around all of it.

Import the submodules by name (``from vlcfair.stats import
method_rates``); the package itself holds only ``__version__``, so
``import vlcfair`` loads nothing else.  ``python -m vlcfair`` runs the
CLI.
"""

__version__ = "0.1.0"
