"""bpdp: exact growth-scale computations for bootstrap
percolation, with lattice simulators, path functionals, matrix analysis
and asymptotic fitting."""

__version__ = "0.1.0"
