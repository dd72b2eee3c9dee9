"""Mini-C frontend: parsing and type checking, the candidate table of calls
through function pointers (preprocess), and the automaton builder, which
compiles returns and calls through pointers itself (see icfa)."""

from .parser import parse
from .icfa import ICFA, Edge, Location, build_icfa, preprocess

__all__ = ["parse", "preprocess", "ICFA", "Edge", "Location", "build_icfa"]
