"""The historical import path of the Specification 1 automaton's by-product."""

from repro.spec.pif_spec import Wave, extract_waves

__all__ = ["Wave", "extract_waves"]
