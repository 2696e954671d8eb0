"""rotape: pseudo-spectral solver and verification harness for the
vertically viscous rotating primitive equations on T^2 x (0,1)."""

from .grid import GridSpec
from .norms import NormSpec
from .spectral import SpectralField

__all__ = ["GridSpec", "NormSpec", "SpectralField"]
__version__ = "0.1.0"
