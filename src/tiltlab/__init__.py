"""tiltlab: exponential-tilt score attacks and private query release."""

__version__ = "0.2.0"
