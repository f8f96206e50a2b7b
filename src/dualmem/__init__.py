"""dualmem: streaming discovery of novel object categories with a dual memory."""

__version__ = "0.1.0"
