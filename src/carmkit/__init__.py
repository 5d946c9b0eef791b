"""carmkit: Carmichael numbers in residue classes. Its modules are the library surface."""

__version__ = "0.1.0"
