"""Pins OpenBLAS's Haswell kernel for every test, before numpy loads.

OpenBLAS picks its kernel for the host's CPU, and an AVX-512 kernel and an
AVX2 one give different last bits for the same product, which can move a
fixed-seed optimizer path and so a golden transcript. Haswell is the kernel
of any x86-64 host with AVX2, with or without AVX-512, so the goldens are
those bytes on all of them. The variable is read once, when numpy loads
OpenBLAS, so this module must be imported first: pytest loads it before
the test modules, and `python tests/test_golden.py` imports it first.
"""
import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before the OpenBLAS kernel was pinned"
os.environ["OPENBLAS_CORETYPE"] = "Haswell"
