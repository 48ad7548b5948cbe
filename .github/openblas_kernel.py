"""Print the OpenBLAS kernel that numpy's bundled library picked on this host.

The digests in tests/test_cli.py were recorded on one BLAS kernel, so naming
the runner's lets a digest failure be traced to it.  Prints "unknown" when
the library or its corename symbol is missing, and never fails.

Run: python .github/openblas_kernel.py
"""

import ctypes
import glob
import os

name = "unknown"
try:
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        name = corename().decode()
        break
except Exception:
    pass
print("OpenBLAS kernel:", name)
