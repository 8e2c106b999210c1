"""Kernel lane selection: compiled extension if importable, else pure Python.

Both lanes run the identical algorithm on arbitrary-precision integers and
return identical results.
"""

try:
    from . import ckernels as _impl
except ImportError:
    from . import pykernels as _impl  # type: ignore[no-redef]

BACKEND = _impl.BACKEND
bareiss_rank = _impl.bareiss_rank
psd_rank = _impl.psd_rank

__all__ = ["BACKEND", "bareiss_rank", "psd_rank"]
