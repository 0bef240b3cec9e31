"""Reed-Solomon baseline codec over GF(256)."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".codec": ("RSDecodeError", "ReedSolomonCodec", "cauchy_matrix"),
        ".gf256": ("gf_div", "gf_inv", "gf_mul", "gf_pow", "invert_matrix", "matmul"),
    },
)
