"""Group-sparse signal recovery through linear and coarsely quantized channels.

The inner engine alternates Gaussian message passing over the linear mixing
with scalar spike-and-slab and group-activity updates; an optional outer loop
learns the sparse rate when it is unknown. Names are imported from their
submodules, e.g. `from hygec.engine import hygec_run`.
"""

__version__ = "0.1.0"
